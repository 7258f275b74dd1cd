"""The ``cognicrypt-gen`` command-line interface.

Subcommands::

    cognicrypt-gen generate TEMPLATE -o OUTDIR   # run the generator
    cognicrypt-gen analyze PATH [PATH ...]       # whole-project SAST checker
    cognicrypt-gen list-use-cases                # Table 1 inventory
    cognicrypt-gen use-case N -o OUTDIR          # generate use case N
    cognicrypt-gen check-rules [DIR]             # parse + check a rule set
    cognicrypt-gen lint-rules [DIR]              # cross-rule consistency lint
    cognicrypt-gen eval {table1,table2,rq5,all}  # regenerate the paper's tables
    cognicrypt-gen serve                         # resident engine daemon (NDJSON)

``analyze`` accepts files and directories (recursing into ``*.py``) and
analyzes them as one project, interprocedurally, in one serial pass.
Exit codes: 0 = no findings, 2 = findings reported, 1 = usage or
analysis error (a bad flag too, so a CI gate never reads a typo as
findings).
``lint-rules`` exits 3 when warnings are present.

Every generating/analyzing subcommand is a thin caller of one
:class:`~repro.engine.CryptoGenEngine`; ``serve`` keeps that engine
resident and speaks the newline-delimited JSON protocol of
:mod:`repro.engine.server` on stdio or a Unix socket.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .codegen import TargetProject
from .crysl import CrySLError, RuleSet, bundled_ruleset
from .engine import (
    AnalyzeRequest,
    CryptoGenEngine,
    EngineServer,
    expand_analyze_paths,
)
from .usecases import USE_CASES, generate_use_case, use_case

#: Environment override for the default persistent-cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG cache home + ``cognicrypt-gen``."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "cognicrypt-gen"


def _build_engine(args: argparse.Namespace) -> CryptoGenEngine:
    """The resident engine behind a subcommand: rules + optional cache.

    An explicitly requested ``--cache-dir`` that cannot be created or
    written is a hard, clean error; the *default* location failing only
    degrades to cache-less operation with a warning (e.g. read-only
    ``$HOME`` in a sandbox must not break generation). The engine
    derives its persistent function-summary store from the same
    directory, so ``analyze`` warm-starts across processes too.
    """
    from .cache import CacheDirectoryError, DiskRuleCache
    from .engine import BreakerConfig, SupervisorConfig

    rules_dir = getattr(args, "rules", None) or None
    verify = bool(getattr(args, "verify", False))

    supervisor_config = None
    max_tasks = getattr(args, "max_tasks_per_worker", None)
    memory_mb = getattr(args, "worker_memory_mb", None)
    if max_tasks is not None or memory_mb is not None:
        supervisor_config = SupervisorConfig(
            max_tasks_per_worker=max_tasks, worker_memory_mb=memory_mb
        )
    breaker_config = None
    threshold = getattr(args, "breaker_threshold", None)
    cooldown = getattr(args, "breaker_cooldown", None)
    if threshold is not None or cooldown is not None:
        defaults = BreakerConfig()
        breaker_config = BreakerConfig(
            failure_threshold=(
                threshold if threshold is not None else defaults.failure_threshold
            ),
            cooldown_seconds=(
                cooldown if cooldown is not None else defaults.cooldown_seconds
            ),
        )

    def engine(cache=None) -> CryptoGenEngine:
        kwargs = dict(
            cache=cache,
            verify=verify,
            supervisor_config=supervisor_config,
            breaker_config=breaker_config,
        )
        if rules_dir:
            return CryptoGenEngine(rules_dir=rules_dir, **kwargs)
        return CryptoGenEngine(**kwargs)

    if getattr(args, "no_cache", True):
        return engine()
    explicit = args.cache_dir is not None
    cache_dir = Path(args.cache_dir) if explicit else default_cache_dir()
    try:
        cache = DiskRuleCache(cache_dir)
    except CacheDirectoryError as exc:
        if explicit:
            raise _CLIError(f"--cache-dir {cache_dir}: {exc}") from exc
        print(
            f"warning: cache directory {cache_dir} is unusable ({exc}); "
            "continuing without a persistent cache",
            file=sys.stderr,
        )
        return engine()
    return engine(cache)


class _CLIError(Exception):
    """A user-facing CLI failure: message only, no traceback."""


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own 2 means "findings"."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_module(
    module, template: str, project: TargetProject, args: argparse.Namespace
) -> None:
    module_name = Path(template).stem + "_generated"
    path = project.write(module, module_name)
    print(f"generated {path}")
    if args.explain:
        from .codegen.explain import explain_module

        print(explain_module(module))
    else:
        for report in module.reports:
            labels = " ".join(
                f"{plan.instance.alias}:{','.join(plan.labels)}"
                for plan in report.plan.instances
            )
            print(f"  {report.method_name}: {labels}")
    if args.stats:
        print(module.diagnostics.render())


def _cmd_generate(args: argparse.Namespace) -> int:
    # One engine — and therefore one warm rule set and one cumulative
    # diagnostics record — serves every template on the command line;
    # rules compile once (or load from the persistent cache).
    if args.jobs < 1:
        raise _CLIError(f"--jobs must be a positive integer, got {args.jobs}")
    with _build_engine(args) as engine:
        results = engine.generate_many(args.templates, jobs=args.jobs)
        project = TargetProject(args.output)
        exit_code = 0
        payloads = []
        for template, result in zip(args.templates, results):
            if result.error is not None:
                print(f"error: {template}: {result.error}", file=sys.stderr)
                exit_code = 1
                continue
            module = result.module
            module_name = Path(template).stem + "_generated"
            if args.json:
                path = project.write(module, module_name)
                payloads.append({**result.to_dict(), "path": str(path)})
            else:
                _print_module(module, template, project, args)
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "results": payloads,
                        "diagnostics": engine.diagnostics.to_dict(),
                    },
                    indent=2,
                )
            )
        elif args.stats and len(args.templates) > 1:
            print("cumulative over all templates:")
            print(engine.diagnostics.render())
    return exit_code


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .sast import (
        Baseline,
        BaselineError,
        baseline_from_results,
        diff_against_baseline,
        to_sarif,
    )

    if args.json and args.sarif:
        raise _CLIError("--json and --sarif are mutually exclusive")
    if args.update_baseline and not args.baseline:
        raise _CLIError("--update-baseline requires --baseline FILE")
    paths = expand_analyze_paths(args.paths)
    if not paths:
        raise _CLIError("no Python files to analyze")
    # Closing the engine flushes newly compiled rules to --cache-dir.
    with _build_engine(args) as engine:
        result = engine.analyze(
            AnalyzeRequest(paths=tuple(str(p) for p in paths))
        )
    if result.error is not None:
        raise _CLIError(str(result.error))
    analysis = result.analysis
    if args.sarif:
        import json

        print(json.dumps(to_sarif(analysis), indent=2))
    elif args.json:
        import json

        print(json.dumps(analysis.to_dict(), indent=2))
    else:
        print(analysis.render())
    if args.stats:
        # Stats go to stderr so --json / --sarif stdout stays parseable.
        print(
            f"request: reanalyzed {result.reanalyzed_functions} of "
            f"{analysis.total_functions} function(s) "
            f"({analysis.summary_cache_hits} from summary cache, "
            f"{result.dfa_builds} DFA builds)",
            file=sys.stderr,
        )
        print(engine.diagnostics.render(), file=sys.stderr)
    if args.update_baseline:
        baseline = baseline_from_results(analysis.modules)
        baseline.save(args.baseline)
        print(
            f"baseline updated: {len(baseline)} fingerprint(s) -> "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except BaselineError as exc:
            raise _CLIError(str(exc)) from exc
        diff = diff_against_baseline(analysis.modules, baseline)
        print(
            f"baseline: {len(diff.new)} new, {len(diff.baselined)} "
            f"baselined, {diff.absent} absent",
            file=sys.stderr,
        )
        return 0 if diff.clean else 2
    return 0 if analysis.is_secure else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    server = EngineServer(
        engine,
        timeout=args.timeout,
        workers=args.serve_workers,
        max_pending=args.max_pending,
        max_pending_per_conn=args.max_pending_per_conn,
    )
    if args.socket:
        print(f"serving on {args.socket}", file=sys.stderr)
        server.serve_socket(args.socket)
    else:
        server.serve_stdio()
    return 0


def _cmd_list_use_cases(_: argparse.Namespace) -> int:
    for entry in USE_CASES:
        sources = ", ".join(entry.sources)
        print(f"{entry.number:2d}  {entry.name:32s} [{entry.template_module}]  {sources}")
    return 0


def _cmd_use_case(args: argparse.Namespace) -> int:
    entry = use_case(args.number)
    module = generate_use_case(args.number)
    path = TargetProject(args.output).write(module, entry.template_module)
    print(f"generated use case {entry.number} ({entry.name}) -> {path}")
    return 0


def _cmd_check_rules(args: argparse.Namespace) -> int:
    try:
        ruleset = (
            RuleSet.from_directory(args.directory)
            if args.directory
            else bundled_ruleset()
        )
    except CrySLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rule in ruleset:
        print(
            f"{rule.class_name}: {len(rule.events)} events, "
            f"{len(rule.constraints)} constraints, "
            f"{len(rule.ensures)} ensures, {len(rule.requires)} requires"
        )
    print(f"{len(ruleset)} rules OK")
    return 0


def _cmd_lint_rules(args: argparse.Namespace) -> int:
    from .crysl.lint import findings_to_dict, lint_ruleset, render_findings

    try:
        ruleset = (
            RuleSet.from_directory(args.directory)
            if args.directory
            else bundled_ruleset()
        )
    except CrySLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    findings = lint_ruleset(ruleset)
    if args.json:
        import json

        print(json.dumps(findings_to_dict(findings), indent=2))
    else:
        print(render_findings(findings))
    return 3 if findings else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import eval as evaluation

    which = args.what
    if which in ("table1", "all"):
        rows = evaluation.run_table1(runs=args.runs)
        print(evaluation.render_table1(rows))
        print()
    if which in ("table2", "all"):
        print(evaluation.render_table2(evaluation.run_table2()))
        print()
    if which in ("rq5", "all"):
        print(evaluation.render_rq5(evaluation.run_rq5()))
    return 0


def _ruleset(args: argparse.Namespace) -> RuleSet:
    if getattr(args, "rules", None):
        return RuleSet.from_directory(args.rules)
    return bundled_ruleset()


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cognicrypt-gen",
        description="Generate secure crypto code from CrySL rules and templates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="run the generator on templates")
    generate.add_argument(
        "templates", nargs="+", metavar="template",
        help="template .py file(s) — all share one warm generation context",
    )
    generate.add_argument("-o", "--output", default=".", help="output directory")
    generate.add_argument("--rules", help="directory of .crysl rules")
    generate.add_argument(
        "--explain",
        action="store_true",
        help="print the plan: chosen paths, links, value provenance",
    )
    generate.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage timings, cache counters and cascade tiers",
    )
    generate.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable report on stdout (per-template "
        "results with request traces, plus cumulative diagnostics)",
    )
    generate.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the templates' pipelines on N worker processes, at most "
        "one per CPU (default: 1, in-process); the output is the same",
    )
    generate.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent compiled-rule cache location "
        "(default: $REPRO_CACHE_DIR, else ~/.cache/cognicrypt-gen)",
    )
    generate.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent compiled-rule cache",
    )
    generate.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="re-analyze every generated module with the whole-project "
        "analyzer and fail (exit 1) on any finding",
    )
    generate.set_defaults(handler=_cmd_generate)

    analyze = sub.add_parser(
        "analyze",
        help="analyze code for crypto misuses (whole-project)",
        description="Analyze Python files and directories as one project: "
        "modules are lifted together, a call graph links wrapper methods "
        "and helpers, and CrySL misuses are reported interprocedurally.",
        epilog="exit codes: 0 = no active findings (suppressed and "
        "baselined ones pass); 2 = findings reported (with --baseline: "
        "new findings only); 1 = usage or analysis error",
    )
    analyze.add_argument(
        "paths", nargs="+", metavar="path",
        help="Python files and/or directories (directories recurse into *.py)",
    )
    analyze.add_argument("--rules", help="directory of .crysl rules")
    analyze.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )
    analyze.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF 2.1.0 report on stdout (GitHub code scanning)",
    )
    analyze.add_argument(
        "--stats",
        action="store_true",
        help="print analysis.* and summary_cache.* counters to stderr, "
        "plus this request's reanalyzed-function delta",
    )
    analyze.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cache location for compiled rules and function "
        "summaries (default: $REPRO_CACHE_DIR, else "
        "~/.cache/cognicrypt-gen)",
    )
    analyze.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent compiled-rule and summary caches",
    )
    analyze.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted finding fingerprints: findings in "
        "the baseline pass, new findings exit 2",
    )
    analyze.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline FILE from the current findings and exit 0",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    listing = sub.add_parser("list-use-cases", help="show Table 1's use cases")
    listing.set_defaults(handler=_cmd_list_use_cases)

    ucase = sub.add_parser("use-case", help="generate one of the 11 use cases")
    ucase.add_argument("number", type=int, help="use case number (1-11)")
    ucase.add_argument("-o", "--output", default=".", help="output directory")
    ucase.set_defaults(handler=_cmd_use_case)

    rules = sub.add_parser("check-rules", help="parse and check a rule set")
    rules.add_argument("directory", nargs="?", help="directory of .crysl files")
    rules.set_defaults(handler=_cmd_check_rules)

    lint = sub.add_parser(
        "lint-rules",
        help="cross-rule consistency warnings for a rule set",
        epilog="exit codes: 0 = consistent; 3 = warnings present; "
        "1 = rule set failed to parse",
    )
    lint.add_argument("directory", nargs="?", help="directory of .crysl files")
    lint.add_argument(
        "--json", action="store_true", help="machine-readable warnings"
    )
    lint.set_defaults(handler=_cmd_lint_rules)

    evaluate = sub.add_parser("eval", help="regenerate the paper's tables")
    evaluate.add_argument("what", choices=("table1", "table2", "rq5", "all"))
    evaluate.add_argument("--runs", type=int, default=10, help="RQ2 timing runs")
    evaluate.set_defaults(handler=_cmd_eval)

    serve = sub.add_parser(
        "serve",
        help="run a resident engine speaking newline-delimited JSON",
        description="Keep one warm engine resident and serve generate/"
        "analyze/refresh-rules requests over stdio (default) or a Unix "
        "socket. One JSON object per line in, one per line out, "
        "correlated by 'id'. The socket transport serves many clients "
        "concurrently over a shared worker pool (--serve-workers). "
        "Malformed requests get a structured error response; SIGTERM "
        "drains in-flight requests and exits.",
    )
    serve.add_argument("--rules", help="directory of .crysl rules (enables "
                       "the incremental refresh-rules op)")
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent compiled-rule cache location "
        "(default: $REPRO_CACHE_DIR, else ~/.cache/cognicrypt-gen)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent compiled-rule cache",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a Unix domain socket instead of stdio",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; an overdue request gets a structured "
        "timeout response while the server keeps serving",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=None,
        metavar="N",
        help="shared worker-pool width for concurrent requests "
        "(default: the machine's CPU count)",
    )
    serve.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="re-analyze every generated module before returning it",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="bound the heavy-request queue server-wide; overflow is "
        "rejected immediately with a retryable OverloadedError response "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--max-pending-per-conn",
        type=int,
        default=None,
        metavar="N",
        help="bound the heavy-request queue per connection (default: "
        "unbounded)",
    )
    serve.add_argument(
        "--max-tasks-per-worker",
        type=int,
        default=None,
        metavar="N",
        help="recycle generation worker processes after this many tasks "
        "each (default: never)",
    )
    serve.add_argument(
        "--worker-memory-mb",
        type=int,
        default=None,
        metavar="MB",
        help="recycle the generation worker pool when a worker's peak "
        "RSS crosses this many MiB (default: never)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help="consecutive failures on one input before its circuit "
        "breaker opens (default: 5)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds an open circuit breaker waits before its half-open "
        "probe (default: 30)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (_CLIError, ValueError) as exc:
        # ValueError covers bad configuration values (e.g. a fault spec).
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
