"""The CogniCryptGEN pipeline: template in, secure module out.

This is the orchestrator of the paper's Figure 6. For every fluent
chain in the template it

1. collects the considered rules and template bindings (template.py),
2. links rules through ENSURES/REQUIRES predicates (predicates/),
3. selects call paths from the rules' ORDER automata (selector.py),
4. resolves every parameter through the heuristic cascade (selector.py
   + constraints/),
5. emits the code into the template method and appends the showcase
   ``template_usage`` method in a separate output class (emitter.py).

The result is guaranteed to parse (it is spliced as ASTs), to compile
(``compile()`` runs before the module is handed back), and to respect
the CrySL rules (the plan was derived from them; ``repro.sast`` can
re-verify independently).
"""

from __future__ import annotations

import ast as pyast
import copy
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..crysl.ruleset import RuleSet
from ..diagnostics import CHAINS, Diagnostics
from ..predicates.linker import compute_links
from ..pysource import parse
from .context import GenerationContext
from .emitter import ChainEmitter, EmittedChain, PushedParameter
from .naming import NameAllocator
from .selector import ChainPlan, GenerationError, select
from .template import (
    TemplateMethod,
    TemplateModel,
    parse_template_file,
    parse_template_source,
)

_HEADER = (
    "Generated by CogniCryptGEN (Python reproduction) — DO NOT EDIT.\n\n"
    "This module was produced from the code template {template!r} and the\n"
    "CrySL rules it considers; the security-sensitive statements come from\n"
    "the rules, not the template (see the paper, section 3.3)."
)


class VerificationError(GenerationError):
    """Generated code failed the generate→verify gate.

    Raised when ``verify=True`` and the whole-project analyzer reports
    findings on the emitted module — the paper's RQ1 validity check
    turned into a hard gate. ``findings`` carries the structured
    :class:`~repro.sast.report.Finding` list; ``module`` the (rejected)
    generated module, for forensics.
    """

    def __init__(self, template: str, module: "GeneratedModule", findings: list):
        self.template = template
        self.module = module
        self.findings = findings
        details = "; ".join(str(f) for f in findings[:5])
        if len(findings) > 5:
            details += f"; ... ({len(findings) - 5} more)"
        super().__init__(
            f"{template}: generated code failed verification with "
            f"{len(findings)} finding(s): {details}"
        )


@dataclass
class ChainReport:
    """Per-chain artefacts, exposed for tests, docs and benchmarks."""

    method_name: str
    plan: ChainPlan
    emitted: EmittedChain


@dataclass
class GeneratedModule:
    """The output of one generation run."""

    source: str
    template_class: str
    output_class: str
    reports: list[ChainReport] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: per-run diagnostics: stage timings, counters, warnings
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def compile_check(self) -> None:
        """Assert the module byte-compiles (cheap and side-effect free)."""
        compile(self.source, "<generated>", "exec")

    def report_dict(self) -> dict:
        """A JSON-serialisable account of the run (CLI ``--stats``,
        eval harness, CI artefacts)."""
        return {
            "template_class": self.template_class,
            "output_class": self.output_class,
            "chains": [
                {
                    "method": report.method_name,
                    "instances": len(report.plan.instances),
                    "statements": len(report.emitted.statements)
                    + len(report.emitted.deferred_statements),
                    "pushed_parameters": [
                        p.name for p in report.emitted.pushed_parameters
                    ],
                }
                for report in self.reports
            ],
            "elapsed_seconds": self.elapsed_seconds,
            "diagnostics": self.diagnostics.to_dict(),
        }


class CrySLBasedCodeGenerator:
    """The public entry point (JCA analogue: the Eclipse plugin's core).

    All state a run needs lives in one :class:`GenerationContext`:
    the rule set with its compiled-rule cache, the type registry, and
    cumulative diagnostics. Pass an explicit ``context`` to share warm
    caches across generators (e.g. with a
    :class:`~repro.sast.analysis.RuleSetAnalyzer` or the eval harness);
    otherwise one is created from ``ruleset``.
    """

    def __init__(
        self,
        ruleset: RuleSet | None = None,
        *,
        context: GenerationContext | None = None,
        verify: bool = False,
    ):
        if context is not None:
            if ruleset is not None and ruleset is not context.ruleset:
                raise ValueError(
                    "pass either a ruleset or a context, not conflicting both"
                )
            self._context = context
        else:
            self._context = GenerationContext(ruleset=ruleset)
        self._ruleset = self._context.ruleset
        self._verify = verify
        self._verifier = None  # lazy ProjectAnalyzer sharing our rule set

    @property
    def ruleset(self) -> RuleSet:
        return self._ruleset

    @property
    def context(self) -> GenerationContext:
        return self._context

    @property
    def verify(self) -> bool:
        """Whether the generate→verify gate runs by default."""
        return self._verify

    # ------------------------------------------------------------------

    def generate_from_file(
        self, template_path: str | Path, *, verify: bool | None = None
    ) -> GeneratedModule:
        """Generate from a template file on disk."""
        return self.generate(parse_template_file(template_path), verify=verify)

    def generate_from_source(
        self, source: str, name: str = "<template>", *, verify: bool | None = None
    ) -> GeneratedModule:
        """Generate from template source text."""
        return self.generate(parse_template_source(source, name), verify=verify)

    def generate(
        self, model: TemplateModel, *, verify: bool | None = None
    ) -> GeneratedModule:
        """Run the full pipeline on a parsed template.

        The five stages of Figure 6 — collect, link, select, resolve,
        emit — run under one :meth:`GenerationContext.run` scope; the
        returned module carries the run's private diagnostics.

        With ``verify`` (per-call override of the constructor default),
        a sixth *verify* stage re-analyzes the emitted module with the
        whole-project analyzer (:class:`~repro.sast.ProjectAnalyzer`)
        and raises :class:`VerificationError` on any finding.
        """
        with self._context.run() as diag:
            generated = self._generate(model, diag)
            if self._verify if verify is None else verify:
                with diag.stage("verify"):
                    self._run_verify_gate(model, generated)
            return generated

    def _run_verify_gate(
        self, model: TemplateModel, generated: GeneratedModule
    ) -> None:
        if self._verifier is None:
            from ..sast import ProjectAnalyzer

            # Shares our rule set, so every compiled artefact (DFAs,
            # signature tables) is reused, not rebuilt.
            self._verifier = ProjectAnalyzer(
                self._ruleset, self._context.registry
            )
        key = f"{Path(str(model.path)).stem or 'generated'}.py"
        result = self._verifier.analyze_sources({key: generated.source})
        if not result.is_secure:
            raise VerificationError(str(model.path), generated, result.findings)

    # ------------------------------------------------------------------

    def _generate(self, model: TemplateModel, diag: Diagnostics) -> GeneratedModule:
        started = time.perf_counter()
        template_class = model.primary_class
        reports: list[ChainReport] = []
        module = copy.deepcopy(model.module)
        target_class = _find_class(module, template_class.name)
        all_imports: set[tuple[str, str]] = set()

        for method in template_class.methods:
            if not method.has_chain:
                continue
            assert method.chain is not None
            diag.count(CHAINS)
            with diag.stage("collect"):
                instances = method.chain.to_instances(self._ruleset)
            with diag.stage("link"):
                links = compute_links(instances, context=self._context)
            plan = select(
                instances,
                self._context.registry,
                context=self._context,
                diagnostics=diag,
                links=links,
            )
            with diag.stage("emit"):
                reserved = _visible_names(method)
                emitted = ChainEmitter(plan, reserved, diagnostics=diag).emit()
                all_imports.update(emitted.imports)
                _rewrite_method(target_class, method, emitted)
            reports.append(ChainReport(method.name, plan, emitted))

        if not reports:
            raise GenerationError(
                f"{model.path}: template contains no fluent chains"
            )

        with diag.stage("emit"):
            output_class_name = f"Output{template_class.name}"
            usage = _build_template_usage(
                template_class.name, output_class_name, reports,
                template_class.methods,
            )
            module.body.append(usage)
            _strip_fluent_import(module)
            _inject_imports(module, all_imports)
            _set_module_docstring(module, _HEADER.format(template=model.path))
            pyast.fix_missing_locations(module)
            source = pyast.unparse(module)
        generated = GeneratedModule(
            source=source,
            template_class=template_class.name,
            output_class=output_class_name,
            reports=reports,
            elapsed_seconds=time.perf_counter() - started,
            diagnostics=diag,
        )
        generated.compile_check()
        return generated


# ---------------------------------------------------------------------------
# AST surgery
# ---------------------------------------------------------------------------


def _find_class(module: pyast.Module, name: str) -> pyast.ClassDef:
    for node in module.body:
        if isinstance(node, pyast.ClassDef) and node.name == name:
            return node
    raise GenerationError(f"template class {name!r} vanished during rewriting")


def _find_method(cls: pyast.ClassDef, name: str) -> pyast.FunctionDef:
    for node in cls.body:
        if isinstance(node, pyast.FunctionDef) and node.name == name:
            return node
    raise GenerationError(f"template method {name!r} vanished during rewriting")


def _visible_names(method: TemplateMethod) -> set[str]:
    names = set(method.params)
    names.update(method.facts)
    return names


def _parse_statements(lines: list[str]) -> list[pyast.stmt]:
    return parse("\n".join(lines)).body if lines else []


def _rewrite_method(
    cls: pyast.ClassDef, method: TemplateMethod, emitted: EmittedChain
) -> None:
    function = _find_method(cls, method.name)
    assert method.chain_statement_index is not None
    body = list(function.body)
    index = method.chain_statement_index
    body[index : index + 1] = _parse_statements(emitted.statements)
    if emitted.deferred_statements:
        deferred = _parse_statements(emitted.deferred_statements)
        if body and isinstance(body[-1], pyast.Return):
            body[-1:-1] = deferred
        else:
            body.extend(deferred)
    function.body = body
    # Pushed-up parameters carry no default, so they must land *before*
    # any defaulted tail: ``defaults`` aligns to the end of ``args``, and
    # appending a bare arg after it would silently shift every default
    # onto the wrong parameter (or make the signature invalid).
    insert_at = len(function.args.args) - len(function.args.defaults)
    for pushed in emitted.pushed_parameters:
        annotation = (
            pyast.Name(id=pushed.type_name, ctx=pyast.Load())
            if pushed.type_name
            else None
        )
        function.args.args.insert(
            insert_at, pyast.arg(arg=pushed.name, annotation=annotation)
        )
        insert_at += 1


def _strip_fluent_import(module: pyast.Module) -> None:
    kept: list[pyast.stmt] = []
    for node in module.body:
        if isinstance(node, pyast.ImportFrom) and node.module and (
            node.module == "repro.codegen.fluent"
            or node.module.endswith(".fluent")
            or node.module == "repro.codegen"
        ):
            if all(alias.name == "CrySLCodeGenerator" for alias in node.names):
                continue
        kept.append(node)
    module.body = kept


def _inject_imports(module: pyast.Module, imports: set[tuple[str, str]]) -> None:
    if not imports:
        return
    by_module: dict[str, list[str]] = {}
    for module_name, symbol in imports:
        by_module.setdefault(module_name, []).append(symbol)
    existing: set[tuple[str, str]] = set()
    for node in module.body:
        if isinstance(node, pyast.ImportFrom) and node.module:
            for alias in node.names:
                existing.add((node.module, alias.name))
    new_nodes: list[pyast.stmt] = []
    for module_name in sorted(by_module):
        symbols = sorted(
            s for s in set(by_module[module_name]) if (module_name, s) not in existing
        )
        if symbols:
            new_nodes.append(
                pyast.ImportFrom(
                    module=module_name,
                    names=[pyast.alias(name=s) for s in symbols],
                    level=0,
                )
            )
    insert_at = 0
    if module.body and isinstance(module.body[0], pyast.Expr) and isinstance(
        module.body[0].value, pyast.Constant
    ):
        insert_at = 1
    module.body[insert_at:insert_at] = new_nodes


def _set_module_docstring(module: pyast.Module, text: str) -> None:
    docstring = pyast.Expr(value=pyast.Constant(value=text))
    if module.body and isinstance(module.body[0], pyast.Expr) and isinstance(
        module.body[0].value, pyast.Constant
    ):
        module.body[0] = docstring
    else:
        module.body.insert(0, docstring)


# ---------------------------------------------------------------------------
# the showcase method (paper §3.3, last paragraph)
# ---------------------------------------------------------------------------


def _build_template_usage(
    template_class: str,
    output_class: str,
    reports: list[ChainReport],
    methods: list[TemplateMethod],
) -> pyast.ClassDef:
    """Create ``Output<Template>`` with a ``template_usage`` method that
    instantiates the template class and calls every chain method,
    type/name-matching parameters to earlier results and pushing
    unmatched ones up into ``template_usage``'s own signature."""
    names = NameAllocator({"self"})
    instance_var = names.fresh(_snake(template_class))
    lines = [f"{instance_var} = {template_class}()"]
    usage_params: list[tuple[str, str | None]] = []
    #: available result variables: name -> type name (may be None)
    available: dict[str, str | None] = {}

    reports_by_method = {report.method_name: report for report in reports}
    #: parameters already pushed into template_usage's signature; a later
    #: method's same-named parameter reuses them (the pwd/message case).
    pushed_usage: set[str] = set()
    for method in methods:
        if not method.has_chain:
            continue  # internal helper methods are not showcased
        report = reports_by_method[method.name]
        call_args: list[str] = []
        pushed_names = {p.name: p for p in report.emitted.pushed_parameters}
        annotations = _annotations_of(method)
        # Positional call order must mirror the rewritten signature:
        # _rewrite_method inserts pushed-up parameters *before* the
        # method's defaulted tail.
        defaults_count = len(method.node.args.defaults)
        cut = len(method.params) - defaults_count
        ordered_params = (
            list(method.params[:cut])
            + [p.name for p in report.emitted.pushed_parameters]
            + list(method.params[cut:])
        )
        for param in ordered_params:
            annotation = annotations.get(param) or (
                pushed_names[param].type_name if param in pushed_names else None
            )
            if param in pushed_usage:
                call_args.append(param)
                continue
            matched = _match_parameter(param, annotation, available)
            if matched is not None:
                call_args.append(matched)
                continue
            fresh = names.fresh(param)
            usage_params.append((fresh, annotation))
            pushed_usage.add(fresh)
            call_args.append(fresh)
        result_var = _chain_result_name(report, names)
        prefix = f"{result_var} = " if result_var else ""
        lines.append(
            f"{prefix}{instance_var}.{method.name}({', '.join(call_args)})"
        )
        if result_var:
            available[result_var] = _chain_result_type(report)

    if available:
        lines.append(f"return {next(reversed(available))}")
    body_source = "\n".join(lines)
    args = [pyast.arg(arg="self")]
    for name, annotation in usage_params:
        node_annotation = (
            pyast.Name(id=annotation, ctx=pyast.Load())
            if annotation and annotation.isidentifier()
            else None
        )
        args.append(pyast.arg(arg=name, annotation=node_annotation))
    function = pyast.FunctionDef(
        name="template_usage",
        args=pyast.arguments(
            posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[], defaults=[]
        ),
        body=(
            [
                pyast.Expr(
                    value=pyast.Constant(
                        value="Showcases the generated API (auto-generated)."
                    )
                )
            ]
            + parse(body_source).body
        ),
        decorator_list=[],
    )
    return pyast.ClassDef(
        name=output_class,
        bases=[],
        keywords=[],
        body=[function],
        decorator_list=[],
    )


def _annotations_of(method: TemplateMethod) -> dict[str, str | None]:
    out: dict[str, str | None] = {}
    for arg in method.node.args.args:
        if arg.arg in ("self", "cls"):
            continue
        out[arg.arg] = pyast.unparse(arg.annotation) if arg.annotation else None
    return out


def _match_parameter(
    param: str, annotation: str | None, available: dict[str, str | None]
) -> str | None:
    """Name match first, then unique type match (paper §3.3)."""
    if param in available:
        return param
    if annotation:
        candidates = [
            var
            for var, type_name in available.items()
            if type_name is not None
            and (
                type_name == annotation
                or type_name.rsplit(".", 1)[-1] == annotation
            )
        ]
        if len(candidates) == 1:
            return candidates[0]
    return None


def _chain_result_name(report: ChainReport, names: NameAllocator) -> str | None:
    for plan in report.plan.instances:
        if plan.instance.return_target:
            return names.fresh(plan.instance.return_target)
    return names.fresh(f"{report.method_name}_result")


def _chain_result_type(report: ChainReport) -> str | None:
    for plan in report.plan.instances:
        target = plan.instance.return_target
        if target:
            return report.emitted.result_types.get(target)
    return None


def _snake(name: str) -> str:
    out: list[str] = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)
