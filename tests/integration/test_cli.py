"""The cognicrypt-gen command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.usecases import use_case


@pytest.fixture(autouse=True)
def _hermetic_cache(tmp_path_factory, monkeypatch):
    """Keep the CLI's default persistent cache out of the real home."""
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cli-cache"))
    )


def test_cli_import_does_not_load_networkx():
    """A fresh interpreter importing the CLI pulls in no graph library:
    every start of ``cognicrypt-gen`` would pay for the import."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro.cli; print('networkx' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_serve_stdin_compiles_once_and_reports_latency(tmp_path):
    """Three pipelined generates on stdin to one ``serve`` process: every
    response reports its latency, and the rules compile exactly once."""
    import json

    from repro.crysl import RuleSet
    from repro.engine import CryptoGenEngine, GenerateRequest

    template = str(use_case(1).template_path())
    requests = [
        {"id": n, "op": "generate", "template": template} for n in (1, 2, 3)
    ] + [{"id": 4, "op": "shutdown"}]
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--no-cache"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    responses = [json.loads(line) for line in done.stdout.splitlines()]
    generates = [r for r in responses if r.get("op") == "generate"]
    (tmp_path / "serve-traces.json").write_text(
        json.dumps({r["id"]: r.get("trace") for r in generates}, indent=2)
    )
    assert len(generates) == 3, responses
    assert all(r["ok"] for r in generates)
    assert all(r["elapsed_ms"] > 0 for r in generates)
    # Pipelined requests run concurrently and each rule's single-flight
    # build is billed to whichever request won it: the builds may be
    # split across requests, but they sum to one cold compile.
    with CryptoGenEngine(ruleset=RuleSet.bundled()) as cold:
        one_compile = cold.generate(GenerateRequest(template=template))
    assert sum(r["dfa_builds"] for r in generates) == one_compile.dfa_builds > 0
    assert all(r["warm"] == (r["dfa_builds"] == 0) for r in generates)


def test_list_use_cases(capsys):
    assert main(["list-use-cases"]) == 0
    out = capsys.readouterr().out
    assert "PBE on Files" in out
    assert "Hashing of Strings" in out


def test_generate(tmp_path, capsys):
    template = use_case(11).template_path()
    assert main(["generate", str(template), "-o", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "generated" in out
    generated = tmp_path / "string_hashing_generated.py"
    assert generated.exists()
    assert "MessageDigest" in generated.read_text()


def test_generate_bad_template(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("class Empty:\n    pass\n")
    assert main(["generate", str(bad), "-o", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_generate_with_stats(tmp_path, capsys):
    template = use_case(11).template_path()
    assert main(["generate", str(template), "-o", str(tmp_path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "pipeline stages:" in out
    assert "collect" in out and "resolve" in out and "emit" in out
    assert "parameter cascade" in out
    assert "compiled_rules" in out


def test_generate_multiple_templates_share_one_context(tmp_path, capsys):
    first = use_case(11).template_path()
    second = use_case(1).template_path()
    assert (
        main(
            [
                "generate", str(first), str(second),
                "-o", str(tmp_path), "--stats",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("generated ") == 2
    assert (tmp_path / "string_hashing_generated.py").exists()
    assert "cumulative over all templates:" in out


def test_generate_keeps_going_after_bad_template(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("class Empty:\n    pass\n")
    good = use_case(11).template_path()
    assert main(["generate", str(bad), str(good), "-o", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert (tmp_path / "string_hashing_generated.py").exists()


def test_generate_no_cache(tmp_path, capsys):
    template = use_case(11).template_path()
    assert (
        main(["generate", str(template), "-o", str(tmp_path), "--no-cache"])
        == 0
    )
    assert (tmp_path / "string_hashing_generated.py").exists()


def test_generate_cache_dir_persists_artefacts(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    template = use_case(11).template_path()
    args = [
        "generate", str(template),
        "-o", str(tmp_path), "--cache-dir", str(cache_dir),
    ]
    assert main(args) == 0
    entries = list(cache_dir.glob("*.artefacts.pkl"))
    assert entries, "no artefacts were persisted"
    # Second (fresh-process equivalent) run: stats report disk hits and
    # zero DFA builds — everything loads from the store.
    assert main(args + ["--stats"]) == 0
    out = capsys.readouterr().out
    assert "disk_cache.hits" in out


def test_generate_unusable_cache_dir_is_a_clean_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    template = use_case(11).template_path()
    assert (
        main(
            [
                "generate", str(template),
                "-o", str(tmp_path), "--cache-dir", str(blocker / "cache"),
            ]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "error: --cache-dir" in err
    assert "Traceback" not in err


def test_generate_jobs_parallel(tmp_path, capsys):
    first = use_case(11).template_path()
    second = use_case(1).template_path()
    assert (
        main(
            [
                "generate", str(first), str(second),
                "-o", str(tmp_path), "--jobs", "2", "--no-cache",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("generated ") == 2
    assert (tmp_path / "string_hashing_generated.py").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_generate_counts_every_compile_at_any_jobs(tmp_path, capsys, jobs):
    """Every DFA build follows a compiled-rule miss, serial or not: the
    rules a pool worker compiles while it warms up are counted too."""
    import json

    templates = [str(use_case(n).template_path()) for n in (1, 11, 4)]
    args = [
        "generate", *templates, "-o", str(tmp_path / "out"),
        "--jobs", jobs, "--cache-dir", str(tmp_path / "cache"), "--json",
    ]
    assert main(args) == 0
    counters = json.loads(capsys.readouterr().out)["diagnostics"]["counters"]
    assert counters["dfa.builds"] > 0
    assert counters["compiled_rules.misses"] >= counters["dfa.builds"]


def test_generate_jobs_keeps_going_after_bad_template(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("class Empty:\n    pass\n")
    good = use_case(11).template_path()
    assert (
        main(
            [
                "generate", str(bad), str(good),
                "-o", str(tmp_path), "--jobs", "2", "--no-cache",
            ]
        )
        == 1
    )
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert (tmp_path / "string_hashing_generated.py").exists()


def test_generate_bad_jobs_value(tmp_path, capsys):
    template = use_case(11).template_path()
    assert (
        main(["generate", str(template), "-o", str(tmp_path), "--jobs", "0"])
        == 1
    )
    assert "error" in capsys.readouterr().err


def test_use_case_command(tmp_path, capsys):
    assert main(["use-case", "11", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "string_hashing.py").exists()


def test_analyze_clean(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('SHA-256')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(clean)]) == 0
    assert "no misuses" in capsys.readouterr().out


def test_analyze_insecure(tmp_path, capsys):
    insecure = tmp_path / "bad.py"
    insecure.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('MD5')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(insecure)]) == 2
    assert "constraint" in capsys.readouterr().out


def test_check_rules_bundled(capsys):
    assert main(["check-rules"]) == 0
    out = capsys.readouterr().out
    assert "repro.jca.Cipher" in out
    assert "15 rules OK" in out


def test_check_rules_custom_directory(tmp_path, capsys):
    (tmp_path / "T.crysl").write_text("SPEC x.T\nEVENTS\n e: m();\nORDER\n e")
    assert main(["check-rules", str(tmp_path)]) == 0
    assert "1 rules OK" in capsys.readouterr().out


def test_check_rules_broken(tmp_path, capsys):
    (tmp_path / "T.crysl").write_text("NOT A RULE")
    assert main(["check-rules", str(tmp_path)]) == 1


def test_eval_rq5(capsys):
    assert main(["eval", "rq5"]) == 0
    assert "SUS gen" in capsys.readouterr().out


def test_eval_table2(capsys):
    assert main(["eval", "table2"]) == 0
    assert "maintenance ratio" in capsys.readouterr().out


def test_analyze_json_output(tmp_path, capsys):
    import json

    insecure = tmp_path / "bad.py"
    insecure.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('MD5')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(insecure), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    (entry,) = report.values()
    assert entry["secure"] is False
    assert entry["findings"][0]["kind"] == "constraint-violation"
    assert entry["findings"][0]["rule"] == "repro.jca.MessageDigest"


def test_analyze_directory_recurses(tmp_path, capsys):
    package = tmp_path / "proj" / "inner"
    package.mkdir(parents=True)
    (tmp_path / "proj" / "clean.py").write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('SHA-256')\n"
        "    digest = md.digest(b'x')\n"
    )
    (package / "bad.py").write_text(
        "from repro.jca import MessageDigest\n"
        "def g():\n"
        "    md = MessageDigest.get_instance('MD5')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(tmp_path / "proj")]) == 2
    out = capsys.readouterr().out
    assert "clean.py" in out
    assert "bad.py" in out


def test_analyze_cross_file_project(tmp_path, capsys):
    """Two modules, the misuse only visible interprocedurally."""
    (tmp_path / "wrapper.py").write_text(
        "from repro.jca import Cipher\n"
        "class Factory:\n"
        "    def make(self, key):\n"
        "        c = Cipher.get_instance('AES/GCM/NoPadding')\n"
        "        c.init(1, key)\n"
        "        return c\n"
    )
    (tmp_path / "usage.py").write_text(
        "from wrapper import Factory\n"
        "class App:\n"
        "    def template_usage(self, key):\n"
        "        cipher = Factory().make(key)\n"
    )
    assert main(["analyze", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "incomplete-operation" in out
    assert "make" in out


def test_analyze_sarif_output(tmp_path, capsys):
    import json

    insecure = tmp_path / "bad.py"
    insecure.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('MD5')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(insecure), "--sarif"]) == 2
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "cognicrypt-gen"
    (result,) = [
        r for r in run["results"] if r["ruleId"] == "constraint-violation"
    ]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1


def test_analyze_sarif_and_json_conflict(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("def f():\n    pass\n")
    assert main(["analyze", str(target), "--sarif", "--json"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--jobs", "2"], ["--bogus", "x"]], ids=["jobs", "bogus"]
)
def test_analyze_usage_error_exits_1_not_2(tmp_path, capsys, flags):
    """A bad flag is a usage error (1); 2 would read as "findings" to a
    CI gate. ``analyze`` has no ``--jobs``: it runs one serial pass."""
    target = tmp_path / "x.py"
    target.write_text("def f():\n    pass\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *flags, str(target)])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_help_lists_no_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--jobs" not in capsys.readouterr().out


def test_analyze_empty_directory_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", str(empty)]) == 1
    assert "no Python files" in capsys.readouterr().err


def test_analyze_stats_on_stderr(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('SHA-256')\n"
        "    digest = md.digest(b'x')\n"
    )
    assert main(["analyze", str(clean), "--stats", "--json"]) == 0
    captured = capsys.readouterr()
    import json

    json.loads(captured.out)  # stdout stays pure JSON
    assert "analysis.modules" in captured.err


INSECURE_MD5 = (
    "from repro.jca import MessageDigest\n"
    "def f():\n"
    "    md = MessageDigest.get_instance('MD5')\n"
    "    digest = md.digest(b'x')\n"
)


def test_analyze_update_baseline_then_gate(tmp_path, capsys):
    insecure = tmp_path / "bad.py"
    insecure.write_text(INSECURE_MD5)
    baseline = tmp_path / "baseline.json"

    # Recording the baseline succeeds even though findings exist.
    assert (
        main(
            [
                "analyze", str(insecure),
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        == 0
    )
    assert baseline.exists()
    assert "baseline" in capsys.readouterr().err

    # Same findings against the baseline: gate passes.
    assert main(["analyze", str(insecure), "--baseline", str(baseline)]) == 0
    assert "0 new" in capsys.readouterr().err


def test_analyze_baseline_fails_on_new_findings(tmp_path, capsys):
    insecure = tmp_path / "bad.py"
    insecure.write_text(INSECURE_MD5)
    baseline = tmp_path / "baseline.json"
    assert (
        main(
            [
                "analyze", str(insecure),
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        == 0
    )
    capsys.readouterr()

    # A fresh misuse appears: only the new finding trips the gate.
    insecure.write_text(
        INSECURE_MD5
        + "def g():\n"
        "    md = MessageDigest.get_instance('SHA-1')\n"
        "    digest = md.digest(b'y')\n"
    )
    assert main(["analyze", str(insecure), "--baseline", str(baseline)]) == 2
    err = capsys.readouterr().err
    assert "1 new" in err and "1 baselined" in err


def test_analyze_baseline_rejects_garbage_file(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text(INSECURE_MD5)
    baseline = tmp_path / "baseline.json"
    baseline.write_text("not json at all")
    assert main(["analyze", str(target), "--baseline", str(baseline)]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_update_baseline_requires_baseline_path(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("def f():\n    pass\n")
    assert main(["analyze", str(target), "--update-baseline"]) == 1
    assert "--baseline" in capsys.readouterr().err


def test_analyze_inline_suppressions_pass_the_gate(tmp_path, capsys):
    marked = tmp_path / "marked.py"
    marked.write_text(
        INSECURE_MD5.replace(
            "get_instance('MD5')",
            "get_instance('MD5')  # crysl: ignore",
        )
    )
    assert main(["analyze", str(marked)]) == 0
    assert "suppressed" in capsys.readouterr().out


def test_analyze_stats_report_reanalyzed_delta(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('SHA-256')\n"
        "    digest = md.digest(b'x')\n"
    )
    cache = tmp_path / "cache"
    args = [
        "analyze", str(clean),
        "--cache-dir", str(cache), "--stats", "--json",
    ]
    assert main(args) == 0
    cold = capsys.readouterr().err
    assert "reanalyzed 1 of 1 function(s)" in cold

    # A second process over the same cache replays the stored summary.
    assert main(args) == 0
    warm = capsys.readouterr().err
    assert "reanalyzed 0 of 1 function(s)" in warm
    assert "1 from summary cache" in warm


def test_analyze_cache_dir_persists_compiled_rules(tmp_path, capsys):
    """The rules an analysis compiles are written to --cache-dir when
    the run ends, so a second run builds no DFA."""
    clean = tmp_path / "clean.py"
    clean.write_text(
        "from repro.jca import MessageDigest\n"
        "def f():\n"
        "    md = MessageDigest.get_instance('SHA-256')\n"
        "    digest = md.digest(b'x')\n"
    )
    cache = tmp_path / "cache"
    args = ["analyze", str(clean), "--cache-dir", str(cache), "--stats"]
    assert main(args) == 0
    assert " 0 DFA builds" not in capsys.readouterr().err
    assert list(cache.glob("*.artefacts.pkl")), "no rules were persisted"

    assert main(args) == 0
    assert "from summary cache, 0 DFA builds" in capsys.readouterr().err


def test_analyze_no_cache_disables_persistence(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    pass\n")
    assert main(["analyze", str(clean), "--no-cache"]) == 0


def test_generate_verify_gate_passes_for_use_case(tmp_path, capsys):
    template = use_case(11).template_path()
    assert (
        main(
            [
                "generate", str(template),
                "-o", str(tmp_path), "--verify", "--no-cache",
            ]
        )
        == 0
    )
    assert (tmp_path / "string_hashing_generated.py").exists()


def test_lint_rules_exit_codes(tmp_path, capsys):
    # The bundled set intentionally grants predicates nothing consumes
    # (external consumers), so warnings are present -> exit 3.
    assert main(["lint-rules"]) == 3
    assert "warning" in capsys.readouterr().out
    # A tiny self-consistent set is clean -> exit 0.
    (tmp_path / "T.crysl").write_text("SPEC x.T\nEVENTS\n e: m();\nORDER\n e")
    assert main(["lint-rules", str(tmp_path)]) == 0
    assert "consistent" in capsys.readouterr().out


def test_lint_rules_json(capsys):
    import json

    assert main(["lint-rules", "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is False
    assert report["warnings"]
    assert {"kind", "rule", "message"} <= set(report["warnings"][0])
