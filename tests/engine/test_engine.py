"""The resident :class:`CryptoGenEngine` facade."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.diagnostics import DFA_BUILDS, SUMMARY_INVALIDATIONS
from repro.engine import (
    AnalyzeRequest,
    CryptoGenEngine,
    EngineRequestError,
    GenerateRequest,
)
from repro.usecases import use_case

TEMPLATE = str(use_case(1).template_path())


@pytest.fixture(scope="module")
def engine():
    eng = CryptoGenEngine()
    yield eng
    eng.close()


class TestGenerate:
    def test_cold_then_warm(self, engine):
        first = engine.generate(GenerateRequest(template=TEMPLATE))
        assert first.ok and first.module is not None
        second = engine.generate(GenerateRequest(template=TEMPLATE))
        assert second.ok
        # Everything the template needs was compiled by the first
        # request; the second is entirely warm — in fact the whole
        # result comes out of the engine's memoized result cache.
        assert second.dfa_builds == 0
        assert second.warm
        assert second.cached
        assert second.module is first.module  # shared memoized module

    def test_hundred_requests_one_compile(self):
        # The acceptance bar: a resident engine serves 100 sequential
        # requests with exactly one ruleset compile — dfa.builds is
        # flat after request 1. A private cold ruleset keeps the test
        # hermetic (the shared bundled singleton may already be warm).
        from repro.crysl import RuleSet

        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        results = [
            engine.generate(GenerateRequest(template=TEMPLATE))
            for _ in range(100)
        ]
        assert all(r.ok for r in results)
        after_first = results[0].dfa_builds
        assert after_first > 0  # the one cold compile
        assert all(r.dfa_builds == 0 for r in results[1:])
        assert engine.ruleset.diagnostics.counter(DFA_BUILDS) == after_first
        assert engine.requests == 100
        engine.close()

    def test_resident_engine_beats_cold_starts(self):
        """Ten requests through one resident engine versus ten fresh
        engines (the one-shot CLI shape, one private rule set each)."""
        import time

        from repro.crysl import RuleSet

        requests = 10
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        assert engine.generate(GenerateRequest(template=TEMPLATE)).ok

        started = time.perf_counter()
        resident = [
            engine.generate(GenerateRequest(template=TEMPLATE))
            for _ in range(requests)
        ]
        resident_s = time.perf_counter() - started
        engine.close()

        started = time.perf_counter()
        cold = []
        for _ in range(requests):
            with CryptoGenEngine(ruleset=RuleSet.bundled()) as fresh:
                cold.append(fresh.generate(GenerateRequest(template=TEMPLATE)))
        cold_s = time.perf_counter() - started

        assert all(r.ok for r in resident + cold)
        # Resident means warm; every cold start re-pays the compile.
        assert all(r.dfa_builds == 0 for r in resident)
        assert all(r.dfa_builds > 0 for r in cold)
        assert cold_s / resident_s > 1.0

    def test_inline_source(self, engine):
        source = Path(TEMPLATE).read_text(encoding="utf-8")
        result = engine.generate(
            GenerateRequest(source=source, name="inline.py")
        )
        assert result.ok
        assert result.module.template_class == use_case(1).template_class

    def test_empty_request_is_structured_error(self, engine):
        result = engine.generate(GenerateRequest())
        assert not result.ok
        assert result.error.type == "EngineRequestError"

    def test_missing_template_is_structured_error(self, engine):
        result = engine.generate(
            GenerateRequest(template="/nonexistent/tpl.py")
        )
        assert not result.ok
        assert result.error.type in ("FileNotFoundError", "OSError")

    def test_request_ids_and_trace(self, engine):
        # A never-seen-before source keeps the result cache out of the
        # way: this test is about the full pipeline's span tree.
        source = (
            Path(TEMPLATE).read_text(encoding="utf-8") + "\n# trace probe\n"
        )
        result = engine.generate(
            GenerateRequest(source=source, name="trace_probe.py")
        )
        assert result.request_id.startswith("req-")
        tree = result.trace.to_dict()
        assert tree["request_id"] == result.request_id
        names = [span["name"] for span in tree["spans"]]
        assert names[0] == "request:generate"
        assert "stage:collect" in names and "stage:emit" in names
        # Stage spans nest under the request span.
        root = next(s for s in tree["spans"] if s["name"] == "request:generate")
        child = next(s for s in tree["spans"] if s["name"] == "stage:collect")
        assert child["parent_id"] == root["span_id"]

    def test_explicit_request_id_wins(self, engine):
        result = engine.generate(
            GenerateRequest(template=TEMPLATE, request_id="mine-7")
        )
        assert result.request_id == "mine-7"

    def test_to_dict_shape(self, engine):
        payload = engine.generate(GenerateRequest(template=TEMPLATE)).to_dict()
        assert payload["ok"] and payload["op"] == "generate"
        assert payload["warm"] is True and payload["dfa_builds"] == 0
        assert "source" in payload["result"]
        assert payload["trace"]["spans"]


class TestGenerateMany:
    def test_serial_batch(self, engine):
        results = engine.generate_many([TEMPLATE, TEMPLATE])
        assert len(results) == 2
        assert all(r.ok for r in results)

    def test_batch_isolates_failures(self, engine):
        results = engine.generate_many([TEMPLATE, "/nonexistent/tpl.py"])
        assert results[0].ok
        assert not results[1].ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_utf8_template_fails_alone(self, jobs, tmp_path):
        binary = tmp_path / "bin.py"
        binary.write_bytes(b"\xff\xfe")
        engine = CryptoGenEngine(result_cache_size=0)
        try:
            bad, good = engine.generate_many([binary, TEMPLATE], jobs=jobs)
        finally:
            engine.close()
        assert bad.error.type == "TemplateError"
        assert "not UTF-8" in bad.error.message
        assert good.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_template_runs_once(self, jobs):
        """A repeat within one batch is a result-cache hit, pooled or not."""
        engine = CryptoGenEngine()
        try:
            first, repeat = engine.generate_many([TEMPLATE, TEMPLATE], jobs=jobs)
            runs = engine.context.runs
        finally:
            engine.close()
        assert first.ok and not first.cached
        assert repeat.ok and repeat.cached
        assert repeat.module is first.module
        assert runs == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeats_all_run_without_result_cache(self, jobs):
        engine = CryptoGenEngine(result_cache_size=0)
        try:
            results = engine.generate_many([TEMPLATE, TEMPLATE], jobs=jobs)
            runs = engine.context.runs
        finally:
            engine.close()
        assert [r.ok and not r.cached for r in results] == [True, True]
        assert runs == 2

    def test_parallel_batches_reuse_one_warm_pool(self):
        engine = CryptoGenEngine()
        first = engine.generate_many([TEMPLATE, TEMPLATE], jobs=2)
        assert all(r.ok for r in first)
        pool = engine._pool
        assert pool is not None  # created by the first parallel batch
        second = engine.generate_many([TEMPLATE, TEMPLATE], jobs=2)
        assert all(r.ok for r in second)
        assert engine._pool is pool  # resident, not rebuilt per batch
        engine.close()
        assert engine._pool is None

    @pytest.mark.parametrize("verify", [True, False])
    def test_parallel_batch_honours_verify(self, verify):
        # Regression: the jobs>1 branch dropped ``verify``, so workers
        # ran with the engine default instead of the request's flag.
        templates = [TEMPLATE, str(use_case(2).template_path())]
        engine = CryptoGenEngine(verify=not verify)
        try:
            serial = engine.generate_many(templates, jobs=1, verify=verify)
            parallel = engine.generate_many(templates, jobs=2, verify=verify)
        finally:
            engine.close()
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok
            assert left.module.source == right.module.source
            assert ("verify" in left.module.diagnostics.stages) is verify
            assert ("verify" in right.module.diagnostics.stages) is verify


class TestAnalyze:
    def test_analyze_generated_module(self, engine):
        generated = engine.generate(GenerateRequest(template=TEMPLATE))
        result = engine.analyze(
            AnalyzeRequest(sources={"m.py": generated.module.source})
        )
        assert result.ok
        assert result.is_secure

    def test_analyze_paths(self, engine, tmp_path):
        generated = engine.generate(GenerateRequest(template=TEMPLATE))
        target = tmp_path / "m.py"
        target.write_text(generated.module.source, encoding="utf-8")
        result = engine.analyze(AnalyzeRequest(paths=(str(tmp_path),)))
        assert result.ok and result.is_secure

    def test_syntax_error_is_structured(self, engine):
        result = engine.analyze(
            AnalyzeRequest(sources={"bad.py": "def f(:\n"})
        )
        assert not result.ok
        assert result.error.type == "SyntaxError"

    def test_empty_request_is_structured_error(self, engine):
        result = engine.analyze(AnalyzeRequest())
        assert not result.ok
        assert result.error.type == "EngineRequestError"

    def test_parallel_analyses_share_one_resident_pool(self, monkeypatch):
        from repro import workers

        built = []

        class CountingPool(workers.WorkerPool):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers, "WorkerPool", CountingPool)
        sources = {
            "a.py": "from repro.jca import Cipher\n"
            "def enc():\n    return Cipher.get_instance('AES/ECB/PKCS5Padding')\n",
            "b.py": "from repro.jca import MessageDigest\n"
            "def digest():\n    return MessageDigest.get_instance('MD5')\n",
        }
        engine = CryptoGenEngine()
        try:
            first = engine.analyze(AnalyzeRequest(sources=sources, jobs=2))
            pool = engine._pool
            second = engine.analyze(AnalyzeRequest(sources=sources, jobs=2))
            assert engine._pool is pool
            stats = pool.to_dict()
        finally:
            engine.close()
        assert first.ok and second.ok
        assert second.analysis.to_dict() == first.analysis.to_dict()
        assert stats["batches"] == 2
        assert stats["restarts"] == stats["recycles"] == 0
        assert len(built) == 1


class TestConstruction:
    def test_rules_dir_and_ruleset_conflict(self, tmp_path):
        from repro.crysl import RuleSet

        with pytest.raises(ValueError):
            CryptoGenEngine(
                rules_dir=tmp_path, ruleset=RuleSet.bundled()
            )

    def test_cache_dir_engine_warm_starts_second_engine(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with CryptoGenEngine(cache_dir=cache_dir) as first:
            assert first.generate(GenerateRequest(template=TEMPLATE)).ok
        with CryptoGenEngine(cache_dir=cache_dir) as second:
            result = second.generate(GenerateRequest(template=TEMPLATE))
            assert result.ok
            assert result.dfa_builds == 0  # loaded from the disk store

    def test_refresh_without_repository_raises(self):
        engine = CryptoGenEngine()
        with pytest.raises(EngineRequestError):
            engine.refresh_rules()


class TestRepositoryBackedEngine:
    @pytest.fixture()
    def rules_copy(self, tmp_path):
        directory = tmp_path / "rules"
        directory.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, directory / path.name)
        return directory

    def test_refresh_recompiles_only_the_edit(self, rules_copy):
        engine = CryptoGenEngine(rules_dir=rules_copy)
        first = engine.generate(GenerateRequest(template=TEMPLATE))
        assert first.ok and first.dfa_builds > 0

        target = rules_copy / "SecureRandom.crysl"
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace("ENSURES", "ENSURES "), encoding="utf-8")
        report = engine.refresh_rules()
        assert report.changed == ("repro.jca.SecureRandom",)

        again = engine.generate(GenerateRequest(template=TEMPLATE))
        assert again.ok
        # Only the edited rule's automaton is rebuilt; the other rules
        # carried their artefacts across the refresh.
        assert again.dfa_builds == 1
        assert engine.diagnostics.counter("repository.refreshes") == 1
        engine.close()

    def test_clean_refresh_keeps_services(self, rules_copy):
        engine = CryptoGenEngine(rules_dir=rules_copy)
        engine.generate(GenerateRequest(template=TEMPLATE))
        engine.analyze(
            AnalyzeRequest(sources={"m.py": "def f():\n    return 1\n"})
        )
        results, summaries = len(engine.result_cache), len(engine.summary_cache)
        assert results > 0 and summaries > 0
        context_before = engine.context
        report = engine.refresh_rules()
        assert not report.dirty
        assert engine.context is context_before  # no rebuild
        # neither memo cache is cleared when no rule changed
        assert len(engine.result_cache) == results
        assert len(engine.summary_cache) == summaries
        engine.close()

    def test_refresh_invalidates_stale_summaries(self, rules_copy, tmp_path):
        """Summaries computed under the old rule set are dropped on a
        dirty refresh; the next analyze re-summarizes under the new
        fingerprint (and keys under the old one are unreachable)."""
        engine = CryptoGenEngine(rules_dir=rules_copy)
        target = tmp_path / "m.py"
        target.write_text("def f():\n    return 1\n", encoding="utf-8")
        first = engine.analyze(AnalyzeRequest(paths=(str(target),)))
        assert first.ok and first.reanalyzed_functions > 0
        warm = engine.analyze(AnalyzeRequest(paths=(str(target),)))
        assert warm.reanalyzed_functions == 0
        engine.generate(GenerateRequest(template=TEMPLATE))

        rule = rules_copy / "SecureRandom.crysl"
        text = rule.read_text(encoding="utf-8")
        rule.write_text(text.replace("ENSURES", "ENSURES "), encoding="utf-8")
        held = len(engine.summary_cache)
        assert held > 0 and len(engine.result_cache) > 0
        report = engine.refresh_rules()
        assert report.dirty
        assert engine.summary_cache.count("invalidations") > 0
        # one policy: a dirty refresh clears both memo caches
        assert len(engine.result_cache) == len(engine.summary_cache) == 0
        assert engine.diagnostics.counter(SUMMARY_INVALIDATIONS) == held

        after = engine.analyze(AnalyzeRequest(paths=(str(target),)))
        assert after.ok and after.reanalyzed_functions > 0
        engine.close()

    def test_cumulative_diagnostics_survive_refresh(self, rules_copy):
        engine = CryptoGenEngine(rules_dir=rules_copy)
        engine.generate(GenerateRequest(template=TEMPLATE))
        runs_before = engine.diagnostics.counter("compiled_rules.misses")
        assert runs_before > 0
        target = rules_copy / "SecureRandom.crysl"
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace("ENSURES", "ENSURES "), encoding="utf-8")
        engine.refresh_rules()
        engine.generate(GenerateRequest(template=TEMPLATE))
        # One record across the refresh: counters only ever grow.
        assert (
            engine.diagnostics.counter("compiled_rules.misses") > runs_before
        )
        engine.close()


class TestIncrementalAnalyze:
    SOURCES = {
        "helpers.py": "def make_iv():\n    return b'0' * 16\n",
        "app.py": (
            "from helpers import make_iv\n"
            "def run():\n"
            "    iv = make_iv()\n"
            "    return iv\n"
        ),
        "other.py": "def standalone():\n    return 1\n",
    }

    def test_second_analyze_reanalyzes_nothing(self):
        engine = CryptoGenEngine()
        cold = engine.analyze(AnalyzeRequest(sources=self.SOURCES))
        assert cold.reanalyzed_functions == cold.analysis.total_functions > 0
        warm = engine.analyze(AnalyzeRequest(sources=self.SOURCES))
        assert warm.reanalyzed_functions == 0
        assert warm.analysis.to_dict() == cold.analysis.to_dict()
        # the resident cache answered every lookup of the second request
        stats = engine.summary_cache.to_dict()
        assert stats["hits"] == warm.analysis.total_functions
        assert stats["hit_rate"] == 0.5  # cold misses + warm hits
        engine.close()

    def test_edit_reanalyzes_only_the_cone(self):
        engine = CryptoGenEngine()
        engine.analyze(AnalyzeRequest(sources=self.SOURCES))
        edited = {
            **self.SOURCES,
            "helpers.py": "def make_iv():\n    return b'1' * 16\n",
        }
        after = engine.analyze(AnalyzeRequest(sources=edited))
        # helpers.make_iv plus its caller app.run; other.standalone hits
        assert 0 < after.reanalyzed_functions < after.analysis.total_functions
        engine.close()

    def test_reanalyzed_functions_in_to_dict(self):
        engine = CryptoGenEngine()
        result = engine.analyze(AnalyzeRequest(sources=self.SOURCES))
        payload = result.to_dict()
        assert payload["reanalyzed_functions"] == result.reanalyzed_functions
        assert (
            payload["result"]["total_functions"]
            == result.analysis.total_functions
        )
        engine.close()

    def test_disk_backed_summary_cache_warms_a_fresh_engine(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with CryptoGenEngine(cache_dir=cache_dir) as first:
            cold = first.analyze(AnalyzeRequest(sources=self.SOURCES))
            assert cold.reanalyzed_functions > 0
            assert first.summary_cache.persistent
        with CryptoGenEngine(cache_dir=cache_dir) as second:
            warm = second.analyze(AnalyzeRequest(sources=self.SOURCES))
            assert warm.reanalyzed_functions == 0
            assert second.summary_cache.to_dict()["disk_hits"] > 0


class TestExpandAnalyzePaths:
    def test_deduplicates_overlapping_entries(self, tmp_path):
        from repro.engine import expand_analyze_paths

        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        expanded = expand_analyze_paths(
            [tmp_path, tmp_path / "a.py", tmp_path]
        )
        assert expanded == sorted(
            [tmp_path / "a.py", tmp_path / "b.py"], key=str
        )

    def test_result_is_sorted_regardless_of_argument_order(self, tmp_path):
        from repro.engine import expand_analyze_paths

        sub = tmp_path / "sub"
        sub.mkdir()
        (tmp_path / "z.py").write_text("z = 1\n")
        (sub / "a.py").write_text("a = 1\n")
        forward = expand_analyze_paths([tmp_path / "z.py", sub])
        backward = expand_analyze_paths([sub, tmp_path / "z.py"])
        assert forward == backward == sorted(forward, key=str)
