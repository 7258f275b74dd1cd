"""The content-addressed per-function summary cache.

Covers the three contract layers: key computation (content-addressed,
cone-by-construction), the disk tier and defaults of the store itself
(persistence, corruption eviction, schema drift; the LRU contract is in
``tests/cache/test_lru.py``), and the analyzer integration (warm
replays are byte-identical, edits re-analyze exactly the caller cone).
"""

from __future__ import annotations

import pickle

import pytest

from repro.sast import ProjectAnalyzer
from repro.sast.callgraph import CallGraph, FunctionRef
from repro.sast.report import Finding, FindingKind
from repro.sast.summary_cache import (
    DEFAULT_CAPACITY,
    SUMMARY_SCHEMA_VERSION,
    CachedFunctionAnalysis,
    SummaryCache,
    compute_summary_keys,
)

HELPER = "def make_iv():\n    return b'0' * 16\n"
APP = (
    "from helpers import make_iv\n"
    "def run():\n"
    "    iv = make_iv()\n"
    "    return iv\n"
)
OTHER = "def standalone():\n    return 1\n"

SOURCES = {"helpers.py": HELPER, "app.py": APP, "other.py": OTHER}


def build_graph(analyzer, sources):
    import ast as pyast

    from repro.sast.ir import lift_module

    functions = []
    for key, text in sources.items():
        functions.extend(
            lift_module(
                pyast.parse(text, filename=key),
                analyzer.analyzer.tracked_classes,
                analyzer.analyzer.result_classes,
                module_name=key,
                file=key,
            )
        )
    return CallGraph.build(functions)


class TestKeyComputation:
    def test_every_function_gets_a_key(self, analyzer):
        graph = build_graph(analyzer, SOURCES)
        keys = compute_summary_keys(graph, SOURCES, "fp")
        assert set(keys) == set(graph.functions)
        assert len(set(keys.values())) == len(keys)  # all distinct

    def test_keys_are_deterministic(self, analyzer):
        graph = build_graph(analyzer, SOURCES)
        assert compute_summary_keys(graph, SOURCES, "fp") == compute_summary_keys(
            build_graph(analyzer, SOURCES), dict(SOURCES), "fp"
        )

    def test_editing_a_function_rekeys_exactly_its_caller_cone(self, analyzer):
        graph = build_graph(analyzer, SOURCES)
        before = compute_summary_keys(graph, SOURCES, "fp")
        edited = {**SOURCES, "helpers.py": "def make_iv():\n    return b'1' * 16\n"}
        after = compute_summary_keys(build_graph(analyzer, edited), edited, "fp")
        changed = {ref for ref in before if before[ref] != after[ref]}
        assert changed == {
            FunctionRef("helpers.py", "make_iv"),
            FunctionRef("app.py", "run"),
        }
        assert FunctionRef("other.py", "standalone") not in changed

    def test_ruleset_fingerprint_is_part_of_every_key(self, analyzer):
        graph = build_graph(analyzer, SOURCES)
        a = compute_summary_keys(graph, SOURCES, "fp-a")
        b = compute_summary_keys(graph, SOURCES, "fp-b")
        assert all(a[ref] != b[ref] for ref in a)

    def test_schema_version_is_part_of_every_key(self, analyzer):
        graph = build_graph(analyzer, SOURCES)
        a = compute_summary_keys(graph, SOURCES, "fp", schema_version=1)
        b = compute_summary_keys(graph, SOURCES, "fp", schema_version=2)
        assert all(a[ref] != b[ref] for ref in a)

    def test_shifting_a_function_down_changes_its_key(self, analyzer):
        """Findings carry absolute line numbers, so a moved-but-unedited
        function must miss (its cached findings would point at the old
        lines)."""
        shifted = {**SOURCES, "other.py": "\n\n" + OTHER}
        a = compute_summary_keys(build_graph(analyzer, SOURCES), SOURCES, "fp")
        b = compute_summary_keys(build_graph(analyzer, shifted), shifted, "fp")
        ref = FunctionRef("other.py", "standalone")
        assert a[ref] != b[ref]

    def test_cycle_members_share_fate(self, analyzer):
        cyclic = {
            "m.py": (
                "def even(n):\n"
                "    r = odd(n)\n"
                "    return r\n"
                "def odd(n):\n"
                "    r = even(n)\n"
                "    return r\n"
            )
        }
        edited = {
            "m.py": cyclic["m.py"].replace("r = odd(n)", "r = odd(n)  # x")
        }
        a = compute_summary_keys(build_graph(analyzer, cyclic), cyclic, "fp")
        b = compute_summary_keys(build_graph(analyzer, edited), edited, "fp")
        even, odd = FunctionRef("m.py", "even"), FunctionRef("m.py", "odd")
        # only even's source changed, but both members re-key
        assert a[even] != b[even]
        assert a[odd] != b[odd]


def entry(ref="m:f", findings=(), tracked=0):
    return CachedFunctionAnalysis(
        schema_version=SUMMARY_SCHEMA_VERSION,
        ref=ref,
        findings=tuple(findings),
        tracked_objects=tracked,
        summary=None,
    )


class TestSummaryCacheStore:
    def test_lru_eviction(self):
        cache = SummaryCache(capacity=2)
        cache.store("a", entry("m:a"))
        cache.store("b", entry("m:b"))
        cache.load("a")  # refresh a
        cache.store("c", entry("m:c"))  # evicts b
        assert cache.load("b") is None
        assert cache.load("a") is not None
        assert cache.count("evictions") == 1

    def test_clear(self, tmp_path):
        cache = SummaryCache()
        cache.store("a", entry())
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.load("a") is None
        # a persistent cache keeps its disk tier across a clear
        persistent = SummaryCache(tmp_path / "summaries")
        persistent.store("a", entry())
        assert persistent.clear() == 1
        assert persistent.load("a") is not None
        assert persistent.count("disk_hits") == 1

    def test_disk_tier_round_trip(self, tmp_path):
        finding = Finding(
            kind=FindingKind.CONSTRAINT,
            message="weak",
            line=3,
            variable="cipher",
            rule="AES",
            file="m.py",
        )
        first = SummaryCache(tmp_path / "summaries")
        first.store("k", entry(findings=[finding], tracked=2))
        # a fresh cache over the same directory hits from disk
        second = SummaryCache(tmp_path / "summaries")
        loaded = second.load("k")
        assert loaded is not None
        assert loaded.findings == (finding,)
        assert loaded.tracked_objects == 2
        assert second.count("disk_hits") == 1
        # and the entry is now promoted to memory
        second.load("k")
        assert second.count("disk_hits") == 1

    def test_corrupt_disk_entry_is_evicted_not_surfaced(self, tmp_path):
        cache = SummaryCache(tmp_path / "summaries")
        cache.store("k", entry())
        path = cache.disk.path_for("k")
        path.write_bytes(b"not a pickle")
        fresh = SummaryCache(tmp_path / "summaries")
        assert fresh.load("k") is None
        assert not path.exists()

    def test_corrupt_loads_keep_no_per_event_state(self, tmp_path):
        """A thousand evictions leave fixed-size state: counts, and a
        warning ring bounded by MAX_WARNINGS — no event journal."""
        from repro.diagnostics import MAX_WARNINGS

        cache = SummaryCache(tmp_path / "summaries")
        path = cache.disk.path_for("k")
        for _ in range(1000):
            path.write_bytes(b"not a pickle")
            assert cache.load("k") is None
        store = cache.disk
        assert store.diagnostics.counter("summary_store.evictions") == 1000
        assert len(store.diagnostics.warnings) == MAX_WARNINGS
        assert store.diagnostics.warnings_dropped == 1000 - MAX_WARNINGS
        assert not any(isinstance(v, list) for v in vars(store).values())
        assert cache.count("misses") == 1000

    def test_schema_drift_on_disk_misses(self, tmp_path):
        cache = SummaryCache(tmp_path / "summaries")
        stale = CachedFunctionAnalysis(
            schema_version=SUMMARY_SCHEMA_VERSION + 1,
            ref="m:f",
            findings=(),
            tracked_objects=0,
            summary=None,
        )
        cache.disk.path_for("k").write_bytes(
            pickle.dumps(stale, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert cache.load("k") is None

    def test_to_dict_shape(self, tmp_path):
        stats = SummaryCache().to_dict()
        assert set(stats) >= {
            "size",
            "capacity",
            "hits",
            "misses",
            "stores",
            "evictions",
            "invalidations",
            "hit_rate",
            "persistent",
        }
        assert stats["capacity"] == DEFAULT_CAPACITY
        assert not stats["persistent"]
        assert SummaryCache(tmp_path / "summaries").to_dict()["persistent"]


class TestAnalyzerIntegration:
    @pytest.fixture()
    def project_analyzer(self, ruleset):
        return ProjectAnalyzer(ruleset)

    INSECURE = {
        "bad.py": (
            "from cryptography.hazmat.primitives.ciphers import "
            "Cipher, algorithms, modes\n"
            "def broken(key, iv, data):\n"
            "    cipher = Cipher(algorithms.AES(key), modes.CBC(iv))\n"
            "    enc = cipher.encryptor()\n"
            "    enc.update(data)\n"
            "    return enc\n"
        ),
        "fine.py": OTHER,
    }

    def test_second_run_replays_everything(self, project_analyzer):
        first = project_analyzer.analyze_sources(dict(self.INSECURE))
        assert first.reanalyzed_functions == first.total_functions > 0
        second = project_analyzer.analyze_sources(dict(self.INSECURE))
        assert second.reanalyzed_functions == 0
        assert second.summary_cache_hits == second.total_functions

    def test_warm_report_is_identical_to_cold(self, project_analyzer):
        cold = project_analyzer.analyze_sources(dict(self.INSECURE))
        warm = project_analyzer.analyze_sources(dict(self.INSECURE))
        assert cold.to_dict() == warm.to_dict()
        assert not warm.is_secure

    def test_warm_replay_skips_summary_construction(
        self, ruleset, use_case_project, monkeypatch
    ):
        """A repeat whole-project request over the eleven use cases
        never enters ``analyze_ir`` and replays a byte-identical report."""
        analyzer = ProjectAnalyzer(ruleset)
        cold = analyzer.analyze_sources(use_case_project)
        assert cold.reanalyzed_functions == cold.total_functions > 0

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm replay re-entered analyze_ir")

        monkeypatch.setattr(analyzer.analyzer, "analyze_ir", forbidden)
        warm = analyzer.analyze_sources(use_case_project)
        assert warm.reanalyzed_functions == 0
        assert warm.summary_cache_hits == warm.total_functions
        assert warm.to_dict() == cold.to_dict()
        assert warm.is_secure

    def test_edit_reanalyzes_only_the_cone(self, project_analyzer):
        project_analyzer.analyze_sources(SOURCES)
        edited = {**SOURCES, "helpers.py": "def make_iv():\n    return b'1' * 16\n"}
        second = project_analyzer.analyze_sources(edited)
        # helpers.make_iv + app.run (its caller); other.standalone replays
        assert 0 < second.reanalyzed_functions < second.total_functions

    def test_reanalysis_counters_flow_into_diagnostics(self, project_analyzer):
        from repro.diagnostics import ANALYSIS_REANALYZED, SUMMARY_HITS

        first = project_analyzer.analyze_sources(SOURCES)
        project_analyzer.analyze_sources(SOURCES)
        diag = project_analyzer.diagnostics
        # run 1 re-analyzed everything, run 2 hit everything
        assert diag.counter(ANALYSIS_REANALYZED) == first.reanalyzed_functions
        assert diag.counter(SUMMARY_HITS) == first.total_functions

    def test_persistent_cache_warms_a_fresh_analyzer(self, ruleset, tmp_path):
        cache_dir = tmp_path / "summaries"
        first = ProjectAnalyzer(ruleset, summary_cache=SummaryCache(cache_dir))
        cold = first.analyze_sources(dict(self.INSECURE))
        assert cold.reanalyzed_functions > 0
        second = ProjectAnalyzer(ruleset, summary_cache=SummaryCache(cache_dir))
        warm = second.analyze_sources(dict(self.INSECURE))
        assert warm.reanalyzed_functions == 0
        assert warm.to_dict() == cold.to_dict()
