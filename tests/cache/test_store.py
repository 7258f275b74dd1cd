"""The persistent compiled-rule cache: keys, atomicity, eviction, and
the RuleSet integration that makes fresh processes start warm."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.cache import (
    SCHEMA_VERSION,
    CacheDirectoryError,
    CachedArtefacts,
    DiskRuleCache,
    LoadResult,
)
from repro.crysl import RuleSet, parse_rule
from repro.crysl.ruleset import check_rule
from repro.diagnostics import (
    DFA_BUILDS,
    DISK_EVICTIONS,
    DISK_HITS,
    DISK_MISSES,
    DISK_WRITES,
    PATH_ENUMERATIONS,
)
from repro.sast import ProjectAnalyzer

RULE_SOURCE = (
    "SPEC x.Digest\n"
    "OBJECTS\n"
    " str alg;\n"
    " bytes data;\n"
    "EVENTS\n"
    " g: get_instance(alg);\n"
    " d: digest(data);\n"
    "ORDER\n"
    " g, d\n"
)


@pytest.fixture()
def cache(tmp_path):
    return DiskRuleCache(tmp_path / "cache")


def _ruleset(tmp_path, source=RULE_SOURCE):
    ruleset = RuleSet()
    ruleset.add(check_rule(parse_rule(source, "Digest.crysl")), source=source)
    ruleset.attach_disk_cache(DiskRuleCache(tmp_path / "cache"))
    return ruleset


def _prime(ruleset):
    """Compile + force the expensive artefacts + flush to disk."""
    for rule in ruleset:
        compiled = ruleset.compiled(rule)
        compiled.kernel
        compiled.paths
    return ruleset.flush_disk_cache()


class TestKeying:
    def test_key_is_stable(self, cache):
        assert cache.key(RULE_SOURCE) == cache.key(RULE_SOURCE)

    def test_source_change_changes_the_key(self, cache):
        edited = RULE_SOURCE.replace("g, d", "g, d?")
        assert cache.key(RULE_SOURCE) != cache.key(edited)

    def test_max_paths_changes_the_key(self, cache):
        assert cache.key(RULE_SOURCE) != cache.key(RULE_SOURCE, max_paths=8)

    def test_schema_version_changes_the_key(self, tmp_path):
        v1 = DiskRuleCache(tmp_path, schema_version=1)
        v2 = DiskRuleCache(tmp_path, schema_version=2)
        assert v1.key(RULE_SOURCE) != v2.key(RULE_SOURCE)


class TestStoreAndLoad:
    def test_roundtrip(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        assert _prime(ruleset) == 1
        cache = ruleset.disk_cache
        key = cache.key(RULE_SOURCE)
        result = cache.load(key)
        assert result.hit
        assert result.artefacts.rule_class == "x.Digest"
        assert result.artefacts.path_labels == (("g", "d"),)

    def test_missing_entry_is_a_clean_miss(self, cache):
        result = cache.load(cache.key("SPEC a.B\nEVENTS\n e: m();"))
        assert result == LoadResult()
        assert not cache.diagnostics.warnings
        assert not cache.diagnostics.counters

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        leftovers = list(ruleset.disk_cache.directory.glob(".write-*"))
        assert leftovers == []

    def test_corrupt_entry_is_evicted_and_recomputed(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        cache = ruleset.disk_cache
        key = cache.key(RULE_SOURCE)
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])  # truncate the pickle
        result = cache.load(key)
        assert not result.hit
        assert result.evicted
        assert not path.exists()
        (warning,) = cache.diagnostics.warnings
        assert "[evicted]" in warning.message
        assert "corrupt" in warning.message
        assert cache.diagnostics.counter(DISK_EVICTIONS) == 1

    def test_wrong_payload_type_is_evicted(self, cache):
        key = cache.key(RULE_SOURCE)
        cache.path_for(key).write_bytes(pickle.dumps({"not": "artefacts"}))
        result = cache.load(key)
        assert not result.hit and result.evicted
        (warning,) = cache.diagnostics.warnings
        assert "stale" in warning.message

    def test_schema_drift_in_payload_is_evicted(self, tmp_path):
        """Belt-and-braces: even at the *same key*, a recorded schema
        version that disagrees with ours drops the entry."""
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        cache = ruleset.disk_cache
        key = cache.key(RULE_SOURCE)
        artefacts = cache.load(key).artefacts
        drifted = CachedArtefacts(
            schema_version=SCHEMA_VERSION + 1,
            rule_class=artefacts.rule_class,
            kernel=artefacts.kernel,
            path_labels=artefacts.path_labels,
            expansions=artefacts.expansions,
            ensures_index=artefacts.ensures_index,
            event_signatures=artefacts.event_signatures,
            constraint_index=artefacts.constraint_index,
        )
        assert cache.store(key, drifted)
        result = cache.load(key)
        assert not result.hit and result.evicted

    def test_schema_bump_invalidates_by_key(self, tmp_path):
        """A bumped SCHEMA_VERSION misses cleanly: old entries become
        unreachable (different key), no eviction needed."""
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        bumped = DiskRuleCache(
            ruleset.disk_cache.directory, schema_version=SCHEMA_VERSION + 1
        )
        assert not bumped.load(bumped.key(RULE_SOURCE)).hit

    def test_concurrent_writers_on_one_key_leave_a_valid_entry(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        cache = ruleset.disk_cache
        key = cache.key(RULE_SOURCE)
        artefacts = cache.load(key).artefacts
        outcomes = []

        def writer():
            for _ in range(20):
                outcomes.append(cache.store(key, artefacts))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcomes)
        result = cache.load(key)
        assert result.hit
        assert result.artefacts.path_labels == artefacts.path_labels

    def test_clear_removes_every_entry(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        _prime(ruleset)
        cache = ruleset.disk_cache
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestDirectoryValidation:
    def test_unusable_directory_raises_cleanly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache directory should go")
        with pytest.raises(CacheDirectoryError) as excinfo:
            DiskRuleCache(blocker / "cache")
        assert "not writable" in str(excinfo.value)

    def test_directory_is_created_on_demand(self, tmp_path):
        nested = tmp_path / "a" / "b" / "cache"
        DiskRuleCache(nested)
        assert nested.is_dir()

    def test_concurrent_opens_of_one_directory_all_validate(self, tmp_path):
        """Pool workers open the same cache directory simultaneously;
        one opener's writability probe must never delete another's."""
        shared = tmp_path / "cache"
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def opener():
            barrier.wait()
            try:
                for _ in range(25):
                    DiskRuleCache(shared)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=opener) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not list(shared.glob(".probe*"))  # no probe debris


class TestRuleSetIntegration:
    def test_fresh_ruleset_starts_warm_from_disk(self, tmp_path):
        _prime(_ruleset(tmp_path))
        # A brand-new rule set over the same source + cache directory:
        # the expensive artefacts load from disk, so zero DFA builds and
        # zero path enumerations happen (the tentpole acceptance check).
        warm = _ruleset(tmp_path)
        for rule in warm:
            compiled = warm.compiled(rule)
            compiled.kernel
            assert compiled.paths == ((rule.events[0], rule.events[1]),)
        stats = warm.diagnostics
        assert stats.counter(DFA_BUILDS) == 0
        assert stats.counter(PATH_ENUMERATIONS) == 0
        assert stats.counter(DISK_HITS) == 1
        assert stats.counter(DISK_MISSES) == 0

    def test_warm_project_analysis_rebuilds_no_dfa(
        self, tmp_path, use_case_project
    ):
        """A ProjectAnalyzer over a cache primed for all 15 bundled rules
        analyzes the eleven use cases without building a single DFA."""
        primed = RuleSet.bundled().freeze()
        primed.attach_disk_cache(DiskRuleCache(tmp_path / "cache"))
        assert _prime(primed) > 0
        ruleset = RuleSet.bundled().freeze()
        ruleset.attach_disk_cache(DiskRuleCache(tmp_path / "cache"))
        result = ProjectAnalyzer(ruleset).analyze_sources(use_case_project)
        assert result.is_secure, result.render()
        stats = ruleset.diagnostics
        assert stats.counter(DFA_BUILDS) == 0, (
            f"warm analysis rebuilt {stats.counter(DFA_BUILDS)} DFAs"
        )
        assert stats.counter(PATH_ENUMERATIONS) == 0
        assert stats.counter(DISK_HITS) > 0

    def test_source_edit_recomputes(self, tmp_path):
        _prime(_ruleset(tmp_path))
        edited = RULE_SOURCE.replace("g, d", "g, d?")
        ruleset = _ruleset(tmp_path, source=edited)
        for rule in ruleset:
            ruleset.compiled(rule).paths
        stats = ruleset.diagnostics
        assert stats.counter(DISK_HITS) == 0
        assert stats.counter(DISK_MISSES) == 1
        assert stats.counter(DFA_BUILDS) == 1

    def test_flush_is_idempotent(self, tmp_path):
        ruleset = _ruleset(tmp_path)
        assert _prime(ruleset) == 1
        assert ruleset.flush_disk_cache() == 0
        assert ruleset.diagnostics.counter(DISK_WRITES) == 1

    def test_preloaded_artefacts_keep_rule_node_identity(self, tmp_path):
        """Rehydrated paths reference the live rule's own Event nodes —
        not pickled copies — so identity-based consumers keep working."""
        _prime(_ruleset(tmp_path))
        warm = _ruleset(tmp_path)
        (rule,) = list(warm)
        (path,) = warm.compiled(rule).paths
        assert path[0] is rule.events[0]
        assert path[1] is rule.events[1]

    def test_kernel_rehydrates_with_the_entry(self, tmp_path):
        """A warm start gets the compiled table kernel straight off
        disk — stepping it must not force a kernel build, and it must
        agree with a freshly compiled kernel."""
        primed = _ruleset(tmp_path)
        _prime(primed)
        (rule,) = list(primed)
        cold_kernel = primed.compiled(rule).kernel

        warm = _ruleset(tmp_path)
        (warm_rule,) = list(warm)
        kernel = warm.compiled(warm_rule).kernel
        assert warm.diagnostics.counter(DFA_BUILDS) == 0
        assert kernel == cold_kernel
        walker = kernel.walk()
        assert walker.feed("g") and walker.feed("d")
        assert walker.in_accepting_state

    def test_rules_without_source_never_persist(self, tmp_path):
        ruleset = RuleSet()
        ruleset.add(check_rule(parse_rule(RULE_SOURCE, "Digest.crysl")))
        ruleset.attach_disk_cache(DiskRuleCache(tmp_path / "cache"))
        for rule in ruleset:
            ruleset.compiled(rule).paths
        assert ruleset.flush_disk_cache() == 0
        assert len(ruleset.disk_cache) == 0
