"""Batch generation over worker processes, through the engine's one batch
API: determinism, error isolation, and worker warm start from the
persistent cache."""

from __future__ import annotations

import pytest

from repro.diagnostics import DFA_BUILDS, DISK_HITS, PATH_ENUMERATIONS
from repro.engine import CryptoGenEngine
from repro.usecases import USE_CASES


def _templates():
    return [str(entry.template_path()) for entry in USE_CASES]


@pytest.fixture
def engine(tmp_path):
    """``engine()`` builds a fresh engine over one disk cache; every
    engine built is closed (its pool stopped) after the test."""
    built = []

    def build():
        built.append(CryptoGenEngine(cache_dir=tmp_path / "cache"))
        return built[-1]

    yield build
    for made in built:
        made.close()


class TestParallelEquivalence:
    def test_jobs4_byte_identical_to_serial_across_table1(self, engine):
        """The tentpole acceptance check: every Table-1 use case
        generates byte-identically at jobs=1 and jobs=4, in order."""
        templates = _templates()
        serial = engine().generate_many(templates)
        parallel = engine().generate_many(templates, jobs=4)
        assert len(serial) == len(parallel) == len(templates)
        for left, right in zip(serial, parallel):
            assert left.module.source == right.module.source
            assert left.module.template_class == right.module.template_class

    def test_parallel_workers_start_warm_from_disk(self, engine):
        """With a primed disk cache, workers perform zero DFA builds and
        zero path enumerations — everything loads from the store."""
        templates = _templates()[:4]
        primer = engine()
        primer.generate_many(templates)
        primer.close()  # flushes the compiled rules to the store
        warm = engine()
        warm.generate_many(templates, jobs=2)
        counters = warm.diagnostics.counters
        assert counters.get(DFA_BUILDS, 0) == 0
        assert counters.get(PATH_ENUMERATIONS, 0) == 0
        assert counters.get(DISK_HITS, 0) > 0

    def test_parent_accounting_matches_batch_size(self, engine):
        templates = _templates()[:3]
        parallel = engine()
        parallel.generate_many(templates, jobs=2)
        assert parallel.context.runs == len(templates)

    def test_empty_batch(self, engine):
        assert engine().generate_many([], jobs=4) == []


class TestErrorIsolation:
    def _batch_with_bad_template(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("class Empty:\n    pass\n")
        templates = _templates()[:2]
        return [templates[0], str(bad), templates[1]]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_one_bad_template_does_not_abort_the_batch(
        self, engine, tmp_path, jobs
    ):
        batch = self._batch_with_bad_template(tmp_path)
        results = engine().generate_many(batch, jobs=jobs)
        failures = [i for i, result in enumerate(results) if not result.ok]
        assert failures == [1]
        assert results[1].error.type == "TemplateError"
        # The other two templates still generated, at their own indexes.
        assert len(results) == 3
        assert results[0].module is not None
        assert results[1].module is None
        assert results[2].module is not None

    def test_serial_and_parallel_failures_agree(self, engine, tmp_path):
        batch = self._batch_with_bad_template(tmp_path)
        serial = engine().generate_many(batch, jobs=1)
        parallel = engine().generate_many(batch, jobs=3)
        assert [r.error for r in serial] == [r.error for r in parallel]
        for left, right in zip(serial, parallel):
            assert (left.module is None) == (right.module is None)
            if left.module is not None:
                assert left.module.source == right.module.source

    def test_message_names_every_failure(self, engine, tmp_path):
        batch = self._batch_with_bad_template(tmp_path)
        results = engine().generate_many(batch)
        assert (sum(not r.ok for r in results), len(results)) == (1, 3)
        assert "bad.py" in str(results[1].error)


class TestUnknownSentinelAcrossProcesses:
    def test_unknown_pickles_to_the_module_singleton(self):
        """Bindings cross the worker boundary; ``value is UNKNOWN``
        identity checks must survive the round-trip."""
        import pickle

        from repro.constraints.model import UNKNOWN

        assert pickle.loads(pickle.dumps(UNKNOWN)) is UNKNOWN
