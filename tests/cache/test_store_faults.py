"""Disk-cache I/O hardening: bounded retries, never abort a request.

The contract under chaos: a transient ``OSError``/``EOFError`` on a
cache read or write is retried (:data:`repro.cache.store.IO_ATTEMPTS`
attempts, doubling backoff), a *persistent* one degrades — a failed
load becomes a miss/eviction and a failed store returns ``False`` —
and every failed attempt is counted as ``disk__io_errors(cache)`` in the
store's diagnostics plus an ``io-error`` warning. Nothing here ever
raises into the request path.
"""

from __future__ import annotations

import pickle

import pytest

from repro import faults
from repro.cache import CachedArtefacts, DiskRuleCache
from repro.cache.store import IO_ATTEMPTS
from repro.diagnostics import DISK_IO_ERRORS


def _io_errors(cache) -> int:
    return cache.diagnostics.counter(DISK_IO_ERRORS)


def _warning_kinds(cache) -> list[str]:
    """The ``[kind]`` tag of each of the store's warnings."""
    return [
        w.message.split("[", 1)[1].split("]", 1)[0]
        for w in cache.diagnostics.warnings
    ]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def cache(tmp_path):
    return DiskRuleCache(tmp_path / "cache")


def _artefacts(cache) -> CachedArtefacts:
    return CachedArtefacts(
        schema_version=cache.schema_version,
        rule_class="x.Digest",
        kernel=None,
        path_labels=(),
        expansions={},
        ensures_index={},
        event_signatures={},
        constraint_index={},
    )


class _FlakyPath:
    """A path whose first ``fail_times`` reads raise a transient error."""

    name = "flaky-key"

    def __init__(self, payload: bytes, fail_times: int):
        self.payload = payload
        self.fail_times = fail_times
        self.calls = 0

    def read_bytes(self) -> bytes:
        self.calls += 1
        if self.calls <= self.fail_times:
            raise OSError(5, "transient I/O error")
        return self.payload


class TestReadRetries:
    def test_transient_read_failure_recovers(self, cache):
        flaky = _FlakyPath(b"payload", fail_times=IO_ATTEMPTS - 1)
        assert cache._read_with_retries(flaky) == b"payload"
        assert flaky.calls == IO_ATTEMPTS
        assert _io_errors(cache) == IO_ATTEMPTS - 1
        assert _warning_kinds(cache) == ["io-error"] * (IO_ATTEMPTS - 1)

    def test_missing_file_is_a_miss_not_a_flake(self, cache):
        # FileNotFoundError must not burn retry attempts or count as
        # an I/O error — it is the ordinary cache-miss path.
        result = cache.load(cache.key("SPEC x.Nothing\n"))
        assert not result.hit
        assert _io_errors(cache) == 0

    def test_persistent_read_failure_degrades_to_eviction(self, cache):
        key = cache.key("SPEC x.Digest\n")
        cache.path_for(key).write_bytes(pickle.dumps(_artefacts(cache)))
        faults.configure("disk_io:1.0")
        result = cache.load(key)  # never raises into the caller
        assert not result.hit
        assert _io_errors(cache) == IO_ATTEMPTS
        faults.reset()
        # The entry was evicted; a clean retry recomputes from nothing.
        assert not cache.load(key).hit


class TestWriteRetries:
    def test_transient_write_failure_recovers(self, cache):
        # Seed chosen so the first disk_io draw fires and the retry
        # does not.
        plan = faults.FaultPlan({"disk_io": 0.5}, seed=1)
        first_draws = [plan.should_fire("disk_io") for _ in range(2)]
        assert first_draws == [True, False], "seed drifted; pick another"
        faults.configure(faults.FaultPlan({"disk_io": 0.5}, seed=1))
        key = cache.key("SPEC x.Digest\n")
        assert cache.store(key, _artefacts(cache)) is True
        assert _io_errors(cache) == 1
        faults.reset()
        assert cache.load(key).hit

    def test_persistent_write_failure_returns_false(self, cache):
        faults.configure("disk_io:1.0")
        key = cache.key("SPEC x.Digest\n")
        assert cache.store(key, _artefacts(cache)) is False
        assert _io_errors(cache) == IO_ATTEMPTS
        kinds = _warning_kinds(cache)
        assert kinds.count("io-error") == IO_ATTEMPTS
        assert "write-failed" in kinds
        faults.reset()
        assert not cache.load(key).hit  # nothing half-written
