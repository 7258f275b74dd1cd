"""The fault-tolerance layer: supervisor, breakers, admission, chaos.

Four promises under test, bottom-up:

* the :mod:`repro.faults` injection harness is deterministic and inert
  when unconfigured;
* the :class:`SupervisedWorkerPool` absorbs ``BrokenProcessPool`` —
  restart with backoff, bounded retry, recycling, degrade-to-serial;
* the engine's circuit breakers fail poisoned inputs fast and recover
  via half-open probes or ``refresh-rules``;
* the serve layer sheds load structurally (``OverloadedError`` with
  ``retry_after_ms``, deadline shedding) and a real socket server
  survives a seeded chaos storm — worker crashes, flaky disk, slow
  tasks — with zero non-structured failures and a healthy final
  ``health``.
"""

from __future__ import annotations

import io
import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import faults, workers
from repro.crysl import RuleSet
from repro.diagnostics import (
    BREAKER_OPENS,
    BREAKER_RESETS,
    DISK_IO_ERRORS,
    MAX_WARNINGS,
    SUPERVISOR_BATCHES,
    SUPERVISOR_DEGRADED,
    SUPERVISOR_RECYCLES,
    SUPERVISOR_RESTARTS,
    SUPERVISOR_RETRIES,
    Diagnostics,
)
from repro.engine import (
    AnalyzeRequest,
    BreakerConfig,
    BreakerRegistry,
    CircuitOpenError,
    CryptoGenEngine,
    EngineServer,
    GenerateRequest,
    SupervisedWorkerPool,
    SupervisorConfig,
)
from repro.engine.server import SERVER_COUNTS
from repro.usecases import use_case
from repro.workers import PoolStalledError, TaskOutcome

from .conftest import roundtrip

TEMPLATE = str(use_case(1).template_path())
TEMPLATE_2 = str(use_case(2).template_path())
TEMPLATE_3 = str(use_case(3).template_path())

ANALYZE_SOURCES = {
    "helpers.py": "def make_iv():\n    return b'0' * 16\n",
    "app.py": (
        "from helpers import make_iv\n"
        "def run():\n"
        "    return make_iv()\n"
    ),
}


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with fault injection disarmed."""
    faults.reset()
    yield
    faults.reset()


def _run(server: EngineServer, requests: list) -> list[dict]:
    lines = [r if isinstance(r, str) else json.dumps(r) for r in requests]
    out = io.StringIO()
    server.serve_stream(iter(line + "\n" for line in lines), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


# ---------------------------------------------------------------------------
# the fault-injection harness itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_parses_points_probabilities_and_seed(self):
        plan = faults.FaultPlan.from_spec(
            "worker_crash:0.2, disk_io:0.1,seed=42"
        )
        assert plan.probabilities == {"worker_crash": 0.2, "disk_io": 0.1}
        assert plan.seed == 42

    def test_unknown_point_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="unknown fault point"):
            faults.FaultPlan.from_spec("reactor_meltdown:0.5")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(faults.FaultSpecError, match=r"\[0, 1\]"):
            faults.FaultPlan.from_spec("disk_io:1.5")

    def test_malformed_entry_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultPlan.from_spec("disk_io=0.5")

    def test_seeded_plans_draw_identically(self):
        draws = []
        for _ in range(2):
            plan = faults.FaultPlan.from_spec("disk_io:0.5,seed=7")
            draws.append([plan.should_fire("disk_io") for _ in range(64)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_fired_counts_accumulate(self):
        plan = faults.FaultPlan({"disk_io": 1.0})
        for _ in range(3):
            assert plan.should_fire("disk_io")
        assert plan.to_dict()["fired"]["disk_io"] == 3

    def test_unconfigured_helpers_are_noops(self):
        faults.configure(None)
        assert not faults.active().probabilities
        faults.maybe_crash()
        faults.maybe_raise_os()
        faults.maybe_sleep()
        faults.maybe_raise("compile_error", RuntimeError("never"))

    def test_environment_spec_is_lazily_loaded(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "slow_task:1.0,seed=1")
        faults.reset()
        assert faults.active().probabilities == {"slow_task": 1.0}

    def test_configure_raises_on_demand(self):
        faults.configure("compile_error:1.0")
        marker = RuntimeError("injected")
        with pytest.raises(RuntimeError, match="injected"):
            faults.maybe_raise("compile_error", marker)


# ---------------------------------------------------------------------------
# the supervised worker pool (unit level, faked raw pool)
# ---------------------------------------------------------------------------


class _FakeGenerator:
    """Stands in for the real generator in serial-fallback paths."""

    def generate_from_source(self, source, name, verify=None):
        return f"gen:{name}"


def _install_fake_pool(monkeypatch, behaviors: list, rss_mb: float = 10.0):
    """Replace the raw WorkerPool with a scripted fake.

    ``behaviors`` is consumed one entry per ``run_tasks`` call:
    ``"crash"`` raises ``BrokenProcessPool``, ``"stall"`` raises
    ``PoolStalledError``, anything else succeeds. Returns a counters
    dict (``built``/``runs``/``closed``/``killed``).
    """
    calls = {"built": 0, "runs": 0, "closed": 0, "killed": 0}

    class FakePool:
        def __init__(self, generator, jobs):
            calls["built"] += 1
            self.jobs = jobs

        def run_tasks(self, specs, *, stall_timeout=None):
            calls["runs"] += 1
            behavior = behaviors.pop(0) if behaviors else "ok"
            if behavior == "crash":
                raise BrokenProcessPool("injected worker death")
            if behavior == "stall":
                raise PoolStalledError("injected wedged pool")
            return [
                TaskOutcome(i, f"module-{i}", None, rss_mb=rss_mb)
                for i in range(len(specs))
            ]

        def close(self):
            calls["closed"] += 1

        def kill(self):
            calls["killed"] += 1

    monkeypatch.setattr(workers, "WorkerPool", FakePool)
    return calls


FAST_BACKOFF = dict(backoff_base_seconds=0.001, backoff_max_seconds=0.002)
SPECS = [("", "a.py", False), ("", "b.py", False)]


class TestSupervisedWorkerPool:
    def test_restart_after_worker_death_then_success(self, monkeypatch):
        calls = _install_fake_pool(monkeypatch, ["crash", "ok"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(), 2, config=SupervisorConfig(**FAST_BACKOFF)
        )
        outcomes = pool.run_tasks(SPECS)
        assert [o.module for o in outcomes] == ["module-0", "module-1"]
        counts = pool.to_dict()
        assert counts["restarts"] == 1 and counts["retries"] == 1
        assert calls["built"] == 2  # dead pool discarded, fresh one built
        assert not pool.degraded
        assert pool.state == "running"

    def test_degrades_to_serial_when_budget_exhausted(self, monkeypatch):
        _install_fake_pool(monkeypatch, ["crash", "crash"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            2,
            config=SupervisorConfig(max_restarts=1, **FAST_BACKOFF),
        )
        outcomes = pool.run_tasks(SPECS)
        # The batch still completed — in-process, crash-immune.
        assert all(o.in_process for o in outcomes)
        assert [o.module for o in outcomes] == ["gen:a.py", "gen:b.py"]
        assert pool.degraded and pool.state == "degraded"
        assert pool.to_dict()["degraded_batches"] == 1
        assert pool.to_dict()["degraded"] is True

    def test_successful_batch_clears_degraded(self, monkeypatch):
        _install_fake_pool(monkeypatch, ["crash", "crash", "ok"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            2,
            config=SupervisorConfig(max_restarts=1, **FAST_BACKOFF),
        )
        pool.run_tasks(SPECS)
        assert pool.degraded
        pool.run_tasks(SPECS)
        assert not pool.degraded

    def test_probe_recovers_a_degraded_pool(self, monkeypatch):
        _install_fake_pool(monkeypatch, ["crash", "crash"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            2,
            config=SupervisorConfig(max_restarts=1, **FAST_BACKOFF),
        )
        pool.run_tasks(SPECS)
        assert pool.degraded
        assert pool.probe() is True
        assert not pool.degraded

    def test_recycles_after_task_budget(self, monkeypatch):
        calls = _install_fake_pool(monkeypatch, [])
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            1,
            config=SupervisorConfig(max_tasks_per_worker=1, **FAST_BACKOFF),
        )
        pool.run_tasks(SPECS)  # 2 tasks through a 1-worker pool
        pool.run_tasks(SPECS)  # budget exceeded -> planned rebuild first
        assert pool.to_dict()["recycles"] == 1
        assert calls["built"] == 2

    def test_recycles_on_memory_ceiling(self, monkeypatch):
        calls = _install_fake_pool(monkeypatch, [], rss_mb=512.0)
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            1,
            config=SupervisorConfig(worker_memory_mb=256, **FAST_BACKOFF),
        )
        pool.run_tasks(SPECS)
        pool.run_tasks(SPECS)
        assert pool.to_dict()["recycles"] == 1
        assert calls["built"] == 2

    def test_counts_live_in_the_owners_diagnostics(self, monkeypatch):
        # Crash, crash (budget exhausted: degraded), then a recycle and
        # a clean batch.
        _install_fake_pool(monkeypatch, ["crash", "crash", "ok"])
        owner = Diagnostics()
        config = SupervisorConfig(
            max_restarts=1, max_tasks_per_worker=1, **FAST_BACKOFF
        )
        pool = SupervisedWorkerPool(
            _FakeGenerator(), 1, config=config, diagnostics=owner
        )
        pool.run_tasks(SPECS)
        pool.run_tasks(SPECS)
        pool.run_tasks(SPECS)
        snapshot = pool.to_dict()
        fields = {
            "batches": SUPERVISOR_BATCHES,
            "restarts": SUPERVISOR_RESTARTS,
            "retries": SUPERVISOR_RETRIES,
            "recycles": SUPERVISOR_RECYCLES,
            "degraded_batches": SUPERVISOR_DEGRADED,
        }
        assert {name: snapshot[name] for name in fields} == {
            "batches": 3,
            "restarts": 2,
            "retries": 1,
            "recycles": 1,
            "degraded_batches": 1,
        }
        for name, key in fields.items():
            assert snapshot[name] == owner.counter(key)
        # A rebuilt supervisor over the same owner carries the counts on.
        rebuilt = SupervisedWorkerPool(
            _FakeGenerator(), 1, config=config, diagnostics=owner
        )
        assert rebuilt.to_dict()["restarts"] == 2

    def test_backoff_is_bounded(self):
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            1,
            config=SupervisorConfig(
                backoff_base_seconds=0.05, backoff_max_seconds=0.2, jitter=0.25
            ),
        )
        for attempt in range(10):
            sleep = pool._backoff(attempt)
            assert 0.0 <= sleep <= 0.2 * 1.25

    def test_stalled_pool_is_killed_not_closed_and_restarted(
        self, monkeypatch
    ):
        # A wedged pool still has live workers — joining them would
        # hang forever, so the supervisor must kill() it.
        calls = _install_fake_pool(monkeypatch, ["stall", "ok"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(), 2, config=SupervisorConfig(**FAST_BACKOFF)
        )
        outcomes = pool.run_tasks(SPECS)
        assert [o.module for o in outcomes] == ["module-0", "module-1"]
        assert pool.to_dict()["restarts"] == 1
        assert calls["killed"] == 1 and calls["closed"] == 0
        assert not pool.degraded

    def test_persistent_stall_degrades_to_serial(self, monkeypatch):
        _install_fake_pool(monkeypatch, ["stall", "stall"])
        pool = SupervisedWorkerPool(
            _FakeGenerator(),
            2,
            config=SupervisorConfig(max_restarts=1, **FAST_BACKOFF),
        )
        outcomes = pool.run_tasks(SPECS)
        assert all(o.in_process for o in outcomes)
        assert pool.degraded


# ---------------------------------------------------------------------------
# pool plumbing: fork safety and the stall watchdog
# ---------------------------------------------------------------------------


class TestPoolPlumbing:
    def test_pool_never_forks_a_multithreaded_parent(self):
        # Regression guard: the serve daemon is multithreaded, and
        # fork-after-threads intermittently deadlocks workers before
        # they pick up their first task (the executor then waits on
        # the future forever). The pool must use a start method that
        # does not fork the parent directly.
        assert workers.pool_mp_context().get_start_method() != "fork"

    def test_stall_watchdog_raises_instead_of_waiting_forever(
        self, monkeypatch
    ):
        # A thread executor sees the monkeypatched task directly (no
        # pickling), so a never-finishing task models a wedged worker.
        from concurrent.futures import ThreadPoolExecutor

        release = threading.Event()

        def wedged_task(index, task):
            release.wait(5.0)
            return TaskOutcome(index, None, None)

        monkeypatch.setattr(workers, "run_task", wedged_task)
        with ThreadPoolExecutor(max_workers=1) as executor:
            started = time.monotonic()
            with pytest.raises(PoolStalledError):
                workers.run_tasks_on_executor(
                    executor, SPECS, stall_timeout=0.05
                )
            assert time.monotonic() - started < 2.0
            release.set()  # let the wedged task finish so shutdown joins

    def test_watchdog_resets_on_progress(self, monkeypatch):
        # Slow-but-progressing batches must not trip the watchdog: the
        # clock is per-completion, not per-batch.
        from concurrent.futures import ThreadPoolExecutor

        def slow_task(index, task):
            time.sleep(0.04)
            return TaskOutcome(index, f"module-{index}", None)

        monkeypatch.setattr(workers, "run_task", slow_task)
        specs = [("", f"{n}.py", False) for n in range(4)]
        with ThreadPoolExecutor(max_workers=1) as executor:
            # 4 serial tasks x 40ms ≈ 160ms total, but no single gap
            # exceeds the 60ms stall budget.
            outcomes = workers.run_tasks_on_executor(
                executor, specs, stall_timeout=0.06
            )
        assert [o.module for o in outcomes] == [
            f"module-{n}" for n in range(4)
        ]


# ---------------------------------------------------------------------------
# a parallel batch on the supervised pool, under worker crashes
# ---------------------------------------------------------------------------


class TestCrashingPool:
    def test_crashing_workers_in_a_threaded_parent_still_match_serial(
        self, monkeypatch
    ):
        templates = [TEMPLATE, TEMPLATE_2]
        # seed=1 fires on each worker's first draw, so every pool
        # incarnation crashes: the supervisor restarts, then degrades.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_crash:0.5,seed=1")
        faults.reset()
        serial_engine = CryptoGenEngine()
        engine = CryptoGenEngine(
            supervisor_config=SupervisorConfig(max_restarts=2, **FAST_BACKOFF)
        )
        stop = threading.Event()
        bystander = threading.Thread(target=stop.wait, daemon=True)
        bystander.start()
        try:
            serial = serial_engine.generate_many(templates, jobs=1)
            parallel = engine.generate_many(templates, jobs=2)
            assert bystander.is_alive()
            pool = engine.health(probe=False)["pool"]
        finally:
            stop.set()
            serial_engine.close()
            engine.close()
        assert all(r.ok for r in serial) and all(r.ok for r in parallel)
        assert [r.module.source for r in parallel] == [
            r.module.source for r in serial
        ]
        assert pool["restarts"] > 0


# ---------------------------------------------------------------------------
# circuit breakers (registry unit level)
# ---------------------------------------------------------------------------


def _breaker_state(registry: BreakerRegistry, key: tuple[str, str]) -> str:
    """A breaker's state as the ``health``/``stats`` snapshot reports it."""
    for entry in registry.to_dict()["open"]:
        if (entry["op"], entry["fingerprint"]) == (key[0], key[1][:12]):
            return entry["state"]
    return "closed"


class TestBreakerRegistry:
    KEY = ("generate", "a" * 64)

    def _tripped(self, registry: BreakerRegistry) -> None:
        for _ in range(registry.config.failure_threshold):
            registry.record_failure(self.KEY)

    def test_trips_after_consecutive_failures(self):
        registry = BreakerRegistry(BreakerConfig(failure_threshold=3))
        registry.record_failure(self.KEY)
        registry.record_failure(self.KEY)
        registry.admit(self.KEY)  # still closed
        registry.record_failure(self.KEY)
        assert _breaker_state(registry, self.KEY) == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            registry.admit(self.KEY)
        assert excinfo.value.retry_after_ms > 0

    def test_success_resets_the_failure_count(self):
        registry = BreakerRegistry(BreakerConfig(failure_threshold=2))
        registry.record_failure(self.KEY)
        registry.record_success(self.KEY)
        registry.record_failure(self.KEY)
        assert _breaker_state(registry, self.KEY) == "closed"

    def test_half_open_admits_one_probe_then_closes_on_success(self):
        registry = BreakerRegistry(
            BreakerConfig(failure_threshold=2, cooldown_seconds=0.01)
        )
        self._tripped(registry)
        time.sleep(0.02)
        registry.admit(self.KEY)  # the probe slot
        assert _breaker_state(registry, self.KEY) == "half-open"
        # A second caller while the probe is in flight still fails fast.
        with pytest.raises(CircuitOpenError):
            registry.admit(self.KEY)
        registry.record_success(self.KEY)
        assert _breaker_state(registry, self.KEY) == "closed"
        registry.admit(self.KEY)

    def test_half_open_probe_failure_reopens(self):
        registry = BreakerRegistry(
            BreakerConfig(failure_threshold=2, cooldown_seconds=0.01)
        )
        self._tripped(registry)
        time.sleep(0.02)
        registry.admit(self.KEY)
        registry.record_failure(self.KEY)
        assert _breaker_state(registry, self.KEY) == "open"
        with pytest.raises(CircuitOpenError):
            registry.admit(self.KEY)

    def test_reset_drops_everything(self):
        registry = BreakerRegistry(BreakerConfig(failure_threshold=1))
        self._tripped(registry)
        assert registry.reset() == 1
        registry.admit(self.KEY)
        assert registry.to_dict()["resets"] == 1

    def test_registry_is_bounded(self):
        registry = BreakerRegistry(
            BreakerConfig(failure_threshold=1, max_breakers=2)
        )
        for n in range(5):
            registry.record_failure(("generate", f"fingerprint-{n}"))
        assert registry.to_dict()["tracked"] <= 2

    def test_snapshot_reports_open_keys(self):
        registry = BreakerRegistry(BreakerConfig(failure_threshold=1))
        registry.record_failure(self.KEY)
        snapshot = registry.to_dict()
        assert snapshot["by_state"]["open"] == 1
        assert snapshot["open"][0]["op"] == "generate"

    def test_trips_outlive_the_registry_bound(self):
        registry = BreakerRegistry(
            BreakerConfig(failure_threshold=1, max_breakers=2)
        )
        for n in range(5):
            registry.record_failure(("generate", f"fingerprint-{n}"))
        snapshot = registry.to_dict()
        assert snapshot["tracked"] == 2
        assert snapshot["trips"] == registry.diagnostics.counter(BREAKER_OPENS)
        assert snapshot["trips"] == 5


# ---------------------------------------------------------------------------
# circuit breakers through the engine (the acceptance shape)
# ---------------------------------------------------------------------------

BAD_SOURCE = "this is not a python template {{{"


class TestEngineBreakers:
    @pytest.fixture()
    def engine(self):
        eng = CryptoGenEngine(
            breaker_config=BreakerConfig(
                failure_threshold=5, cooldown_seconds=60.0
            )
        )
        yield eng
        eng.close()

    def _fail_once(self, engine) -> object:
        result = engine.generate(
            GenerateRequest(source=BAD_SOURCE, name="bad.py")
        )
        assert result.error is not None
        return result

    def test_five_failures_open_the_breaker_then_fast_fail(self, engine):
        for _ in range(5):
            result = self._fail_once(engine)
            assert result.error.type != "CircuitOpenError"
        # Tripped: the same input now fails fast, structurally.
        fast = self._fail_once(engine)
        assert fast.error.type == "CircuitOpenError"
        assert fast.error.retryable is True
        assert fast.error.retry_after_ms > 0
        # Fast means fast: no pipeline work, sub-10ms (best of 5 to
        # keep a loaded CI box from flaking the assertion).
        timings = []
        for _ in range(5):
            started = time.perf_counter()
            self._fail_once(engine)
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.010

    def test_other_inputs_are_unaffected(self, engine):
        for _ in range(6):
            self._fail_once(engine)
        good = engine.generate(GenerateRequest(template=TEMPLATE))
        assert good.error is None

    def test_half_open_probe_closes_after_transient_failures(self):
        engine = CryptoGenEngine(
            breaker_config=BreakerConfig(
                failure_threshold=3, cooldown_seconds=0.05
            )
        )
        try:
            # A *transient* poison: the injected compile fault fails a
            # perfectly good template until the fault is disarmed.
            faults.configure("compile_error:1.0")
            for _ in range(3):
                result = engine.generate(GenerateRequest(template=TEMPLATE))
                assert result.error is not None
            tripped = engine.generate(GenerateRequest(template=TEMPLATE))
            assert tripped.error.type == "CircuitOpenError"
            faults.reset()
            time.sleep(0.06)
            # Cooldown elapsed: this request is the half-open probe; it
            # succeeds and closes the breaker.
            probe = engine.generate(GenerateRequest(template=TEMPLATE))
            assert probe.error is None
            again = engine.generate(GenerateRequest(template=TEMPLATE))
            assert again.error is None
        finally:
            engine.close()

    def test_refresh_rules_resets_breakers(self, tmp_path):
        import shutil

        rules = tmp_path / "rules"
        rules.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, rules / path.name)
        engine = CryptoGenEngine(
            rules_dir=rules,
            breaker_config=BreakerConfig(
                failure_threshold=2, cooldown_seconds=600.0
            ),
        )
        try:
            for _ in range(2):
                result = engine.generate(
                    GenerateRequest(source=BAD_SOURCE, name="bad.py")
                )
                assert result.error is not None
            tripped = engine.generate(
                GenerateRequest(source=BAD_SOURCE, name="bad.py")
            )
            assert tripped.error.type == "CircuitOpenError"
            engine.refresh_rules()
            # The operator said "try again": the pipeline actually runs.
            retried = engine.generate(
                GenerateRequest(source=BAD_SOURCE, name="bad.py")
            )
            assert retried.error is not None
            assert retried.error.type != "CircuitOpenError"
        finally:
            engine.close()

    def test_breaker_counts_have_one_source(self, tmp_path):
        """Two inputs trip, then a refresh drops their breakers: the
        ``stats`` block still reports both trips and the reset, from the
        same counters ``stats.diagnostics`` shows."""
        import shutil

        rules = tmp_path / "rules"
        rules.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, rules / path.name)
        engine = CryptoGenEngine(
            rules_dir=rules,
            breaker_config=BreakerConfig(
                failure_threshold=1, cooldown_seconds=600.0
            ),
        )
        server = EngineServer(engine)
        try:
            for tag in ("a", "b"):
                result = engine.generate(
                    GenerateRequest(source=f"{BAD_SOURCE} {tag}", name="bad.py")
                )
                assert result.error is not None
            engine.refresh_rules()
            stats = server.handle_line(json.dumps({"op": "stats"}))
            counters = stats["diagnostics"]["counters"]
            assert stats["breakers"]["tracked"] == 0
            assert stats["breakers"]["trips"] == counters[BREAKER_OPENS] == 2
            assert stats["breakers"]["resets"] == counters[BREAKER_RESETS] == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# admission control, deadline shedding, health (serve layer)
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def _slow_server(self, monkeypatch, **kwargs) -> EngineServer:
        server = EngineServer(CryptoGenEngine(), **kwargs)
        real_generate = server.engine.generate

        def slow_generate(request):
            time.sleep(0.3)
            return real_generate(request)

        monkeypatch.setattr(server.engine, "generate", slow_generate)
        return server

    def test_overflow_is_rejected_with_retry_hint(self, monkeypatch):
        server = self._slow_server(monkeypatch, workers=4, max_pending=2)
        responses = _run(
            server,
            [
                {"id": n, "op": "generate", "template": TEMPLATE}
                for n in range(1, 5)
            ]
            + [{"id": 99, "op": "ping"}],
        )
        admitted = responses[:2]
        rejected = responses[2:4]
        ping = responses[4]
        assert all(r["ok"] for r in admitted)
        for response in rejected:
            assert response["ok"] is False
            assert response["error"]["type"] == "OverloadedError"
            assert response["error"]["retryable"] is True
            assert response["error"]["retry_after_ms"] >= 50.0
        # Control ops bypass admission: the overloaded server stays
        # observable.
        assert ping["ok"] and ping["op"] == "ping"
        # Ordered responses survived the rejections.
        assert [r["seq"] for r in responses] == [1, 2, 3, 4, 5]
        stats = server.metrics.to_dict(server.engine.diagnostics)
        assert stats["overloads"] == 2

    def test_server_counts_have_one_source(self, monkeypatch):
        server = self._slow_server(monkeypatch, workers=4, max_pending=2)
        _run(
            server,
            [
                {"id": n, "op": "generate", "template": TEMPLATE}
                for n in range(1, 5)
            ],
        )
        server._execute(
            "ping", {"id": 5, "op": "ping"}, deadline=time.monotonic() - 1.0
        )
        stats = server.handle_line(json.dumps({"op": "stats"}))
        health = server.handle_line(
            json.dumps({"op": "health", "probe": False})
        )
        counters = stats["diagnostics"]["counters"]
        for name, key in SERVER_COUNTS.items():
            assert (
                stats["server"][name]
                == health["server"][name]
                == counters.get(key, 0)
            ), name
        assert stats["server"]["overloads"] == 2
        assert stats["server"]["shed"] == 1

    def test_per_connection_bound(self, monkeypatch):
        server = self._slow_server(
            monkeypatch, workers=4, max_pending_per_conn=1
        )
        responses = _run(
            server,
            [
                {"id": 1, "op": "generate", "template": TEMPLATE},
                {"id": 2, "op": "generate", "template": TEMPLATE},
            ],
        )
        assert responses[0]["ok"]
        assert responses[1]["error"]["type"] == "OverloadedError"

    def test_slots_are_released_after_completion(self, monkeypatch):
        server = self._slow_server(monkeypatch, workers=2, max_pending=1)
        first = _run(server, [{"id": 1, "op": "generate", "template": TEMPLATE}])
        assert first[0]["ok"]
        # serve_stream tears the pool down; a fresh stream on the same
        # server must get a fresh admission slot.
        assert server._pending_depth() == 0

    def test_overload_rejects_fast_with_bounded_p99(
        self, monkeypatch, socket_server
    ):
        """A herd of 32 clients against max_pending=4 over 2 workers:
        overflow is rejected at once with a retry hint, admitted work
        completes, and p99 time-to-response stays bounded."""
        clients = 32
        engine = CryptoGenEngine(
            ruleset=RuleSet.bundled(), result_cache_size=0
        )
        real_generate = engine.generate

        def slow_generate(request):
            time.sleep(0.05)
            return real_generate(request)

        monkeypatch.setattr(engine, "generate", slow_generate)
        server, path, thread = socket_server(
            engine, workers=2, max_pending=4, timeout=30.0
        )

        def timed(tag: int) -> tuple[dict, float]:
            started = time.perf_counter()
            [response] = roundtrip(
                path, [{"id": f"c{tag}", "op": "generate", "template": TEMPLATE}]
            )
            return response, time.perf_counter() - started

        # Warm the engine so admitted requests measure queueing, not
        # cold DFA builds.
        timed(-1)
        barrier = threading.Barrier(clients + 1)
        results: list[tuple[dict, float]] = []
        lock = threading.Lock()

        def client(tag: int) -> None:
            barrier.wait()
            outcome = timed(tag)
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=client, args=(tag,))
            for tag in range(clients)
        ]
        for worker in threads:
            worker.start()
        barrier.wait()
        for worker in threads:
            worker.join(timeout=120)
            assert not worker.is_alive(), "client hung under overload"
        timed(-2)  # the server still serves after the herd
        roundtrip(path, [{"id": "bye", "op": "shutdown"}])
        thread.join(30.0)

        admitted, rejected, malformed = [], [], []
        for response, elapsed in results:
            if response.get("ok"):
                admitted.append(elapsed)
            elif (
                response.get("error", {}).get("type") == "OverloadedError"
                and response["error"].get("retry_after_ms", 0) > 0
                and response["error"].get("retryable") is True
            ):
                rejected.append(elapsed)
            else:
                malformed.append(response)
        assert not malformed, malformed[:3]

        def p99(samples: list[float]) -> float:
            ordered = sorted(samples)
            return ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]

        # The herd is 8x the queue bound, so rejections must occur; an
        # unbounded 32-deep queue over 2 workers would cost 0.8 s of
        # queueing alone.
        assert len(admitted) + len(rejected) == clients
        assert rejected, "no request was load-shed despite 8x oversubscription"
        assert admitted, "every request was rejected; admission over-shed"
        assert p99(admitted + rejected) < 5.0
        assert p99(rejected) < 1.0, "rejections must not queue"

    def test_queued_past_deadline_is_shed_without_running(self):
        server = EngineServer(CryptoGenEngine())
        try:
            response = server._execute(
                "ping",
                {"id": 1, "op": "ping"},
                deadline=time.monotonic() - 1.0,
            )
            assert response["ok"] is False
            assert response["error"]["type"] == "TimeoutError"
            assert "shed" in response["error"]["message"]
            stats = server.metrics.to_dict(server.engine.diagnostics)
            assert stats["shed"] == 1
        finally:
            server.engine.close()

    def test_deadline_ms_combines_with_server_timeout(self):
        server = EngineServer(CryptoGenEngine(), timeout=10.0)
        try:
            now = time.monotonic()
            tight = server._deadline_for({"op": "ping", "deadline_ms": 100})
            assert tight is not None and tight - now < 1.0
            loose = server._deadline_for({"op": "ping", "deadline_ms": 60000})
            assert loose is not None and 9.0 < loose - now <= 10.1
            assert server._deadline_for({"op": "ping", "deadline_ms": "bogus"})
            no_limit = EngineServer(CryptoGenEngine())
            assert no_limit._deadline_for({"op": "ping"}) is None
            no_limit.engine.close()
        finally:
            server.engine.close()


class TestHealthOp:
    def test_health_reports_healthy_baseline(self):
        server = EngineServer(
            CryptoGenEngine(), max_pending=8, max_pending_per_conn=2
        )
        [response] = _run(server, [{"id": 1, "op": "health"}])
        assert response["ok"]
        assert response["state"] == "healthy"
        assert response["degraded"] is False
        assert response["protocol"] == 3
        assert response["queue"]["max_pending"] == 8
        assert response["queue"]["max_pending_per_conn"] == 2
        assert response["breakers"]["tracked"] == 0
        assert response["server"]["overloads"] == 0

    def test_stats_carries_the_fault_tolerance_blocks(self):
        server = EngineServer(CryptoGenEngine())
        [response] = _run(server, [{"id": 1, "op": "stats"}])
        assert "admission" in response
        assert "breakers" in response
        assert response["degraded"] is False

    def test_result_cache_counts_have_one_source(self):
        server = EngineServer(CryptoGenEngine())
        for n in range(3):
            server.handle_line(
                json.dumps({"id": n, "op": "generate", "template": TEMPLATE})
            )
        stats = server.handle_line(json.dumps({"op": "stats"}))
        counters = stats["diagnostics"]["counters"]
        for field in ("hits", "misses"):
            assert (
                stats["result_cache"][field]
                == counters[f"result_cache.{field}"]
            ), field
        assert stats["result_cache"]["hits"] == 2
        assert stats["result_cache"]["misses"] == 1

    def test_disk_io_errors_have_one_source(self, tmp_path):
        engine = CryptoGenEngine(cache_dir=tmp_path / "cache")
        try:
            faults.configure("disk_io:0.5,seed=1")
            engine.generate(GenerateRequest(template=TEMPLATE))
            faults.reset()
            health = engine.health(probe=False)
            store = engine.ruleset.disk_cache.diagnostics
            assert health["disk_cache"]["io_errors"] > 0
            assert (
                health["disk_cache"]["io_errors"]
                == store.counter(DISK_IO_ERRORS)
            )
        finally:
            engine.close()

    def test_summary_store_io_errors_reach_health(self, tmp_path):
        engine = CryptoGenEngine(cache_dir=tmp_path / "cache")
        try:
            faults.configure("disk_io:0.3,seed=1")
            for n in range(20):
                sources = {
                    **ANALYZE_SOURCES,
                    "helpers.py": f"def make_iv():\n    return b'{n}' * 16\n",
                }
                assert engine.analyze(AnalyzeRequest(sources=sources)).ok
            faults.reset()
            server = EngineServer(engine)
            [health] = _run(server, [{"id": 1, "op": "health", "probe": False}])
            store = engine.summary_cache.disk.diagnostics
            count = health["disk_cache"]["summary_store.io_errors"]
            assert count > 0
            assert count == store.counter("summary_store.io_errors")
        finally:
            engine.close()


class TestBoundedDiskStores:
    def test_analyze_traffic_under_disk_faults_stays_bounded(self, tmp_path):
        """300 analyze requests, each missing every summary, over a disk
        that fails 30% of I/O: the engine keeps at most MAX_WARNINGS
        warnings, the I/O errors are counted, and no store holds a
        list that grows with traffic."""
        engine = CryptoGenEngine(cache_dir=tmp_path / "cache")
        try:
            faults.configure("disk_io:0.3,seed=1")
            for n in range(300):
                sources = {
                    **ANALYZE_SOURCES,
                    "helpers.py": f"def make_iv():\n    return b'{n}' * 16\n",
                }
                result = engine.analyze(AnalyzeRequest(sources=sources))
                assert result.ok
            faults.reset()
            diagnostics = engine.diagnostics
            assert len(diagnostics.warnings) <= MAX_WARNINGS
            assert diagnostics.warnings_dropped > 0
            assert diagnostics.counter("summary_store.io_errors") > 0
            summary_store = engine.summary_cache.disk
            for store in (summary_store, engine.ruleset.disk_cache):
                assert not any(
                    isinstance(value, list) for value in vars(store).values()
                )
                assert len(store.diagnostics.warnings) <= MAX_WARNINGS
            assert (
                summary_store.diagnostics.counter("summary_store.io_errors")
                == diagnostics.counter("summary_store.io_errors")
            )
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# the chaos storm (acceptance): 4 clients, 200 requests, seeded faults
# ---------------------------------------------------------------------------

CHAOS_SPEC = "worker_crash:0.2,disk_io:0.1,slow_task:0.1,seed=1234"
CHAOS_CLIENTS = 4
CHAOS_PER_CLIENT = 50


def _chaos_requests(tag: int) -> list[dict]:
    """One client's 50-request mix: generates, analyzes, pool batches."""
    requests = []
    for n in range(CHAOS_PER_CLIENT):
        request_id = f"c{tag}-{n}"
        if n % 25 == 7:
            # Batch generates route through the supervised process
            # pool — the only path the worker_crash fault can reach.
            requests.append(
                {
                    "id": request_id,
                    "op": "generate",
                    "templates": [TEMPLATE, TEMPLATE_2, TEMPLATE_3],
                    "jobs": 2,
                }
            )
        elif n % 5 == 2:
            requests.append(
                {"id": request_id, "op": "analyze", "sources": ANALYZE_SOURCES}
            )
        else:
            requests.append(
                {"id": request_id, "op": "generate", "template": TEMPLATE}
            )
    return requests


@pytest.mark.slow
def test_chaos_storm_zero_failures_and_healthy_finish(tmp_path, serve_process):
    process, path = serve_process(
        "--cache-dir",
        str(tmp_path / "cache"),
        "--serve-workers",
        "4",
        env={faults.FAULTS_ENV: CHAOS_SPEC},
    )

    failures: list[str] = []
    seqs: dict[int, list[int]] = {}

    def client(tag: int) -> None:
        responses = roundtrip(path, _chaos_requests(tag))
        seqs[tag] = [r.get("seq") for r in responses]
        for response in responses:
            if not isinstance(response, dict) or "ok" not in response:
                failures.append(f"non-structured response: {response!r}")
            elif not response["ok"]:
                failures.append(str(response)[:200])
            elif response.get("batch") is not None and response["failed"]:
                failures.append(f"batch item failed: {response!r}"[:200])

    threads = [
        threading.Thread(target=client, args=(tag,))
        for tag in range(CHAOS_CLIENTS)
    ]
    for worker in threads:
        worker.start()
    for worker in threads:
        worker.join(timeout=600)
        assert not worker.is_alive(), "chaos client hung"

    assert not failures, failures[:5]
    # Every client got all its answers, in its own request order.
    assert seqs == {
        tag: list(range(1, CHAOS_PER_CLIENT + 1))
        for tag in range(CHAOS_CLIENTS)
    }

    [stats] = roundtrip(path, [{"id": "stats", "op": "stats"}])
    [health] = roundtrip(path, [{"id": "health", "op": "health"}])
    roundtrip(path, [{"id": "bye", "op": "shutdown"}])
    process.wait(timeout=30)
    (tmp_path / "chaos-stats.json").write_text(
        json.dumps({"stats": stats, "health": health}, indent=2)
    )

    # The storm actually stormed: the supervisor restarted the pool at
    # least once (worker_crash p=0.2 over 24+ pool tasks), and the serve
    # loop still answered everything.
    assert stats["supervisor"] is not None
    assert stats["supervisor"]["restarts"] > 0
    assert stats["server"]["completed"] >= CHAOS_CLIENTS * CHAOS_PER_CLIENT
    # The final health check comes back healthy (probing recovers a
    # degraded pool if one batch exhausted its restart budget).
    assert health["ok"] and health["state"] == "healthy"
    assert health["degraded"] is False
