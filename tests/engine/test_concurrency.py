"""Concurrent engine behaviour: thread safety, single-flight, ordering.

These tests pin the concurrency contract of the resident engine layer:
one :class:`CryptoGenEngine` under many threads never corrupts state
or raises, N concurrent requests needing the same uncompiled rule
trigger exactly one DFA build (single-flight), and the socket server
answers each connection strictly in request order no matter how the
shared worker pool interleaves execution. At 4 clients the shared pool
plus the result cache serve at least twice the requests/sec of the
serial shape (one worker, no result cache).
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.crysl import RuleSet
from repro.diagnostics import DFA_BUILDS
from repro.engine import AnalyzeRequest, CryptoGenEngine, GenerateRequest
from repro.usecases import use_case

from .conftest import roundtrip

TEMPLATE = str(use_case(1).template_path())
THREADS = 16


def _cold_engine() -> CryptoGenEngine:
    """A private, cold engine with the result cache out of the way."""
    return CryptoGenEngine(ruleset=RuleSet.bundled(), result_cache_size=0)


class TestSingleFlight:
    def test_concurrent_cold_requests_compile_each_rule_once(self):
        # Serial baseline: how many DFA builds one cold generate costs.
        with _cold_engine() as baseline_engine:
            baseline = baseline_engine.generate(
                GenerateRequest(template=TEMPLATE)
            )
            assert baseline.ok and baseline.dfa_builds > 0

        engine = _cold_engine()
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(
                pool.map(
                    lambda _: engine.generate(
                        GenerateRequest(template=TEMPLATE)
                    ),
                    range(THREADS),
                )
            )
        assert all(r.ok for r in results)
        # Single-flight proof: 16 simultaneous cold requests build each
        # DFA exactly once — the global counter matches the serial run.
        builds = engine.ruleset.diagnostics.counter(DFA_BUILDS)
        assert builds == baseline.dfa_builds
        # Per-request attribution agrees: the winning threads' request
        # records account for every build, the waiters record zero.
        assert sum(r.dfa_builds for r in results) == baseline.dfa_builds
        assert engine.requests == THREADS
        engine.close()

    def test_result_cache_serves_concurrent_repeats_without_builds(self):
        engine = CryptoGenEngine(ruleset=RuleSet.bundled())
        first = engine.generate(GenerateRequest(template=TEMPLATE))
        assert first.ok
        builds_before = engine.ruleset.diagnostics.counter(DFA_BUILDS)
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(
                pool.map(
                    lambda _: engine.generate(
                        GenerateRequest(template=TEMPLATE)
                    ),
                    range(THREADS),
                )
            )
        assert all(r.ok and r.cached and r.dfa_builds == 0 for r in results)
        assert engine.ruleset.diagnostics.counter(DFA_BUILDS) == builds_before
        assert engine.result_cache.count("hits") >= THREADS
        engine.close()


class TestMixedStress:
    @pytest.fixture()
    def rules_copy(self, tmp_path):
        directory = tmp_path / "rules"
        directory.mkdir()
        for path in sorted(Path("src/repro/rules").glob("*.crysl")):
            shutil.copy(path, directory / path.name)
        return directory

    def test_sixteen_threads_mixed_ops(self, rules_copy):
        engine = CryptoGenEngine(rules_dir=rules_copy)
        analyze_source = engine.generate(
            GenerateRequest(template=TEMPLATE)
        ).module.source
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            try:
                for round_no in range(3):
                    which = (index + round_no) % 3
                    if which == 0:
                        result = engine.generate(
                            GenerateRequest(template=TEMPLATE)
                        )
                        assert result.ok, result.error
                    elif which == 1:
                        result = engine.analyze(
                            AnalyzeRequest(
                                sources={"m.py": analyze_source}
                            )
                        )
                        assert result.ok, result.error
                    else:
                        report = engine.refresh_rules()
                        assert report is not None
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # The cumulative record stayed coherent under the stampede.
        assert engine.diagnostics.counter("repository.refreshes") > 0
        engine.close()


class TestPerConnectionOrdering:
    def test_two_pipelined_clients_get_ordered_responses(self, socket_server):
        server, path, thread = socket_server(workers=4)
        per_client = 10

        def client(tag: str) -> list[dict]:
            return roundtrip(
                path,
                [
                    {"id": f"{tag}-{n}", "op": "ping"}
                    for n in range(per_client)
                ],
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(client, tag) for tag in ("a", "b")]
            all_responses = [f.result(timeout=60) for f in futures]

        for tag, responses in zip(("a", "b"), all_responses):
            # Responses arrive in request order, with per-connection
            # sequence numbers starting from 1.
            assert [r["id"] for r in responses] == [
                f"{tag}-{n}" for n in range(per_client)
            ]
            assert [r["seq"] for r in responses] == list(
                range(1, per_client + 1)
            )
            assert all(r["ok"] for r in responses)

        roundtrip(path, [{"id": "stop", "op": "shutdown"}])
        thread.join(10.0)
        assert not thread.is_alive()

    def test_two_clients_share_one_warm_daemon(self, serve_process, tmp_path):
        """Two pipelining clients against a real ``serve`` process: each
        connection keeps its order, rules compile once across both, and
        the repeat traffic hits the result cache."""
        process, path = serve_process("--no-cache", "--serve-workers", "4")

        def client(tag: str) -> list[dict]:
            return roundtrip(
                path,
                [
                    {"id": f"{tag}-{n}", "op": "generate", "template": TEMPLATE}
                    for n in range(5)
                ],
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {tag: pool.submit(client, tag) for tag in ("a", "b")}
            results = {tag: f.result(timeout=120) for tag, f in futures.items()}

        generates = results["a"] + results["b"]
        assert len(generates) == 10 and all(r["ok"] for r in generates)
        for tag in ("a", "b"):
            assert [r["id"] for r in results[tag]] == [
                f"{tag}-{n}" for n in range(5)
            ]
            assert [r["seq"] for r in results[tag]] == list(range(1, 6))

        [stats] = roundtrip(path, [{"id": "s", "op": "stats"}])
        roundtrip(path, [{"id": "x", "op": "shutdown"}])
        assert process.wait(timeout=30) == 0
        (tmp_path / "serve-stats.json").write_text(json.dumps(stats, indent=2))

        # Flat DFA builds: the rules compiled once across both clients.
        # Each rule's single-flight build is billed to whichever request
        # won it, so the builds may be split but sum to one cold compile.
        total_builds = sum(r["dfa_builds"] for r in generates)
        assert stats["compiled_rules"]["dfa_builds"] == total_builds
        with _cold_engine() as cold:
            one_compile = cold.generate(GenerateRequest(template=TEMPLATE))
        assert total_builds == one_compile.dfa_builds > 0
        # ...and the repeat traffic hit the memoized result cache.
        assert stats["result_cache"]["hits"] > 0, stats["result_cache"]
        assert stats["result_cache"]["hit_rate"] > 0.0
        assert any(r["cached"] for r in generates)


def _load(path: Path, clients: int, per_client: int) -> float:
    """Wall-clock seconds for ``clients`` pipelining ``per_client``
    generates each, released together."""
    barrier = threading.Barrier(clients + 1)
    failures: list[str] = []

    def client(tag: int) -> None:
        requests = [
            {"id": f"c{tag}-{n}", "op": "generate", "template": TEMPLATE}
            for n in range(per_client)
        ]
        barrier.wait()
        for response in roundtrip(path, requests):
            if not response.get("ok"):
                failures.append(str(response))

    threads = [
        threading.Thread(target=client, args=(tag,)) for tag in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    assert not failures, failures[:3]
    return elapsed


class TestThroughput:
    def test_concurrent_clients_scale_and_hit_the_result_cache(
        self, socket_server
    ):
        """Requests/sec at 4 clients: the shared pool plus the result
        cache against the serial shape (one worker, no result cache)."""
        per_client = 10
        warm = {"id": "warm", "op": "generate", "template": TEMPLATE}

        serial = CryptoGenEngine(ruleset=RuleSet.bundled(), result_cache_size=0)
        _, path, thread = socket_server(serial, workers=1)
        roundtrip(path, [warm])
        baseline_rps = 4 * per_client / _load(path, 4, per_client)
        roundtrip(path, [{"id": "bye", "op": "shutdown"}])
        thread.join(30.0)

        shared = CryptoGenEngine(
            ruleset=RuleSet.bundled(), result_cache_size=256
        )
        _, path, thread = socket_server(shared, workers=8)
        [first] = roundtrip(path, [warm])
        rps = 4 * per_client / _load(path, 4, per_client)
        [stats] = roundtrip(path, [{"id": "stats", "op": "stats"}])
        roundtrip(path, [{"id": "bye", "op": "shutdown"}])
        thread.join(30.0)

        # Serving stayed warm: no DFA rebuilds after the warm-up one.
        assert stats["compiled_rules"]["dfa_builds"] == first["dfa_builds"]
        speedup = rps / baseline_rps
        assert speedup >= 2.0, f"only {speedup:.2f}x over the serial baseline"
        assert stats["result_cache"]["hits"] > 0
        assert stats["result_cache"]["hit_rate"] > 0.0
