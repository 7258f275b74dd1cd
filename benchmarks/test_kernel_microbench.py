"""Kernel microbenchmarks and the benchmark-trajectory gate.

Measures the compiled :class:`~repro.fsm.kernel.DfaKernel` hot path
against the dict-based reference DFA it replaced, which lives on as the
test oracle in ``tests/fsm/reference.py`` (import it from the repo
root: ``python -m pytest`` puts the working directory on the path):

* **stepping** — events/sec replaying seeded *live* event walks (legal
  sequences that never enter the dead state, so neither machine gets to
  take a cheap dead-state shortcut), one fresh walker per walk exactly
  as the analyzer allocates per tracked object;
* **stepping_reuse** — the same walks through one pooled walker per
  rule via in-place ``reset()``, the analyzer's restart path;
* **liveness** — ``can_still_accept`` queries/sec from a mid-protocol
  state (a single bit test; the dict walker re-ran a DFS per call);
* **walker_alloc** — walker allocations/sec, kernel vs. dict;
* **warm_analysis** — end-to-end analyses/sec of generated use-case
  modules through ``ProjectAnalyzer.analyze_sources`` with the rules
  compiled and the summary cache off, so every function runs the
  per-function engine.

Every metric lands in ``BENCH_10.json`` at the repo root — written
even when a gate fails, so CI artifacts always carry the trajectory.
Gates: the headline stepping speedup must stay >= 2x, and every
recorded metric must stay within :data:`REGRESSION_HEADROOM` of the
reference values in ``benchmarks/kernel_thresholds.json``.

Timing discipline: every rate is best-of-:data:`REPEATS` over a fixed
work sweep, which filters scheduler noise far better than averaging.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time
from pathlib import Path

import pytest

from repro.crysl import bundled_ruleset
from repro.fsm import KernelWalker
from tests.fsm.reference import DfaWalker, reference_dfa

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_10.json"
THRESHOLDS_PATH = Path(__file__).with_name("kernel_thresholds.json")

#: A metric may fall to this fraction of its recorded reference before
#: the gate fails — i.e. a >20% regression against the trajectory.
REGRESSION_HEADROOM = 0.8

#: The tentpole acceptance bar: kernel stepping must beat the dict
#: baseline by at least this factor, on any machine (ratios are
#: host-speed independent).
MIN_STEPPING_SPEEDUP = 2.0

WALK_SEED = 7
WALKS_PER_RULE = 4
WALK_LENGTH = 32
REPEATS = 5


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _best_rate(events: int, sweep, inner: int = 1) -> float:
    """Events/sec for ``sweep(inner)``, best of :data:`REPEATS` runs."""
    sweep(1)  # warm caches, JIT-like dict resizes, etc.
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        sweep(inner)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return events * inner / best


def _live_walk(dfa, kernel, rng: random.Random, length: int) -> list[str]:
    """A legal event sequence that never leaves the live region.

    Walks stop early when no outgoing transition keeps an accepting
    state reachable, so loop-free protocols contribute short walks and
    loop-bearing ones (Cipher's ``update*``, MessageDigest streaming)
    contribute full-length event streams — the mix the analyzer sees.
    """
    sequence: list[str] = []
    state = dfa.start
    for _ in range(length):
        options = [
            (symbol, target)
            for symbol, target in dfa.transitions[state].items()
            if kernel.is_live(target)
        ]
        if not options:
            break
        symbol, state = rng.choice(options)
        sequence.append(symbol)
    return sequence


@pytest.fixture(scope="module")
def workload(ruleset):
    """(dfa, kernel, walks) per bundled rule, walks verified live."""
    rng = random.Random(WALK_SEED)
    work = []
    for rule in ruleset:
        compiled = ruleset.compiled(rule)
        dfa, kernel = reference_dfa(rule), compiled.kernel
        # Both sides run the same automaton. Reading the alphabet also
        # sets the reference DFA's alphabet memo, as compiling the kernel
        # from it used to; CPython's attribute loads on a DFA without
        # that memo run ~15% faster, which would move the dict baseline
        # this gate was calibrated against, not the kernel.
        assert dfa.alphabet == set(kernel.symbols)
        walks = [
            _live_walk(dfa, kernel, rng, WALK_LENGTH)
            for _ in range(WALKS_PER_RULE)
        ]
        for walk in walks:
            assert KernelWalker(kernel).replay(walk) == -1
            reference = DfaWalker(dfa)
            assert all(reference.feed(symbol) for symbol in walk)
        work.append((dfa, kernel, walks))
    return work


@pytest.fixture(scope="module")
def results():
    """Metric accumulator, flushed to BENCH_10.json even on gate
    failure (teardown always runs) so CI artifacts keep the numbers."""
    metrics: dict[str, dict[str, float]] = {}
    yield metrics
    payload = {
        "issue": 10,
        "suite": "kernel-microbench",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "config": {
            "walk_seed": WALK_SEED,
            "walks_per_rule": WALKS_PER_RULE,
            "walk_length": WALK_LENGTH,
            "repeats": REPEATS,
            "regression_headroom": REGRESSION_HEADROOM,
            "min_stepping_speedup": MIN_STEPPING_SPEEDUP,
        },
        "metrics": metrics,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_PATH}", file=sys.stderr)


@pytest.fixture(scope="module")
def thresholds():
    return json.loads(THRESHOLDS_PATH.read_text())["references"]


def _gate(thresholds, key: str, measured: float) -> None:
    """Fail on a >20% regression against the recorded reference."""
    reference = thresholds[key]
    floor = reference * REGRESSION_HEADROOM
    assert measured >= floor, (
        f"{key} regressed: measured {measured:,.1f} < floor {floor:,.1f} "
        f"(reference {reference:,.1f}, headroom {REGRESSION_HEADROOM})"
    )


# ---------------------------------------------------------------------------
# stepping: the tentpole metric
# ---------------------------------------------------------------------------


class TestStepping:
    def test_fresh_walker_stepping_speedup(self, workload, results, thresholds):
        """One fresh walker per walk — the analyzer's per-object shape.

        The dict baseline is exactly what the analyzer used to run: a
        new DfaWalker per tracked object, one string-keyed dict probe
        per event. The kernel side allocates a KernelWalker and batch-
        replays the walk through the column-major table.
        """
        events = sum(len(walk) for _, _, walks in workload for walk in walks)

        def dict_sweep(n):
            for _ in range(n):
                for dfa, _, walks in workload:
                    for walk in walks:
                        feed = DfaWalker(dfa).feed
                        for symbol in walk:
                            feed(symbol)

        def kernel_sweep(n):
            for _ in range(n):
                for _, kernel, walks in workload:
                    for walk in walks:
                        KernelWalker(kernel).replay(walk)

        dict_rate = _best_rate(events, dict_sweep, inner=100)
        kernel_rate = _best_rate(events, kernel_sweep, inner=100)
        speedup = kernel_rate / dict_rate
        results["stepping"] = {
            "dict_events_per_sec": round(dict_rate, 1),
            "kernel_events_per_sec": round(kernel_rate, 1),
            "speedup": round(speedup, 3),
            "events_per_sweep": events,
        }
        assert speedup >= MIN_STEPPING_SPEEDUP, (
            f"kernel stepping speedup {speedup:.2f}x fell below the "
            f"{MIN_STEPPING_SPEEDUP}x acceptance bar "
            f"(dict {dict_rate:,.0f} ev/s, kernel {kernel_rate:,.0f} ev/s)"
        )
        _gate(thresholds, "stepping.kernel_events_per_sec", kernel_rate)

    def test_pooled_walker_stepping(self, workload, results, thresholds):
        """The same walks through one walker per rule via reset() —
        the analyzer's mid-protocol restart path, and the shape a
        walker pool would give. No dict-side equivalent exists (the
        reference walker cannot rewind), so the baseline is the same
        fresh-DfaWalker sweep."""
        events = sum(len(walk) for _, _, walks in workload for walk in walks)
        walkers = [KernelWalker(kernel) for _, kernel, _ in workload]

        def dict_sweep(n):
            for _ in range(n):
                for dfa, _, walks in workload:
                    for walk in walks:
                        feed = DfaWalker(dfa).feed
                        for symbol in walk:
                            feed(symbol)

        def kernel_sweep(n):
            for _ in range(n):
                for walker, (_, _, walks) in zip(walkers, workload):
                    for walk in walks:
                        walker.reset().replay(walk)

        dict_rate = _best_rate(events, dict_sweep, inner=100)
        kernel_rate = _best_rate(events, kernel_sweep, inner=100)
        results["stepping_reuse"] = {
            "dict_events_per_sec": round(dict_rate, 1),
            "kernel_events_per_sec": round(kernel_rate, 1),
            "speedup": round(kernel_rate / dict_rate, 3),
        }
        _gate(thresholds, "stepping_reuse.kernel_events_per_sec", kernel_rate)


# ---------------------------------------------------------------------------
# O(1) queries and allocation
# ---------------------------------------------------------------------------


class TestLiveness:
    def test_liveness_query_rate(self, ruleset, results, thresholds):
        """can_still_accept from a mid-protocol Cipher state: a single
        bit test against the precomputed live mask. The dict walker
        answered the same question with a DFS over the transition graph
        on every call."""
        cipher = ruleset.get("Cipher")
        walker = KernelWalker(ruleset.compiled(cipher).kernel)
        assert walker.feed("g1") and walker.feed("i1")
        calls = 200_000

        def kernel_sweep(n):
            for _ in range(n * calls):
                walker.can_still_accept

        reference = DfaWalker(reference_dfa(cipher))
        assert reference.feed("g1") and reference.feed("i1")
        dict_calls = 20_000  # the DFS is slow; keep the sweep short

        def dict_sweep(n):
            for _ in range(n * dict_calls):
                reference.can_still_accept

        kernel_rate = _best_rate(calls, kernel_sweep)
        dict_rate = _best_rate(dict_calls, dict_sweep)
        results["liveness"] = {
            "dict_calls_per_sec": round(dict_rate, 1),
            "kernel_calls_per_sec": round(kernel_rate, 1),
            "speedup": round(kernel_rate / dict_rate, 3),
        }
        _gate(thresholds, "liveness.kernel_calls_per_sec", kernel_rate)

    def test_liveness_cost_is_size_independent(self, ruleset, results):
        """O(1) in practice: queries/sec must not degrade on the
        largest bundled automaton relative to the smallest. The DFS
        baseline degrades with state count; a bit test cannot."""
        kernels = [
            ruleset.compiled(rule).kernel for rule in ruleset
        ]
        smallest = min(kernels, key=lambda k: k.n_states)
        largest = max(kernels, key=lambda k: k.n_states)
        assert largest.n_states > smallest.n_states
        calls = 100_000

        def rate_for(kernel):
            walker = KernelWalker(kernel)

            def sweep(n):
                for _ in range(n * calls):
                    walker.can_still_accept

            return _best_rate(calls, sweep)

        small_rate = rate_for(smallest)
        large_rate = rate_for(largest)
        results["liveness_scaling"] = {
            "smallest_states": smallest.n_states,
            "largest_states": largest.n_states,
            "smallest_calls_per_sec": round(small_rate, 1),
            "largest_calls_per_sec": round(large_rate, 1),
        }
        # Generous noise allowance; a DFS would be integer multiples off.
        assert large_rate >= small_rate * 0.5, (
            f"liveness cost grew with automaton size: "
            f"{small_rate:,.0f}/s at {smallest.n_states} states vs "
            f"{large_rate:,.0f}/s at {largest.n_states} states"
        )


class TestWalkerAllocation:
    def test_walker_allocation_rate(self, ruleset, results, thresholds):
        """Walker construction is on the per-tracked-object path; the
        slotted kernel walker must allocate at least as fast as the
        dict walker it replaced."""
        cipher = ruleset.get("Cipher")
        dfa, kernel = reference_dfa(cipher), ruleset.compiled(cipher).kernel
        allocs = 100_000

        def kernel_sweep(n):
            for _ in range(n * allocs):
                KernelWalker(kernel)

        def dict_sweep(n):
            for _ in range(n * allocs):
                DfaWalker(dfa)

        kernel_rate = _best_rate(allocs, kernel_sweep)
        dict_rate = _best_rate(allocs, dict_sweep)
        results["walker_alloc"] = {
            "dict_allocs_per_sec": round(dict_rate, 1),
            "kernel_allocs_per_sec": round(kernel_rate, 1),
            "ratio": round(kernel_rate / dict_rate, 3),
        }
        _gate(thresholds, "walker_alloc.kernel_allocs_per_sec", kernel_rate)


# ---------------------------------------------------------------------------
# end-to-end: warm project analysis
# ---------------------------------------------------------------------------


class TestWarmAnalysis:
    def test_warm_project_analysis_throughput(
        self, generator, analyzer, results, thresholds
    ):
        """Analyses/sec of generated use-case modules through a warm
        analyzer — rules compiled, kernels built, no summary replay —
        the cost a resident serve daemon pays per re-analyzed module."""
        from repro.usecases import use_case

        sources = [
            (f"uc{index}", generator.generate_from_file(
                use_case(index).template_path()
            ).source)
            for index in (1, 3, 5)
        ]
        for name, source in sources:
            result = analyzer.analyze_sources({name: source})
            assert result.modules[name] is not None

        def sweep(n):
            for _ in range(n):
                for name, source in sources:
                    analyzer.analyze_sources({name: source})

        rate = _best_rate(len(sources), sweep, inner=50)
        results["warm_analysis"] = {
            "analyses_per_sec": round(rate, 1),
            "modules": [name for name, _ in sources],
        }
        _gate(thresholds, "warm_analysis.analyses_per_sec", rate)
