"""Workload ``table1_gen``: the paper's RQ2/RQ3 loop, in process.

One resident ``CryptoGenEngine`` (verify off, private cache dir) serves
one closed-loop client that cycles through the 11 Table 1 templates in
a seeded order. Every request is a seeded comment-only variant, so the
result cache always misses while the expected output stays
byte-identical. The three hybrid templates are 3/11 of the requests and
most of the time, so ``codegen.selector`` dominates; ``crysl``,
``fsm``, the disk cache, ``sast`` and ``engine.server`` do no work in
the timed loop.
"""

from __future__ import annotations

import random
import resource
import time
import tracemalloc
from pathlib import Path

from repro.engine import CryptoGenEngine, GenerateRequest

from common import (
    HYBRID,
    TABLE1,
    Outcome,
    StateCheck,
    comment_variant,
    known_digests,
    median,
    source_problems,
    count_summary,
    tail,
    template_name,
    template_source,
)
from layers import TraceRun, stages_of
from tracer import install

#: Set-ups per run for each of ``setup_s`` and ``disk_warm_start_s``,
#: one pair before each of as many loop segments.
SETUPS = 5


class Table1Gen:
    def __init__(self, seed: int, scratch: Path, trace: TraceRun | None):
        self.rng = random.Random(seed)
        self.seed = seed
        self.scratch = scratch
        self.trace = trace
        self.digests = known_digests()
        self.sources = {slug: template_source(slug) for slug in TABLE1.values()}
        self.outcome = Outcome()
        self.state = StateCheck()
        self.combos: list[int] = []
        self._installed = None
        self._variants = 0

    # -- tracing --------------------------------------------------------

    def tracing(self, on: bool) -> None:
        if self.trace is None:
            return
        if on and self._installed is None:
            self._installed = install(self.trace.tracer)
        elif not on and self._installed is not None:
            self._installed.uninstall()
            self._installed = None

    def _timed(self, call):
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        if self._installed is not None:
            self.trace.op(elapsed)
        return result, elapsed

    # -- requests -------------------------------------------------------

    def _generate(self, engine, slug: str, source: str, *, verify: bool = False):
        """One generate that must miss the result cache."""
        result, elapsed = self._timed(
            lambda: engine.generate(
                GenerateRequest(source=source, name=template_name(slug), verify=verify)
            )
        )
        if not result.ok:
            problems = [f"{slug}: {result.error}"]
        elif result.cached:
            problems = [f"{slug}: answered from the result cache"]
        else:
            problems = source_problems(slug, result.module.source, self.digests)
            if self._installed is not None:
                self.trace.stages(stages_of(result.module))
        self.outcome.record(problems)
        return result, elapsed

    def _variant(self, slug: str) -> str:
        self._variants += 1
        return comment_variant(
            self.sources[slug], self.rng, f"{self.seed}-{self._variants}"
        )

    def _setup(self, cache_dir: Path) -> tuple[object, float, int]:
        """Engine construction plus a first pass over all 11 templates."""
        started = time.perf_counter()
        engine, _ = self._timed(lambda: CryptoGenEngine(cache_dir=cache_dir))
        builds = 0
        for slug in TABLE1.values():
            result, _ = self._generate(engine, slug, self.sources[slug])
            builds += result.dfa_builds
        return engine, time.perf_counter() - started, builds

    def setup_pair(self, cache_dir: Path) -> tuple[object, float, float]:
        """One set-up on an empty cache dir, then one on the dir it just
        populated; returns the first engine and both times."""
        engine, cold, builds = self._setup(cache_dir)
        self.state.expect(builds > 0, "an empty-cache set-up built no DFA")
        warm_engine, warm, builds = self._setup(cache_dir)
        warm_engine.close()
        self.state.expect(builds == 0, f"a populated-cache set-up built {builds} DFA(s)")
        return engine, cold, warm

    def loop(self, engine, seconds: float,
             per_slug: dict[str, list[float]]) -> tuple[list[float], float]:
        """The timed closed loop, in whole cycles over the 11 templates;
        returns latencies (ms, also added to ``per_slug``) and wall time."""
        latencies: list[float] = []
        slugs = list(TABLE1.values())
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            self.rng.shuffle(slugs)
            for slug in slugs:
                source = self._variant(slug)
                result, elapsed = self._generate(engine, slug, source)
                self.state.expect(
                    result.dfa_builds == 0,
                    f"{slug}: a timed request built {result.dfa_builds} DFA(s)",
                )
                if result.ok:
                    self.combos.append(
                        result.module.diagnostics.counter("combos.evaluated")
                    )
                latencies.append(elapsed * 1000.0)
                per_slug[slug].append(elapsed * 1000.0)
        return latencies, time.perf_counter() - started

    def check(self, engine) -> None:
        """Generate -> verify every template once: the analyzer must
        find nothing in generated code (the paper's RQ1 guarantee)."""
        for slug in TABLE1.values():
            self._generate(engine, slug, self._variant(slug), verify=True)

    def peak_kb(self, engine) -> dict[str, float]:
        """tracemalloc peak of one generate per Table 1 row (RQ3)."""
        peaks = {}
        for slug in TABLE1.values():
            source = self._variant(slug)
            tracemalloc.start()
            try:
                self._generate(engine, slug, source)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[slug] = peak / 1024.0
        return peaks


def run(seed: int, seconds: float, scratch: Path, trace: TraceRun | None) -> dict:
    """The loop runs in :data:`SETUPS` segments with a set-up pair before
    each, so the set-up medians sample the whole run, as the loop does,
    rather than its first seconds. A traced run traces the set-ups and
    every other segment; the untraced segments give the tracing cost."""
    bench = Table1Gen(seed, scratch, trace)
    extras: dict = {}
    cold, warm, latencies = [], [], []
    per_slug: dict[str, list[float]] = {slug: [] for slug in TABLE1.values()}
    unreported: dict[str, list[float]] = {slug: [] for slug in TABLE1.values()}
    wall = 0.0
    engine = None
    try:
        for segment in range(SETUPS):
            bench.tracing(True)
            fresh, cold_s, warm_s = bench.setup_pair(scratch / f"cache{segment}")
            cold.append(cold_s)
            warm.append(warm_s)
            if engine is None:
                engine = fresh  # the resident engine of the timed loop
            else:
                fresh.close()
            reported = trace is None or segment % 2 == 1
            bench.tracing(trace is not None and reported)
            segment_ms, segment_wall = bench.loop(
                engine, seconds / SETUPS, per_slug if reported else unreported
            )
            if reported:
                latencies += segment_ms
                wall += segment_wall
            else:
                trace.untraced_gen_ms.extend(segment_ms)
        if trace is not None:
            trace.traced_gen_ms.extend(latencies)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.tracing(True)
        bench.check(engine)
        if trace is not None:
            bench.tracing(False)
            peaks = bench.peak_kb(engine)
            for number, slug in TABLE1.items():
                extras[f"table1.uc{number:02d}.gen_ms"] = (median(per_slug[slug]), "ms")
                extras[f"table1.uc{number:02d}.peak_kb"] = (peaks[slug], "KiB")
    finally:
        bench.tracing(False)
        if engine is not None:
            engine.close()
    gen_tail, q = tail(latencies)
    p50 = median(latencies)
    per_s = len(latencies) / wall
    metrics = {
        "setup_s": (median(cold), "s"),
        "disk_warm_start_s": (median(warm), "s"),
        "gen_p50_ms": (p50, "ms"),
        "gen_p95_ms": (gen_tail, "ms"),
        "gen_per_s": (per_s, "1/s"),
        "req_p50_ms": (p50, "ms"),
        "req_p95_ms": (gen_tail, "ms"),
        "req_per_s": (per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    hybrid = sum(len(v) for slug, v in per_slug.items() if slug in HYBRID)
    return {
        "metrics": metrics,
        "extras": extras,
        "samples": {"gen": len(latencies), "tail_percentile": q, "setups": SETUPS},
        "properties": {
            "requests": len(latencies),
            "hybrid_template": hybrid / len(latencies),
            "result_cache_repeat": 0.0,
            "comment_only_variant": 1.0,
            "verify_true": 0.0,
            "combos_evaluated_per_request": count_summary(bench.combos),
        },
        "outcome": bench.outcome,
        "state": bench.state,
    }
