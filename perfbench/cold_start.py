"""Workload ``cold_start``: one CLI process per sample.

Each sample runs ``python -m repro.cli generate <template> -o <dir>
--cache-dir <dir> --stats --json`` and times the process with
``os.wait4``, which also gives the child's peak RSS. The template is
drawn by seed from the non-hybrid Table 1 rows, so the selector's
combination search stays small. Samples come in pairs: the first with
an empty cache dir, the second with the dir the first one populated.
Interpreter start, imports (``networkx``), ``crysl`` parsing, ``fsm``
compilation and the ``cache`` disk store carry this workload.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.engine import CryptoGenEngine, GenerateRequest

from common import (
    BENCH_DIR,
    NON_HYBRID,
    TEMPLATES_DIR,
    Outcome,
    StateCheck,
    child_env,
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

#: A sample still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 60.0


class ColdStart:
    def __init__(self, seed: int, scratch: Path, trace: TraceRun | None):
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.trace = trace
        self.digests = known_digests()
        self.outcome = Outcome()
        self.state = StateCheck()
        self.inputs = scratch / "in"
        self.inputs.mkdir()
        for slug in NON_HYBRID:
            (self.inputs / template_name(slug)).write_bytes(
                (TEMPLATES_DIR / template_name(slug)).read_bytes()
            )
        self._samples = 0
        self.used: set[str] = set()
        self.combos: list[int] = []

    def sample(self, slug: str, cache_dir: Path, *, empty: bool,
               traced: bool) -> tuple[float, float]:
        """One CLI process; returns (seconds, peak RSS in MiB)."""
        self._samples += 1
        out_dir = self.scratch / f"out{self._samples}"
        stdout_path = self.scratch / f"stdout{self._samples}.json"
        args = ["generate", template_name(slug), "-o", str(out_dir),
                "--cache-dir", str(cache_dir), "--stats", "--json"]
        dump = self.scratch / f"trace{self._samples}.json"
        if traced:
            command = [sys.executable, str(BENCH_DIR / "traced_child.py"), str(dump), *args]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        with open(stdout_path, "wb") as stdout:
            started = time.perf_counter()
            proc = subprocess.Popen(
                command, cwd=self.inputs, env=child_env(),
                stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.DEVNULL,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            problems.append(f"{slug}: exit code {proc.returncode}")
        else:
            report = json.loads(stdout_path.read_text(encoding="utf-8"))
            (result,) = report["results"]
            builds = report["diagnostics"]["counters"].get("dfa.builds", 0)
            if empty:
                self.state.expect(builds > 0, f"{slug}: an empty-cache sample built no DFA")
            else:
                self.state.expect(
                    builds == 0, f"{slug}: a populated-cache sample built {builds} DFA(s)"
                )
            generated = out_dir / f"{slug}_generated.py"
            if not result["ok"]:
                problems.append(f"{slug}: {result.get('error')}")
            else:
                problems += source_problems(
                    slug, generated.read_text(encoding="utf-8"), self.digests
                )
                diagnostics = result["result"]["report"]["diagnostics"]
                self.combos.append(diagnostics["counters"].get("combos.evaluated", 0))
                if traced:
                    self.trace.stages(diagnostics["stages"])
            if traced:
                self.trace.op(seconds)
                self.trace.tracer.absorb(json.loads(dump.read_text(encoding="utf-8")))
        self.outcome.record(problems)
        self.used.add(slug)
        return seconds, usage.ru_maxrss / 1024.0

    def loop(self, seconds: float, traced: bool) -> dict[str, list[float]]:
        """Pairs of (empty, populated) samples until ``seconds`` pass;
        at least one pair."""
        out = {"empty": [], "populated": [], "rss": []}
        deadline = time.perf_counter() + seconds
        while not out["empty"] or time.perf_counter() < deadline:
            slug = self.rng.choice(NON_HYBRID)
            cache_dir = self.scratch / f"cache{self._samples}"
            for kind in ("empty", "populated"):
                elapsed, rss = self.sample(
                    slug, cache_dir, empty=kind == "empty", traced=traced
                )
                out[kind].append(elapsed)
                out["rss"].append(rss)
        return out

    def check(self) -> None:
        """Generate -> verify in process every template the run used:
        the analyzer must find nothing in generated code."""
        with CryptoGenEngine(cache_dir=self.scratch / "check") as engine:
            for slug in sorted(self.used):
                request = GenerateRequest(
                    source=template_source(slug), name=template_name(slug), verify=True
                )
                started = time.perf_counter()
                result = engine.generate(request)
                seconds = time.perf_counter() - started
                if not result.ok:
                    problems = [f"{slug}: {result.error}"]
                else:
                    problems = source_problems(slug, result.module.source, self.digests)
                    if self.trace is not None:
                        self.trace.op(seconds)
                        self.trace.stages(stages_of(result.module))
                self.outcome.record(problems)


def run(seed: int, seconds: float, scratch: Path, trace: TraceRun | None) -> dict:
    bench = ColdStart(seed, scratch, trace)
    # One untimed pair first: it compiles the program's bytecode in a
    # fresh checkout, which no later sample pays.
    bench.loop(0.0, traced=False)
    if trace is None:
        samples = bench.loop(seconds, traced=False)
        bench.check()
    else:
        untraced = bench.loop(seconds / 2, traced=False)
        samples = bench.loop(seconds / 2, traced=True)
        for mode, series in ((untraced, trace.untraced_gen_ms),
                             (samples, trace.traced_gen_ms)):
            series.extend(s * 1000.0 for s in mode["empty"] + mode["populated"])
        installed = install(trace.tracer)
        try:
            bench.check()
        finally:
            installed.uninstall()
    # Every sample is one generate, so the generate and request figures
    # are the same series; the cache state splits into the two start-ups.
    every = [s * 1000.0 for s in samples["empty"] + samples["populated"]]
    every_tail, q = tail(every)
    per_s = len(every) / (sum(samples["empty"]) + sum(samples["populated"]))
    metrics = {
        "setup_s": (median(samples["empty"]), "s"),
        "disk_warm_start_s": (median(samples["populated"]), "s"),
        "gen_p50_ms": (median(every), "ms"),
        "gen_p95_ms": (every_tail, "ms"),
        "gen_per_s": (per_s, "1/s"),
        "req_p50_ms": (median(every), "ms"),
        "req_p95_ms": (every_tail, "ms"),
        "req_per_s": (per_s, "1/s"),
        "peak_rss_mb": (median(samples["rss"]), "MiB"),
    }
    return {
        "metrics": metrics,
        "extras": {},
        "samples": {
            "empty": len(samples["empty"]),
            "populated": len(samples["populated"]),
            "tail_percentile": q,
        },
        "properties": {
            "requests": len(every),
            "empty_cache_dir": len(samples["empty"]) / len(every),
            "populated_cache_dir": len(samples["populated"]) / len(every),
            "hybrid_template": 0.0,
            "result_cache_repeat": 0.0,
            "verify_true": 0.0,
            "combos_evaluated_per_request": count_summary(bench.combos),
        },
        "outcome": bench.outcome,
        "state": bench.state,
    }
