"""The repository benchmark: one seeded command, three workloads.

    python3 perfbench/run.py --workload table1_gen --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --steady 10 --seconds 25      # steadiness mode

Workloads (see each module's docstring for why it was chosen):

``table1_gen``       in-process engine, Table 1 templates, selector-heavy
``serve_edit_loop``  ``cognicrypt-gen serve`` daemon, IDE-style analyze/generate mix
``cold_start``       one ``python -m repro.cli generate`` process per sample

With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` a separate
traced run reports the per-layer metrics of :mod:`layers` instead.
Every run also writes its full report, workload property shares and
extra metrics included, to ``perfbench/results/``.

``--steady N`` runs each workload N times with seeds ``seed .. seed+N-1``
and reports each end-to-end metric's median and quartile spread (the
distance between the first and third quartile over the median), which
is what the bounds in ``BENCHMARK.json`` were set from.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

from common import (
    RESULTS_DIR,
    BenchmarkError,
    relative,
    require_program,
    scratch_dir,
)
from layers import TraceRun, layer_metrics

WORKLOADS = ("table1_gen", "serve_edit_loop", "cold_start")

#: End-to-end metrics every workload reports, in report order.
END_TO_END = (
    "setup_s",
    "disk_warm_start_s",
    "gen_p50_ms",
    "gen_p95_ms",
    "gen_per_s",
    "req_p50_ms",
    "req_p95_ms",
    "req_per_s",
    "peak_rss_mb",
)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_program()
    trace_run = TraceRun() if trace else None
    started = time.perf_counter()
    with scratch_dir() as scratch:
        # Each workload module imports the program, so only after the check.
        report = importlib.import_module(workload).run(seed, seconds, scratch, trace_run)
    outcome, state = report["outcome"], report["state"]
    end_to_end = report["metrics"]
    missing = [name for name in END_TO_END if name not in end_to_end]
    if missing:
        raise BenchmarkError(f"{workload} did not measure {missing}")
    metrics = layer_metrics(trace_run) if trace else {n: end_to_end[n] for n in END_TO_END}
    correct = outcome.failed == 0 and not state.problems

    def show(title: str, values: dict) -> None:
        print(title)
        for name, (value, unit) in values.items():
            print(f"  {name:<36s} {value:14.6f} {unit}")

    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    show("end-to-end" + (" (measured while traced)" if trace else ""), end_to_end)
    if trace:
        show("per-layer (per operation unless named otherwise)", metrics)
    if report["extras"]:
        show("extra", report["extras"])
    print(f"samples {json.dumps(report['samples'])}")
    print(f"properties {json.dumps(report['properties'])}")
    print(
        f"attempted {outcome.attempted} failed {outcome.failed} "
        f"failed_share {outcome.share:.6f}"
    )
    for reason in outcome.reasons:
        print(f"  failure: {reason}", file=sys.stderr)
    for problem in state.problems:
        print(f"  state check failed: {problem}", file=sys.stderr)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "wall_s": time.perf_counter() - started,
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "failed_share": outcome.share,
                "failures": outcome.reasons,
                "state_problems": state.problems,
                "end_to_end": _named(end_to_end),
                "per_layer": _named(metrics) if trace else {},
                "extra": _named(report["extras"]),
                "samples": report["samples"],
                "properties": report["properties"],
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    print(f"wrote {relative(path)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": _named(metrics),
            }
        )
    )
    return 0


def _named(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def steady(workloads: list[str], runs: int, first_seed: int, seconds: float) -> int:
    """Run each workload ``runs`` times and report median and spread."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True,
                text=True,
                timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise BenchmarkError(f"{workload} seed {seed} failed")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise BenchmarkError(f"{workload} seed {seed} was not correct")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        for name, series in values.items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            summary[name] = {
                "median": mid,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / mid,
                "values": series,
            }
            print(f"  {name:<20s} median {mid:12.4f}  spread {(q3 - q1) / mid:7.2%}")
        path = RESULTS_DIR / f"steady-{workload}.json"
        path.write_text(json.dumps(summary, indent=2), encoding="utf-8")
        print(f"wrote {relative(path)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, metavar="N", default=0,
        help="steadiness mode: N untraced runs per workload",
    )
    args = parser.parse_args(argv)
    try:
        if args.steady:
            return steady(args.workload or list(WORKLOADS), args.steady,
                          args.seed, args.seconds)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload (or --steady N)")
        return run_once(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
