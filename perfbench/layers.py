"""Per-layer metrics of a traced run, and what each should move.

Every per-layer time is self time (a span minus its child spans),
summed over the whole traced run (set-up, timed loop and checks, in
every process the run starts) and divided by the number of operations
the run sent to the program. An operation is one call into a public
entry point: an engine construction, ``generate`` or ``analyze`` call,
a CLI process, a daemon spawn or a socket request. Counts are per
operation too, except where the name says otherwise.
"""

from __future__ import annotations

import re
import subprocess
import sys
from dataclasses import dataclass, field

from common import ROOT, BenchmarkError, child_env, median
from tracer import Tracer

#: (metric, unit, the end-to-end metric it should move, and where).
PER_LAYER = (
    ("crysl.parse_ms", "ms", "setup_s on cold_start and table1_gen"),
    ("fsm.compile_ms", "ms", "setup_s on cold_start and table1_gen"),
    ("fsm.dfa_builds", "count", "setup_s on cold_start and table1_gen"),
    ("fsm.paths_ms", "ms", "setup_s on cold_start and table1_gen"),
    ("cache.load_ms", "ms", "disk_warm_start_s and setup_s on cold_start"),
    ("cache.store_ms", "ms", "disk_warm_start_s and setup_s on cold_start"),
    ("cache.hits", "count", "disk_warm_start_s on cold_start"),
    ("cache.misses", "count", "setup_s on cold_start"),
    ("import.cli_ms", "ms", "setup_s and disk_warm_start_s on cold_start"),
    ("import.networkx_ms", "ms", "setup_s and disk_warm_start_s on cold_start"),
    ("codegen.template_ms", "ms", "gen_p50_ms on table1_gen"),
    ("predicates.link_ms", "ms", "gen_p50_ms on table1_gen"),
    ("codegen.emitter.emit_ms", "ms", "gen_p50_ms on table1_gen"),
    ("codegen.generator.self_ms", "ms", "gen_p50_ms on table1_gen"),
    ("codegen.selector.select_ms", "ms", "gen_p95_ms and gen_per_s on table1_gen"),
    ("codegen.selector.combos_evaluated", "count",
     "gen_p95_ms and gen_per_s on table1_gen"),
    ("codegen.selector.paths_kept_ratio", "ratio",
     "gen_p95_ms and gen_per_s on table1_gen"),
    ("codegen.verify_ms", "ms", "gen_p95_ms on serve_edit_loop"),
    ("sast.ir.lift_ms", "ms", "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.callgraph_ms", "ms", "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.summary_keys_ms", "ms",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.summary_cache.load_ms", "ms",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.summary_cache.store_ms", "ms",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.analysis.analyze_ir_ms", "ms",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.project.self_ms", "ms",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.reanalyzed_functions", "count",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("sast.summary_hit_ratio", "ratio",
     "req_p50_ms, req_p95_ms, req_per_s on serve_edit_loop"),
    ("engine.result_cache_hit_ratio", "ratio", "gen_p50_ms on serve_edit_loop"),
    ("engine.generate_overhead_ms", "ms", "gen_p50_ms on serve_edit_loop"),
    ("trace.unattributed_ms", "ms", "none: time no span covers"),
    ("trace.overhead_share", "ratio", "none: the cost of tracing itself"),
    ("trace.select_stage_diff_ms", "ms",
     "none: select span minus the select+resolve stage totals"),
    ("trace.emit_stage_diff_ms", "ms", "none: emit span minus the emit stage total"),
)

#: Per-layer span name -> metric, for the self-time metrics.
_SELF_TIMES = {
    "crysl.parse": "crysl.parse_ms",
    "fsm.compile": "fsm.compile_ms",
    "fsm.paths": "fsm.paths_ms",
    "cache.load": "cache.load_ms",
    "cache.store": "cache.store_ms",
    "codegen.template": "codegen.template_ms",
    "predicates.link": "predicates.link_ms",
    "codegen.emitter.emit": "codegen.emitter.emit_ms",
    "codegen.generator": "codegen.generator.self_ms",
    "codegen.selector.select": "codegen.selector.select_ms",
    "sast.ir.lift": "sast.ir.lift_ms",
    "sast.callgraph": "sast.callgraph_ms",
    "sast.summary_keys": "sast.summary_keys_ms",
    "sast.summary_cache.load": "sast.summary_cache.load_ms",
    "sast.summary_cache.store": "sast.summary_cache.store_ms",
    "sast.analysis.analyze_ir": "sast.analysis.analyze_ir_ms",
    "sast.project": "sast.project.self_ms",
    "engine.generate": "engine.generate_overhead_ms",
}


@dataclass
class TraceRun:
    """What a traced run accumulates beside the tracer's own totals."""

    tracer: Tracer = field(default_factory=Tracer)
    ops: int = 0
    op_wall_s: float = 0.0
    #: Diagnostics stage seconds of the traced pipeline runs (cache
    #: hits excluded), read from the program's public output
    stage_s: dict[str, float] = field(default_factory=dict)
    untraced_gen_ms: list[float] = field(default_factory=list)
    traced_gen_ms: list[float] = field(default_factory=list)

    def op(self, wall_s: float) -> None:
        """Count one operation sent to the program while traced."""
        self.ops += 1
        self.op_wall_s += wall_s

    def stages(self, stages: dict) -> None:
        """Add one pipeline run's ``diagnostics.stages`` mapping."""
        for name, timing in stages.items():
            self.stage_s[name] = self.stage_s.get(name, 0.0) + timing["seconds"]


def stages_of(module) -> dict:
    """The ``stages`` mapping of an in-process module's diagnostics."""
    return {
        name: {"seconds": timing.seconds}
        for name, timing in module.diagnostics.stages.items()
    }


def import_times(samples: int = 3) -> tuple[float, float]:
    """Median cumulative import time of ``repro.cli`` and of networkx
    under it, in ms, from ``python -X importtime``."""
    cli, networkx = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"import repro.cli failed: {proc.stderr[-500:]}")
        found = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)$", line)
            if match and match.group(4) in ("repro.cli", "networkx"):
                name = match.group(4)
                depth = len(match.group(3))
                if name not in found or depth < found[name][0]:
                    found[name] = (depth, int(match.group(2)) / 1000.0)
        if "repro.cli" not in found:
            raise BenchmarkError("-X importtime did not report repro.cli")
        cli.append(found["repro.cli"][1])
        networkx.append(found.get("networkx", (0, 0.0))[1])
    return median(cli), median(networkx)


def layer_metrics(run: TraceRun) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric, from one traced run."""
    if run.ops == 0:
        raise BenchmarkError("the traced run sent no operation")
    data = run.tracer.to_dict()
    self_s, total_s, counts = data["self_s"], data["total_s"], data["counts"]
    per_op = 1000.0 / run.ops
    values: dict[str, float] = {
        metric: self_s.get(span, 0.0) * per_op for span, metric in _SELF_TIMES.items()
    }

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values["fsm.dfa_builds"] = count("fsm.dfa_builds") / run.ops
    values["cache.hits"] = count("cache.hits") / run.ops
    values["cache.misses"] = count("cache.misses") / run.ops
    values["codegen.selector.combos_evaluated"] = ratio(
        count("select.combos"), count("engine.generates") - count("engine.cached")
    )
    values["codegen.selector.paths_kept_ratio"] = ratio(
        count("select.kept"), count("select.candidates")
    )
    values["codegen.verify_ms"] = run.stage_s.get("verify", 0.0) * per_op
    values["sast.reanalyzed_functions"] = ratio(
        count("sast.reanalyzed"), data["calls"].get("sast.project", 0)
    )
    values["sast.summary_hit_ratio"] = ratio(
        count("sast.summary_hits"), count("sast.functions")
    )
    values["engine.result_cache_hit_ratio"] = ratio(
        count("engine.cached"), count("engine.generates")
    )
    values["import.cli_ms"], values["import.networkx_ms"] = import_times()
    values["trace.unattributed_ms"] = (run.op_wall_s - data["root_s"]) * per_op
    values["trace.overhead_share"] = (
        median(run.traced_gen_ms) / median(run.untraced_gen_ms) - 1.0
    )
    stage_select = run.stage_s.get("select", 0.0) + run.stage_s.get("resolve", 0.0)
    values["trace.select_stage_diff_ms"] = (
        total_s.get("codegen.selector.select", 0.0) - stage_select
    ) * per_op
    values["trace.emit_stage_diff_ms"] = (
        total_s.get("codegen.emitter.emit", 0.0) - run.stage_s.get("emit", 0.0)
    ) * per_op
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
