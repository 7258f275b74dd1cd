"""Table 1 (RQ1–RQ3): implementability, runtime, memory per use case.

For every use case of Table 1 the driver

* generates the implementation (RQ1), checking it byte-compiles and the
  rule-driven analyzer reports no misuse — the paper's validity check;
* measures the mean generation wall-clock over ``runs`` runs (RQ2;
  the paper uses 10 runs and `currentTimeMillis`);
* measures the peak additional memory of one generation run with
  ``tracemalloc`` (RQ3; the paper diffs the Eclipse process RSS — the
  substitution is documented in DESIGN.md).

Absolute numbers differ from the paper's by construction (their tool
runs inside Eclipse/JDT on the JCA; ours is a Python library), so the
report prints the paper's figures next to ours and checks *shape*:
every use case generates, validates, stays within an order of magnitude
of the others, and is far below the ten-second usability budget.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from statistics import mean

from ..codegen import CrySLBasedCodeGenerator, GenerationContext
from ..engine import CryptoGenEngine
from ..sast import ProjectAnalyzer
from ..usecases import USE_CASES, UseCase
from .report import render_table


@dataclass
class Table1Row:
    """One measured row of Table 1."""

    use_case: UseCase
    compiles: bool
    sast_clean: bool
    runtime_seconds: float
    memory_mb: float

    @property
    def implemented(self) -> bool:
        return self.compiles and self.sast_clean


def measure_use_case(
    use_case: UseCase,
    runs: int = 10,
    generator: CrySLBasedCodeGenerator | None = None,
    analyzer: ProjectAnalyzer | None = None,
    *,
    engine: CryptoGenEngine | None = None,
) -> Table1Row:
    """Generate + validate one use case and measure time and memory.

    With ``engine`` the row is measured through a resident
    :class:`~repro.engine.CryptoGenEngine` (the ``run_table1`` path);
    otherwise ``generator``/``analyzer`` are used directly, defaulting
    to cold instances. ``analyzer`` is a :class:`ProjectAnalyzer`, the
    analysis ``generate --verify`` gates on.
    """
    if engine is not None:
        generator = generator or engine.generator
        analyzer = analyzer or engine.analyzer
    generator = generator or CrySLBasedCodeGenerator()
    analyzer = analyzer or ProjectAnalyzer()

    module = generator.generate_from_file(use_case.template_path())
    compiles = True
    try:
        module.compile_check()
    except SyntaxError:
        compiles = False
    key = f"{use_case.slug}.py"
    result = analyzer.analyze_sources({key: module.source})
    sast_clean = result.is_secure

    timings = []
    for _ in range(runs):
        started = time.perf_counter()
        generator.generate_from_file(use_case.template_path())
        timings.append(time.perf_counter() - started)

    tracemalloc.start()
    generator.generate_from_file(use_case.template_path())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return Table1Row(
        use_case=use_case,
        compiles=compiles,
        sast_clean=sast_clean,
        runtime_seconds=mean(timings),
        memory_mb=peak / (1024 * 1024),
    )


def run_table1(
    runs: int = 10,
    context: GenerationContext | None = None,
    cache_dir: str | None = None,
    *,
    engine: CryptoGenEngine | None = None,
) -> list[Table1Row]:
    """Measure all eleven use cases through one resident engine.

    The whole table is a thin caller of one
    :class:`~repro.engine.CryptoGenEngine`: every DFA, path list and
    label expansion is compiled once for all eleven rows, and the
    engine's cumulative diagnostics account for every run.

    ``cache_dir`` gives the engine a persistent :class:`~repro.cache.
    DiskRuleCache` over a *private* frozen copy of the bundled rules —
    never the shared singleton — so a second table run on the same
    directory starts warm (zero DFA builds). ``context`` (legacy) wraps
    an existing :class:`~repro.codegen.GenerationContext` instead.
    """
    if engine is None:
        if context is not None:
            engine = CryptoGenEngine(
                ruleset=context.ruleset, registry=context.registry
            )
        else:
            engine = CryptoGenEngine(cache_dir=cache_dir)
    return [
        measure_use_case(use_case, runs, engine=engine)
        for use_case in USE_CASES
    ]


def render_table1(rows: list[Table1Row]) -> str:
    """The paper's Table 1 with measured columns next to the paper's."""
    headers = (
        "#",
        "Use Case",
        "Sources",
        "Implemented",
        "Runtime (s)",
        "Paper (s)",
        "Memory (MB)",
        "Paper (MB)",
    )
    body = [
        (
            row.use_case.number,
            row.use_case.name,
            ", ".join(row.use_case.sources),
            row.implemented,
            row.runtime_seconds,
            row.use_case.paper_runtime_seconds,
            row.memory_mb,
            row.use_case.paper_memory_mb,
        )
        for row in rows
    ]
    return render_table(headers, body, "Table 1 — Common Cryptographic Use Cases")


def shape_holds(rows: list[Table1Row], budget_seconds: float = 10.0) -> bool:
    """The paper's qualitative claims: everything implemented, every
    runtime below the usability budget, runtimes within a narrow band."""
    if not all(row.implemented for row in rows):
        return False
    if not all(row.runtime_seconds < budget_seconds for row in rows):
        return False
    slowest = max(row.runtime_seconds for row in rows)
    fastest = min(row.runtime_seconds for row in rows)
    # Paper band: 6.6–8.1 s (ratio ~1.23). Allow a generous factor to
    # absorb interpreter noise while still asserting "one band".
    return slowest / fastest < 1000
