"""Shared pieces of the benchmark: locations, inputs, checks, statistics.

Everything the benchmark reads or writes lives inside the checkout it
runs from: the program under ``src/``, this package, and scratch space
under ``perfbench/.tmp`` that each run removes when it ends.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TEMPLATES_DIR = SRC / "repro" / "usecases" / "templates"
FIXTURE_DIR = BENCH_DIR / "fixture"
RESULTS_DIR = BENCH_DIR / "results"
TMP_DIR = BENCH_DIR / ".tmp"

#: Table 1 of the paper, row number -> template module. The benchmark
#: keeps its own copy so its inputs cannot drift with the registry.
TABLE1 = {
    1: "pbe_files",
    2: "pbe_strings",
    3: "pbe_bytes",
    4: "symmetric_encryption",
    5: "hybrid_files",
    6: "hybrid_strings",
    7: "hybrid_bytes",
    8: "asymmetric_strings",
    9: "password_storage",
    10: "digital_signing",
    11: "string_hashing",
}
HYBRID = frozenset({"hybrid_files", "hybrid_strings", "hybrid_bytes"})
NON_HYBRID = tuple(slug for slug in TABLE1.values() if slug not in HYBRID)

#: Environment variables that would change what the program does.
_PROGRAM_ENV = ("REPRO_FAULTS", "REPRO_JOBS", "REPRO_CACHE_DIR")


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


def require_program() -> None:
    """Fail unless the program's sources sit beside the benchmark; then
    work from the checkout root, which the relative socket paths need."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.chdir(ROOT)


def child_env() -> dict[str, str]:
    """Environment for program processes: this checkout's sources only."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private directory under ``perfbench/.tmp``, removed afterwards.

    Paths handed to the program are relative to the checkout root where
    possible, which keeps Unix socket paths short.
    """
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="r", dir=TMP_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def relative(path: Path) -> str:
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return str(path)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def template_name(slug: str) -> str:
    """The module name every request uses for a template.

    The generated header quotes it, so requests, files and the known
    answers must all use the same spelling.
    """
    return f"{slug}.py"


def template_source(slug: str) -> str:
    return (TEMPLATES_DIR / template_name(slug)).read_text(encoding="utf-8")


def comment_variant(source: str, rng: random.Random, tag: str) -> str:
    """``source`` with one comment line inserted before a seeded statement.

    Comments never reach the generated module (it is unparsed from the
    AST), so the expected output stays byte-identical while the content
    digest, and with it the result-cache key, changes.
    """
    lines = source.splitlines(keepends=True)
    statements = [
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)
    ]
    target = rng.choice(statements)
    indent = " " * target.col_offset
    index = target.lineno - 1
    lines.insert(index, f"{indent}# bench variant {tag}\n")
    return "".join(lines)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def known_digests() -> dict[str, str]:
    """sha256 of each Table 1 template's generated module."""
    return load_json(BENCH_DIR / "known_answers.json")["generated_sha256"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_problems(slug: str, source: str, digests: dict[str, str]) -> list[str]:
    """A generated module must be byte-identical to the known answer."""
    if digest(source) != digests[slug]:
        return [f"{slug}: generated source differs from the known answer"]
    return []


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("no samples for a reported median")
    return statistics.median(values)


def count_summary(values: list[float]) -> dict[str, float]:
    """Mean, median and maximum of a per-request count."""
    return {"mean": sum(values) / len(values), "median": median(values), "max": max(values)}


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it,
    capped at the 95th and never below the median."""
    if n <= 0:
        return 0.5
    return min(0.95, max(0.5, 1.0 - 10.0 / n))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    if not values:
        raise BenchmarkError("no samples for a reported percentile")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the reported tail."""
    q = tail_percentile(len(values))
    return percentile(values, q), q


# ---------------------------------------------------------------------------
# outcome bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Attempted and failed operations, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one operation; ``problems`` empty means it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.extend(problems[:3])

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class StateCheck:
    """A sanity check on program state read from its public output.

    A failed check means the workload silently ran warm where it should
    be cold, or the reverse; it fails the whole run.
    """

    problems: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.problems) < 20:
            self.problems.append(message)
