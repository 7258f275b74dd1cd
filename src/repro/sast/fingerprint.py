"""Stable finding fingerprints and baseline/diff gating.

CI adoption of a static analyzer on a brownfield project needs a way
to say "no *new* misuses" without first fixing every existing one.
That takes two pieces:

* a **fingerprint** per finding that survives unrelated edits: rule
  id, finding kind, the file (normalized — no absolute paths, posix
  separators, so fingerprints agree across machines and checkouts),
  the enclosing function, the tracked variable and the message — but
  deliberately **not** the line number, which moves whenever code
  above the finding is touched. Identical findings (same identity
  tuple) are disambiguated by an occurrence index in report order, so
  two copies of the same misuse get two distinct fingerprints.
* a **baseline** file recording the fingerprints of accepted findings.
  ``analyze --baseline known.json`` partitions current findings into
  *new* (fail the build) and *baselined* (reported, but pass);
  ``--update-baseline`` rewrites the file from the current report.

The fingerprint is also emitted in SARIF as
``partialFingerprints["cognicryptFingerprint/v1"]`` — the exact
mechanism GitHub code scanning uses to track result identity across
runs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath, PureWindowsPath
from typing import Iterable, Mapping

from .report import AnalysisResult, Finding

#: Name of the fingerprint scheme as recorded in SARIF
#: ``partialFingerprints`` and in baseline files. Bump the ``/vN``
#: suffix when the identity tuple changes; old baselines then report
#: every finding as new, which is the honest answer.
FINGERPRINT_SCHEME = "cognicryptFingerprint/v1"

BASELINE_SCHEMA_VERSION = 1


def normalize_file(file: str, root: str | Path | None = None) -> str:
    """A machine-independent form of a finding's file key.

    Paths under ``root`` (default: the current directory) become
    root-relative; other absolute paths are reduced to their basename
    so a fingerprint never embeds ``/home/whoever``. Separators are
    normalized to posix. Non-path module keys (``"<module>"``,
    ``"snippet"``) pass through unchanged.
    """
    if file.startswith("<") or not file:
        return file
    # Windows-style drive letters / backslashes never survive into a
    # fingerprint either.
    windows = PureWindowsPath(file)
    is_absolute = windows.is_absolute() or PurePosixPath(file).is_absolute()
    parts = windows.parts if "\\" in file or ":" in file[:3] else PurePosixPath(file).parts
    base = Path(root) if root is not None else Path.cwd()
    try:
        resolved = Path(file).resolve()
        base_resolved = base.resolve()
        relative = resolved.relative_to(base_resolved)
        return relative.as_posix()
    except (OSError, ValueError):
        pass
    if is_absolute:
        return parts[-1] if parts else file
    return PurePosixPath(*parts).as_posix() if parts else file


def fingerprint_identity(finding: Finding, *, root: str | Path | None = None) -> str:
    """The location-insensitive identity tuple, hashed."""
    digest = hashlib.sha256()
    for part in (
        FINGERPRINT_SCHEME,
        finding.kind.value,
        finding.rule,
        normalize_file(finding.file, root),
        finding.function,
        finding.variable,
        finding.message,
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def compute_fingerprints(
    findings: Iterable[Finding], *, root: str | Path | None = None
) -> list[str]:
    """One stable fingerprint per finding, in report order.

    Duplicate identities get an occurrence index (in report order,
    which is sorted by location) so every finding's fingerprint is
    unique within a run yet stable across runs.
    """
    seen: Counter[str] = Counter()
    fingerprints = []
    for finding in findings:
        identity = fingerprint_identity(finding, root=root)
        index = seen[identity]
        seen[identity] += 1
        fingerprints.append(
            hashlib.sha256(f"{identity}:{index}".encode()).hexdigest()
        )
    return fingerprints


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class BaselineError(ValueError):
    """A baseline file is unreadable or malformed."""


@dataclass
class Baseline:
    """A set of accepted finding fingerprints."""

    fingerprints: set[str] = field(default_factory=set)
    scheme: str = FINGERPRINT_SCHEME

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("schema_version") != BASELINE_SCHEMA_VERSION
            or not isinstance(payload.get("fingerprints"), list)
        ):
            raise BaselineError(
                f"baseline {path} has an unrecognised layout "
                f"(expected schema_version {BASELINE_SCHEMA_VERSION})"
            )
        return cls(
            fingerprints=set(payload["fingerprints"]),
            scheme=payload.get("scheme", FINGERPRINT_SCHEME),
        )

    def save(self, path: str | Path) -> None:
        payload = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "scheme": self.scheme,
            "fingerprints": sorted(self.fingerprints),
        }
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.fingerprints

    def __len__(self) -> int:
        return len(self.fingerprints)


@dataclass
class BaselineDiff:
    """Current findings partitioned against a baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    #: baseline entries with no matching current finding (fixed or moved)
    absent: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing new was introduced (the gate passes)."""
        return not self.new


def diff_against_baseline(
    modules: "Mapping[str, AnalysisResult]",
    baseline: Baseline,
    *,
    root: str | Path | None = None,
) -> BaselineDiff:
    """Partition *active* (unsuppressed) findings against a baseline.

    Suppressed findings are out of scope on both sides: an in-source
    suppression already keeps a finding from failing the build, so the
    baseline only needs to cover the rest.
    """
    ordered = [f for result in modules.values() for f in result.findings]
    prints = compute_fingerprints(ordered, root=root)
    diff = BaselineDiff()
    matched: set[str] = set()
    for finding, fingerprint in zip(ordered, prints):
        if finding.suppressed:
            continue
        if fingerprint in baseline:
            diff.baselined.append(finding)
            matched.add(fingerprint)
        else:
            diff.new.append(finding)
    diff.absent = len(baseline.fingerprints - matched)
    return diff


def baseline_from_results(
    modules: "Mapping[str, AnalysisResult]", *, root: str | Path | None = None
) -> Baseline:
    """A baseline accepting every current active finding."""
    ordered = [f for result in modules.values() for f in result.findings]
    prints = compute_fingerprints(ordered, root=root)
    return Baseline(
        fingerprints={
            fp for f, fp in zip(ordered, prints) if not f.suppressed
        }
    )
