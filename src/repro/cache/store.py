"""Content-addressed on-disk store for compiled CrySL rule artefacts.

Compiling a rule — parsing is cheap, but building the ORDER automaton and
enumerating its repetition-free accepting paths is not — is a pure
function of the rule source and the pipeline's compilation scheme.
This module persists those derived artefacts so a *fresh process* can
start warm: the first `generate` after a cache-priming run performs
zero DFA builds and zero path enumerations.

Cache key anatomy
-----------------

An entry's key is ``sha256(schema tag || max-paths tag || rule
source)``.  The three components mean:

* **schema tag** — :data:`SCHEMA_VERSION`, a monotonically increasing
  integer naming the layout *and semantics* of
  :class:`CachedArtefacts`.  Any PR that changes what the pipeline
  derives from a rule (DFA construction, path-expansion policy, label
  expansion, the section indexes) MUST bump it; old entries then
  simply miss and are recomputed.
* **max-paths tag** — the effective path-explosion bound, because the
  enumerated path list depends on it (a lower bound can make
  enumeration fail where a higher one succeeds).
* **rule source** — the exact ``.crysl`` text.  Editing a rule changes
  the key, so stale artefacts are unreachable rather than detected.

Entries are single pickle files written atomically (``tempfile`` in
the cache directory + ``os.replace``), so concurrent writers racing on
one key leave a valid entry — last writer wins, both wrote identical
bytes by construction.  A corrupt or stale entry (truncated pickle,
wrong payload type, schema drift) is *evicted*: the file is unlinked,
and the caller recomputes.  Evictions and transient I/O failures are
counted (``<name>.evictions``, ``<name>.io_errors``) and warned about
only into a :class:`~repro.diagnostics.Diagnostics`, so a store's state
stays fixed-size however much traffic fails.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .. import faults
from ..diagnostics import Diagnostics
from ..trace import span as _trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fsm -> crysl)
    from ..fsm.kernel import DfaKernel

#: Version of the compiled-artefact layout *and* of the pipeline
#: semantics baked into it. Bump on any change to DFA construction,
#: path expansion, label expansion or the section indexes; every PR
#: that touches those layers must treat this constant as part of its
#: contract (see docs/ARCHITECTURE.md, "schema-version bump rules").
#:
#: v2: :class:`CachedArtefacts` gained the compiled table kernel
#: (``kernel``) and DFAs stopped pickling their lazy memos; v1 entries
#: are unreachable under v2 keys, and a v1 payload encountered at a v2
#: key (or any schema drift) is evicted on load.
#:
#: v3: the table kernel is the only automaton, so entries hold no dict
#: DFA; and path enumeration bounds every alternation and optional by
#: ``max_paths``, not only sequences.
SCHEMA_VERSION = 3

_SUFFIX = ".artefacts.pkl"

#: Attempts per read/write before a transient I/O error is given up on.
#: NFS mounts and overlay filesystems intermittently fail with EAGAIN/
#: EIO under load; one or two quick retries absorb almost all of them,
#: and a cache that still fails afterwards degrades to recompute — a
#: cache failure must never abort the request it was accelerating.
IO_ATTEMPTS = 3

#: Base backoff between retry attempts (doubles per attempt).
IO_RETRY_BASE_SECONDS = 0.005


@dataclass(frozen=True)
class CachedArtefacts:
    """The persisted by-products of compiling one rule.

    Everything is stored *by name* (event labels, indexes into the
    rule's own ENSURES/CONSTRAINTS tuples) rather than as pickled AST
    nodes, so rehydration re-anchors on the live
    :class:`~repro.crysl.ast.Rule` — consumers keep identity with the
    rule's own nodes, and a source edit that renames a label makes the
    entry visibly stale instead of silently wrong.
    """

    schema_version: int
    rule_class: str
    #: the ORDER automaton as its table kernel (interned symbols, dense
    #: transition table, liveness bitmasks) — persisted so a warm start
    #: skips the automaton build
    kernel: "DfaKernel"
    #: enumerated repetition-free accepting paths, as label sequences
    path_labels: tuple[tuple[str, ...], ...]
    #: label -> concrete event labels (aggregates pre-expanded)
    expansions: dict[str, tuple[str, ...]]
    #: predicate name -> indexes into ``rule.ensures``
    ensures_index: dict[str, tuple[int, ...]]
    #: (method name, arity) -> event label
    event_signatures: dict[tuple[str, int], str]
    #: object name -> indexes into ``rule.constraints``
    constraint_index: dict[str, tuple[int, ...]]


@dataclass
class LoadResult:
    """Outcome of one :meth:`DiskRuleCache.load` call."""

    artefacts: CachedArtefacts | None = None
    evicted: bool = False

    @property
    def hit(self) -> bool:
        return self.artefacts is not None


class CacheDirectoryError(OSError):
    """The cache directory cannot be created or written to."""


class PickleStore:
    """A directory of content-addressed, atomically written pickles.

    The generic machinery behind every persistent cache in the repo:
    the compiled-rule store (:class:`DiskRuleCache`) subclasses it, and
    the per-function summary cache (:mod:`repro.sast.summary_cache`)
    plugs one in as the disk tier of its :class:`~repro.cache.LRUCache`.
    Each configures its own file suffix, payload type, schema version
    and counter-key prefix (``name``). Entries are validated on load —
    a corrupt, mistyped or schema-drifted pickle is evicted and
    recomputed by the caller, never surfaced as an exception.

    The store validates writability up front (create the directory,
    write and remove a probe file) so misconfiguration surfaces as one
    clean :class:`CacheDirectoryError` instead of a mid-run traceback.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        suffix: str,
        payload_type: type,
        schema_version: int,
        name: str,
    ):
        self.directory = Path(directory)
        self.schema_version = schema_version
        self._suffix = suffix
        self._payload_type = payload_type
        #: lifetime counts; ``io_errors`` counts every failed *attempt*,
        #: whether or not a retry recovered it
        self.diagnostics = Diagnostics()
        self._io_errors_key = f"{name}.io_errors"
        self._evictions_key = f"{name}.evictions"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # The probe must be unique per construction: parallel batch
            # workers all open the same cache directory at startup, and
            # a shared probe name lets one process unlink the file
            # another just wrote, failing a perfectly writable cache.
            fd, probe = tempfile.mkstemp(
                dir=self.directory, prefix=".probe-"
            )
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise CacheDirectoryError(
                f"cache directory {self.directory} is not writable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}{self._suffix}"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{self._suffix}"))

    # ------------------------------------------------------------------
    # load / store / evict
    # ------------------------------------------------------------------

    def load(self, key: str) -> LoadResult:
        """Read one entry; corrupt or drifted entries are evicted.

        Never raises on bad content: any failure to unpickle, a payload
        of the wrong type, or a recorded schema version that disagrees
        with ours (belt-and-braces — the key already encodes it) turns
        into an eviction plus a recomputation by the caller.
        """
        with _trace_span("cache:load"):
            return self._load(key)

    def _read_with_retries(self, path: Path) -> bytes:
        """Read one entry's bytes, absorbing transient I/O failures.

        ``FileNotFoundError`` is a miss, not a flake — it propagates
        immediately. Everything else ``OSError``/``EOFError``-shaped is
        retried :data:`IO_ATTEMPTS` times with a short doubling backoff
        before the last error is re-raised for the caller to degrade on.
        """
        last: Exception | None = None
        for attempt in range(IO_ATTEMPTS):
            try:
                faults.maybe_raise_os("disk_io")
                return path.read_bytes()
            except FileNotFoundError:
                raise
            except (OSError, EOFError) as exc:
                last = exc
                self._io_error(path.name, exc)
                if attempt + 1 < IO_ATTEMPTS:
                    time.sleep(IO_RETRY_BASE_SECONDS * (2**attempt))
        assert last is not None
        raise last

    def _load(self, key: str) -> LoadResult:
        path = self.path_for(key)
        try:
            payload = self._read_with_retries(path)
        except FileNotFoundError:
            return LoadResult()
        except (OSError, EOFError) as exc:
            return LoadResult(evicted=self.evict(key, f"unreadable: {exc}"))
        try:
            artefacts = pickle.loads(payload)
        except Exception as exc:  # truncated/corrupt pickles raise variously
            problem = f"corrupt entry ({exc!r})"
        else:
            if (
                isinstance(artefacts, self._payload_type)
                and getattr(artefacts, "schema_version", None)
                == self.schema_version
            ):
                return LoadResult(artefacts=artefacts)
            problem = "stale entry (schema drift)"
        return LoadResult(evicted=self.evict(key, f"{problem}; recomputing"))

    def evict(self, key: str, message: str) -> bool:
        """Drop one entry (corrupt, stale, or no longer matching its
        rule); counted as an eviction. Returns whether the file is gone."""
        self.diagnostics.count_attributed(self._evictions_key)
        self._warn("evicted", key, message)
        return self._evict_file(self.path_for(key))

    def _evict_file(self, path: Path) -> bool:
        try:
            path.unlink(missing_ok=True)
            return True
        except OSError:
            return False

    def store(self, key: str, artefacts: CachedArtefacts) -> bool:
        """Atomically persist one entry; returns False on I/O failure.

        The pickle is written to a temporary file in the cache
        directory and moved into place with ``os.replace``, so readers
        and concurrent writers never observe a partial entry.
        """
        with _trace_span("cache:store"):
            return self._store(key, artefacts)

    def _store(self, key: str, artefacts: CachedArtefacts) -> bool:
        path = self.path_for(key)
        for attempt in range(IO_ATTEMPTS):
            try:
                faults.maybe_raise_os("disk_io")
                fd, temp_name = tempfile.mkstemp(
                    dir=self.directory, prefix=".write-", suffix=self._suffix
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        pickle.dump(
                            artefacts, handle, protocol=pickle.HIGHEST_PROTOCOL
                        )
                    os.replace(temp_name, path)
                except BaseException:
                    os.unlink(temp_name)
                    raise
            except (OSError, EOFError) as exc:
                self._io_error(key, exc)
                if attempt + 1 < IO_ATTEMPTS:
                    time.sleep(IO_RETRY_BASE_SECONDS * (2**attempt))
                    continue
                self._warn("write-failed", key, str(exc))
                return False
            return True
        return False  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    # diagnostics plumbing
    # ------------------------------------------------------------------

    def _io_error(self, key: str, error: Exception) -> None:
        self.diagnostics.count_attributed(self._io_errors_key)
        self._warn("io-error", key, f"transient I/O failure: {error}")

    def _warn(self, kind: str, key: str, message: str) -> None:
        self.diagnostics.warn_attributed(
            "cache", f"disk cache [{kind}] {key[:12]}…: {message}"
        )

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self.directory.glob(f"*{self._suffix}"):
            if self._evict_file(path):
                removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.directory} "
            f"schema={self.schema_version} entries={len(self)}>"
        )


class DiskRuleCache(PickleStore):
    """The compiled-rule artefact store (a :class:`PickleStore` of
    :class:`CachedArtefacts`).

    Evictions and I/O errors count as ``disk_cache.*`` here; hits,
    misses and writes in the consuming
    :class:`~repro.crysl.ruleset.RuleSet`, which alone knows whether a
    loaded entry still matches its rule.
    """

    def __init__(
        self,
        directory: str | Path,
        schema_version: int = SCHEMA_VERSION,
    ):
        super().__init__(
            directory,
            suffix=_SUFFIX,
            payload_type=CachedArtefacts,
            schema_version=schema_version,
            name="disk_cache",
        )

    def key(self, rule_source: str, *, max_paths: int | None = None) -> str:
        """The content-addressed key for one rule source."""
        digest = hashlib.sha256()
        digest.update(f"schema:{self.schema_version}\n".encode())
        digest.update(f"max_paths:{max_paths}\n".encode())
        digest.update(rule_source.encode("utf-8"))
        return digest.hexdigest()
