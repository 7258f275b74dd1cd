"""Loading and indexing CrySL rule sets.

A *rule set* is a directory of ``*.crysl`` files, one class per file —
the same layout as the Crypto-API-Rules repository the paper reuses.
The default rule set shipped with this package lives in
:mod:`repro.rules` and covers the JCA-style provider.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import threading
from concurrent.futures import Future
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from ..diagnostics import (
    COMPILED_HITS,
    COMPILED_MISSES,
    DISK_HITS,
    DISK_MISSES,
    DISK_WRITES,
    Diagnostics,
)
from .ast import Rule
from .compiled import CompiledRule
from .errors import RuleNotFoundError
from .parser import parse_rule
from .typecheck import check_rule

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from ..cache.store import DiskRuleCache


class FrozenRuleSetError(TypeError):
    """A mutation was attempted on a frozen (shared) rule set."""


class RuleSet:
    """An indexed collection of checked CrySL rules.

    Rules are addressable by qualified class name and by simple name
    (when unambiguous) — templates use whichever reads better.

    A rule set also owns the compilation cache for its rules
    (:meth:`compiled`): DFAs, enumerated paths and predicate tables are
    derived once per rule and shared by every consumer of the set. A
    rule set can be :meth:`frozen <freeze>`, after which :meth:`add`
    raises — the bundled set is shared process-wide and is frozen so
    one caller's additions cannot leak into another's generator.

    Frozen rule sets are safe to share between threads: the compiled-
    artefact memo is guarded by a set-level lock with a *single-flight*
    entry per rule — N concurrent consumers racing on one uncompiled
    rule produce exactly one :class:`CompiledRule` (and, through its
    per-entry lock, exactly one DFA build); the losers wait on the
    winner's in-flight future instead of recompiling. Mutable
    (unfrozen) sets remain single-threaded setup objects.

    The set's lifetime :attr:`diagnostics` counts its compile-cache
    traffic — ``compiled_rules.*``, ``dfa.builds``,
    ``paths.enumerations`` and ``disk_cache.*`` — and attributes every
    count to the runs recording on the calling thread
    (:meth:`~repro.diagnostics.Diagnostics.recording`).
    """

    def __init__(self, rules: list[Rule] | tuple[Rule, ...] = ()):
        self._by_qualified: dict[str, Rule] = {}
        self._by_simple: dict[str, list[Rule]] = {}
        self._frozen = False
        self._compiled: dict[str, CompiledRule] = {}
        #: lifetime compile-cache counters (see the class docstring)
        self.diagnostics = Diagnostics()
        #: qualified class name -> rule source text (disk-cache keying)
        self._sources: dict[str, str] = {}
        self._disk_cache: "DiskRuleCache | None" = None
        #: guards _compiled/_inflight (and index mutation via add())
        self._lock = threading.RLock()
        #: class name -> in-flight CompiledRule creation (single-flight)
        self._inflight: dict[str, "Future[CompiledRule]"] = {}
        #: memoised content fingerprint (invalidated by add())
        self._fingerprint: str | None = None
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule, source: str | None = None) -> None:
        """Index one rule, replacing any prior rule for the same class.

        ``source`` is the rule's ``.crysl`` text; when provided it keys
        the rule's entry in an attached disk cache. Rules added without
        source are still fully usable — they just never persist.
        """
        if self._frozen:
            raise FrozenRuleSetError(
                "this rule set is frozen (it is shared); call .copy() and "
                "add rules to the private copy instead"
            )
        with self._lock:
            previous = self._by_qualified.get(rule.class_name)
            if previous is not None:
                self._by_simple[previous.simple_name].remove(previous)
            self._by_qualified[rule.class_name] = rule
            self._by_simple.setdefault(rule.simple_name, []).append(rule)
            self._compiled.pop(rule.class_name, None)
            self._fingerprint = None
            if source is not None:
                self._sources[rule.class_name] = source
            else:
                self._sources.pop(rule.class_name, None)

    def rule_source(self, class_name: str) -> str | None:
        """The recorded ``.crysl`` source for one rule, if known."""
        return self._sources.get(class_name)

    @property
    def fingerprint(self) -> str:
        """A content digest of the whole set (result-cache keying).

        Hashes every rule's qualified name and recorded source, in
        sorted order, so two sets loaded from the same ``.crysl`` files
        agree. Rules added without source fall back to an
        identity-based tag — unique per object, which only ever makes
        the fingerprint *more* conservative. Memoised until the next
        :meth:`add`; :meth:`evolve` successors recompute lazily.
        """
        fp = self._fingerprint
        if fp is None:
            digest = hashlib.sha256()
            with self._lock:
                for name in sorted(self._by_qualified):
                    source = self._sources.get(name)
                    if source is None:
                        source = f"<unsourced:{id(self._by_qualified[name])}>"
                    digest.update(name.encode("utf-8"))
                    digest.update(b"\x00")
                    digest.update(source.encode("utf-8"))
                    digest.update(b"\x01")
                fp = self._fingerprint = digest.hexdigest()
        return fp

    # ------------------------------------------------------------------
    # sharing and mutation control
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "RuleSet":
        """Make this set immutable (chainable); idempotent."""
        self._frozen = True
        return self

    def copy(self) -> "RuleSet":
        """A mutable copy with the same rules and a cold compile cache.

        Rule sources carry over (so an attached disk cache keeps
        working on the copy); the disk cache itself does not — attach
        one explicitly if the copy should share it.
        """
        fresh = RuleSet()
        for rule in self._by_qualified.values():
            fresh.add(rule, source=self._sources.get(rule.class_name))
        return fresh

    def evolve(
        self,
        updates: "Iterable[tuple[Rule, str | None]]" = (),
        removals: "Iterable[str]" = (),
    ) -> "RuleSet":
        """A copy-on-write successor: replace/remove some rules, keep
        every other rule's *compiled artefacts* warm.

        This is the incremental-refresh primitive behind
        :class:`~repro.crysl.repository.RuleRepository`: unchanged
        rules carry their :class:`~repro.crysl.compiled.CompiledRule`
        entries (and the attached disk cache) into the successor, so
        re-touching them costs a cache hit, not a recompile. Updated
        rules start cold and recompile on first use.

        The predecessor must be treated as retired after this call:
        carried entries are re-homed onto the successor's
        :attr:`diagnostics`, so further compilation through the old
        set would count against the wrong cache. The successor is
        returned unfrozen; callers decide whether to freeze it.
        """
        updates = tuple(updates)
        removed = set(removals)
        replaced = {rule.class_name for rule, _ in updates}
        fresh = RuleSet()
        for rule in self._by_qualified.values():
            if rule.class_name in removed or rule.class_name in replaced:
                continue
            fresh.add(rule, source=self._sources.get(rule.class_name))
        for rule, source in updates:
            if rule.class_name not in removed:
                fresh.add(rule, source=source)
        with self._lock:
            carried = list(self._compiled.items())
        for name, entry in carried:
            if name in removed or name in replaced:
                continue
            if name in fresh._by_qualified:
                entry.adopt_diagnostics(fresh.diagnostics)
                fresh._compiled[name] = entry
        if self._disk_cache is not None:
            fresh._disk_cache = self._disk_cache
        return fresh

    # ------------------------------------------------------------------
    # the compilation cache (in-memory level + optional disk level)
    # ------------------------------------------------------------------

    def attach_disk_cache(self, cache: "DiskRuleCache") -> "RuleSet":
        """Attach a persistent artefact store (chainable).

        Allowed on frozen sets: attaching a cache changes *when*
        compilation work happens, never which rules the set holds.
        Cache misses fall through to a normal compile; the computed
        artefacts are persisted by :meth:`flush_disk_cache` (called on
        every ``GenerationContext.run`` exit).
        """
        self._disk_cache = cache
        return self

    @property
    def disk_cache(self) -> "DiskRuleCache | None":
        return self._disk_cache

    def compiled(
        self, rule_or_name: Rule | str, *, max_paths: int | None = None
    ) -> CompiledRule:
        """The :class:`CompiledRule` for one of this set's rules.

        Artefacts are cached per qualified class name; replacing a rule
        via :meth:`add` invalidates its entry. Accepts the rule object
        or any name :meth:`get` accepts. On an in-memory miss, an
        attached disk cache is consulted before compiling from scratch;
        a disk hit seeds the entry without a single DFA build or path
        enumeration. ``max_paths`` applies to entries created by this
        call (already-cached entries keep their bound).
        """
        rule = (
            self.get(rule_or_name)
            if isinstance(rule_or_name, str)
            else rule_or_name
        )
        with self._lock:
            entry = self._compiled.get(rule.class_name)
            if entry is not None and entry.rule is rule:
                self.diagnostics.count_attributed(COMPILED_HITS)
                return entry
            flight = self._inflight.get(rule.class_name)
            owner = flight is None
            if owner:
                # This thread wins the flight: it creates (and disk-
                # loads) the entry outside the set lock; racers wait on
                # the future instead of compiling again.
                flight = Future()
                self._inflight[rule.class_name] = flight
        if not owner:
            # Another thread owns the in-flight creation: wait, then
            # count this call as the cache hit it effectively was.
            entry = flight.result()
            if entry.rule is rule:
                self.diagnostics.count_attributed(COMPILED_HITS)
                return entry
            # The flight resolved for a different rule object (the rule
            # was replaced mid-creation on a mutable set): retry.
            return self.compiled(rule, max_paths=max_paths)
        try:
            self.diagnostics.count_attributed(COMPILED_MISSES)
            entry = CompiledRule(rule, self.diagnostics, max_paths=max_paths)
            self._load_from_disk(entry)
            with self._lock:
                self._compiled[rule.class_name] = entry
            flight.set_result(entry)
            return entry
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(rule.class_name, None)

    def _load_from_disk(self, entry: CompiledRule) -> None:
        """Try to warm one fresh entry from the attached disk cache."""
        if self._disk_cache is None:
            return
        source = self._sources.get(entry.rule.class_name)
        if source is None:
            return
        entry.disk_key = self._disk_cache.key(source, max_paths=entry.max_paths)
        # The store counts its own evictions (disk_cache.evictions).
        result = self._disk_cache.load(entry.disk_key)
        if result.artefacts is not None:
            if entry.preload(result.artefacts):
                self.diagnostics.count_attributed(DISK_HITS)
                return
            # Preload refused the entry: it no longer matches the rule.
            self._disk_cache.evict(
                entry.disk_key,
                f"{entry.rule.class_name}: entry does not match the rule; "
                "recomputing",
            )
        self.diagnostics.count_attributed(DISK_MISSES)

    def flush_disk_cache(self) -> int:
        """Persist every compiled-but-unwritten entry; returns the count.

        Idempotent and cheap when there is nothing new: entries loaded
        from disk, or already written, are skipped, as are entries
        whose kernel was never built.
        """
        if self._disk_cache is None:
            return 0
        written = 0
        with self._lock:
            entries = list(self._compiled.values())
        for entry in entries:
            if entry.persisted or entry.disk_key is None:
                continue
            artefacts = entry.export_artefacts()
            if artefacts is None:
                continue
            if self._disk_cache.store(entry.disk_key, artefacts):
                self.diagnostics.count_attributed(DISK_WRITES)
                entry.persisted = True
                written += 1
        return written

    def get(self, class_name: str) -> Rule:
        """Look up by qualified or (unambiguous) simple class name."""
        rule = self._by_qualified.get(class_name)
        if rule is not None:
            return rule
        candidates = self._by_simple.get(class_name, [])
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            qualified = ", ".join(sorted(r.class_name for r in candidates))
            raise RuleNotFoundError(
                f"{class_name} (ambiguous; qualify as one of: {qualified})"
            )
        raise RuleNotFoundError(class_name, tuple(self._by_qualified))

    def __contains__(self, class_name: str) -> bool:
        try:
            self.get(class_name)
        except RuleNotFoundError:
            return False
        return True

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._by_qualified.values())

    def __len__(self) -> int:
        return len(self._by_qualified)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_qualified))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_directory(cls, directory: str | Path) -> "RuleSet":
        """Parse and check every ``*.crysl`` file under ``directory``."""
        directory = Path(directory)
        if not directory.is_dir():
            raise FileNotFoundError(f"rule directory not found: {directory}")
        ruleset = cls()
        for path in sorted(directory.glob("*.crysl")):
            source = path.read_text(encoding="utf-8")
            ruleset.add(check_rule(parse_rule(source, path.name)), source=source)
        return ruleset

    @classmethod
    def bundled(cls) -> "RuleSet":
        """The rule set shipped in :mod:`repro.rules` (the JCA provider rules)."""
        package_dir = importlib.resources.files("repro.rules")
        ruleset = cls()
        for entry in sorted(package_dir.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".crysl"):
                source = entry.read_text(encoding="utf-8")
                ruleset.add(
                    check_rule(parse_rule(source, entry.name)), source=source
                )
        return ruleset


def load_rule_file(path: str | Path) -> Rule:
    """Parse and semantically check a single rule file."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return check_rule(parse_rule(source, path.name))


_BUNDLED_CACHE: RuleSet | None = None


def bundled_ruleset() -> RuleSet:
    """The shared, frozen bundled rule set (parsing is pure).

    The instance — and with it the compiled-rule cache — is shared by
    every generator, analyzer and eval runner in the process, so it is
    frozen: mutating it would leak rules into unrelated consumers. Use
    ``bundled_ruleset().copy()`` (or :meth:`RuleSet.bundled` for a cold
    cache) to get a private, mutable set.
    """
    global _BUNDLED_CACHE
    if _BUNDLED_CACHE is None:
        _BUNDLED_CACHE = RuleSet.bundled().freeze()
    return _BUNDLED_CACHE
