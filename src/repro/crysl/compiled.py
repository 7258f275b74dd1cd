"""Compiled per-rule artefacts, computed once and shared everywhere.

CrySL treats rules as immutable compiled artefacts that every analysis
shares (Krüger et al.), and this module is that idea for the
reproduction: a :class:`CompiledRule` lazily derives and caches the
expensive by-products of one parsed rule —

* the ORDER automaton as its table kernel (``kernel``) — interned
  symbols, dense transition table, liveness bitmasks; the form every
  hot path steps,
* the repetition-free accepting paths (``paths``),
* label → concrete-event expansions (``expand_label``),
* pre-indexed ENSURES/CONSTRAINTS/EVENTS tables
  (``ensures_by_name``, ``constraints_mentioning``,
  ``events_by_signature``),
* memoised per-path predicate grants and NEGATES deferrals
  (``granted_predicates``, ``invalidating_events``).

Instances are cached on the owning :class:`~repro.crysl.ruleset.
RuleSet` (``RuleSet.compiled``), so chains, templates, the SAST
analyzer and the eval table runners all pay compilation exactly once
per rule. The set's lifetime :class:`~repro.diagnostics.Diagnostics`
counts hits, misses and rebuilds, and attributes each one to the run
that caused it (:meth:`~repro.diagnostics.Diagnostics.recording`).

The heavy derivations live in :mod:`repro.fsm` and
:mod:`repro.predicates`, which import this package — hence the lazy,
function-level imports below.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..diagnostics import DFA_BUILDS, PATH_ENUMERATIONS, Diagnostics
from . import ast

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from ..cache.store import CachedArtefacts

def _mentioned_objects(expr: ast.ConstraintExpr) -> frozenset[str]:
    """All OBJECTS names a constraint tree references."""
    out: set[str] = set()

    def value(node: ast.ValueExpr) -> None:
        if isinstance(node, ast.ObjectRef):
            out.add(node.name)
        elif isinstance(node, (ast.LengthOf, ast.PartOf)):
            out.add(node.operand.name)

    def walk(node: ast.ConstraintExpr) -> None:
        if isinstance(node, ast.Comparison):
            value(node.lhs)
            value(node.rhs)
        elif isinstance(node, ast.InSet):
            value(node.subject)
        elif isinstance(node, ast.Implication):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, ast.BoolOp):
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, ast.Negation):
            walk(node.operand)
        elif isinstance(node, ast.InstanceOf):
            out.add(node.operand.name)
        # CallTo / NoCallTo reference event labels, not objects.

    walk(expr)
    return frozenset(out)


class CompiledRule:
    """One rule's derived artefacts, each computed at most once.

    Thread safety: the expensive derivations (:attr:`kernel`,
    :attr:`paths`, the section indexes) are guarded by one per-entry
    re-entrant lock with double-checked laziness — N threads racing on
    an uncompiled rule perform exactly one DFA build and one path
    enumeration while the rest wait on the lock. The cheap memo tables
    (label expansions, predicate grants) stay lock-free: their
    derivations are pure, so a rare duplicate compute is harmless and
    the GIL makes the dict publication atomic.
    """

    __slots__ = (
        "rule",
        "max_paths",
        "disk_key",
        "persisted",
        "_diagnostics",
        "_lock",
        "_kernel",
        "_paths",
        "_expansions",
        "_granted",
        "_invalidating",
        "_constraint_index",
        "_ensures_by_name",
        "_events_by_signature",
    )

    def __init__(
        self,
        rule: ast.Rule,
        diagnostics: Diagnostics | None = None,
        *,
        max_paths: int | None = None,
    ):
        self.rule = rule
        #: path-explosion bound for this rule's enumeration; ``None``
        #: falls back to :data:`repro.fsm.paths.MAX_PATHS`. Set via
        #: ``GenerationContext(max_paths=...)``.
        self.max_paths = max_paths
        #: content-addressed key in the attached disk cache (if any)
        self.disk_key: str | None = None
        #: True once the artefacts are known to be on disk (loaded from
        #: it, or written by ``RuleSet.flush_disk_cache``)
        self.persisted = False
        self._diagnostics = (
            diagnostics if diagnostics is not None else Diagnostics()
        )
        #: per-entry guard for the expensive lazy derivations; re-entrant
        #: because ``paths`` forces ``kernel`` while holding it
        self._lock = threading.RLock()
        self._kernel = None
        self._paths: tuple[tuple[ast.Event, ...], ...] | None = None
        self._expansions: dict[str, tuple[str, ...]] = {}
        self._granted: dict[tuple[str, ...], tuple[ast.PredicateUse, ...]] = {}
        self._invalidating: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._constraint_index: dict[str, tuple[ast.ConstraintExpr, ...]] | None = None
        self._ensures_by_name: dict[str, tuple[ast.PredicateUse, ...]] | None = None
        self._events_by_signature: dict[tuple[str, int], ast.Event] | None = None

    # ------------------------------------------------------------------
    # automaton + paths
    # ------------------------------------------------------------------

    @property
    def kernel(self):
        """The ORDER automaton's table kernel, built on first access
        (single-flight).

        Warm starts rehydrate it straight from the disk cache; either
        way every walker this rule's consumers allocate shares one
        kernel instance.
        """
        kernel = self._kernel
        if kernel is None:
            with self._lock:
                if self._kernel is None:
                    from ..fsm.build import rule_dfa

                    self._kernel = rule_dfa(self.rule)
                    self._diagnostics.count_attributed(DFA_BUILDS)
                kernel = self._kernel
        return kernel

    @property
    def paths(self) -> tuple[tuple[ast.Event, ...], ...]:
        """The repetition-free accepting paths, enumerated on first access."""
        paths = self._paths
        if paths is None:
            with self._lock:
                if self._paths is None:
                    from ..fsm.paths import enumerate_paths

                    self._paths = tuple(
                        enumerate_paths(
                            self.rule,
                            kernel=self.kernel,
                            max_paths=self.max_paths,
                        )
                    )
                    self._diagnostics.count_attributed(PATH_ENUMERATIONS)
                paths = self._paths
        return paths

    # ------------------------------------------------------------------
    # disk-cache rehydration and export
    # ------------------------------------------------------------------

    def preload(self, artefacts: "CachedArtefacts") -> bool:
        """Seed the lazy slots from persisted artefacts.

        Rehydrates every name-based reference against the live rule, so
        consumers keep identity with the rule's own AST nodes. Returns
        ``False`` — leaving the instance cold — when anything no longer
        resolves (the entry predates a rule edit the key missed, which
        cannot happen for source-keyed entries but is guarded anyway).
        Successful preloads bump **no** build counters: that is the
        point of the disk cache.
        """
        with self._lock:
            return self._preload(artefacts)

    def _preload(self, artefacts: "CachedArtefacts") -> bool:
        if artefacts.rule_class != self.rule.class_name:
            return False
        paths: list[tuple[ast.Event, ...]] = []
        for labels in artefacts.path_labels:
            events = []
            for label in labels:
                event = self.rule.event_labelled(label)
                if event is None:
                    return False
                events.append(event)
            paths.append(tuple(events))
        signatures: dict[tuple[str, int], ast.Event] = {}
        for signature, label in artefacts.event_signatures.items():
            event = self.rule.event_labelled(label)
            if event is None:
                return False
            signatures[signature] = event
        ensures = self.rule.ensures
        constraints = self.rule.constraints
        try:
            ensures_by_name = {
                name: tuple(ensures[i] for i in indexes)
                for name, indexes in artefacts.ensures_index.items()
            }
            constraint_index = {
                name: tuple(constraints[i] for i in indexes)
                for name, indexes in artefacts.constraint_index.items()
            }
        except IndexError:
            return False
        self._kernel = artefacts.kernel
        self._paths = tuple(paths)
        self._expansions = dict(artefacts.expansions)
        self._ensures_by_name = ensures_by_name
        self._events_by_signature = signatures
        self._constraint_index = constraint_index
        self.persisted = True
        return True

    def export_artefacts(self) -> "CachedArtefacts | None":
        """The persistable form of this rule's artefacts.

        Returns ``None`` while the kernel has not been built yet —
        there is nothing worth writing. The paths (which an analysis
        never forces) and the cheap indexes are forced here so a
        persisted entry is complete.
        """
        with self._lock:
            return self._export_artefacts()

    def _export_artefacts(self) -> "CachedArtefacts | None":
        if self._kernel is None:
            return None
        from ..cache.store import CachedArtefacts, SCHEMA_VERSION

        # Complete the label-expansion table: every event and aggregate
        # label, not just the ones consumers happened to ask for.
        for event in self.rule.events:
            self.expand_label(event.label)
        for aggregate in self.rule.aggregates:
            self.expand_label(aggregate.label)
        ensures_position = {id(e): i for i, e in enumerate(self.rule.ensures)}
        constraint_position = {id(c): i for i, c in enumerate(self.rule.constraints)}
        return CachedArtefacts(
            schema_version=SCHEMA_VERSION,
            rule_class=self.rule.class_name,
            kernel=self._kernel,
            path_labels=tuple(
                tuple(event.label for event in path) for path in self.paths
            ),
            expansions=dict(self._expansions),
            ensures_index={
                name: tuple(ensures_position[id(e)] for e in entries)
                for name, entries in self.ensures_by_name.items()
            },
            event_signatures={
                signature: event.label
                for signature, event in self.events_by_signature.items()
            },
            constraint_index={
                name: tuple(constraint_position[id(c)] for c in entries)
                for name, entries in self._full_constraint_index().items()
            },
        )

    def _full_constraint_index(self) -> dict[str, tuple[ast.ConstraintExpr, ...]]:
        """Force and return the per-object CONSTRAINTS index."""
        self.constraints_mentioning("")  # force the lazy index
        assert self._constraint_index is not None
        return self._constraint_index

    # ------------------------------------------------------------------
    # label + predicate tables
    # ------------------------------------------------------------------

    def expand_label(self, label: str) -> tuple[str, ...]:
        expanded = self._expansions.get(label)
        if expanded is None:
            expanded = self.rule.expand_label(label)
            self._expansions[label] = expanded
        return expanded

    @property
    def ensures_by_name(self) -> dict[str, tuple[ast.PredicateUse, ...]]:
        """ENSURES entries indexed by predicate name (for the linker)."""
        table = self._ensures_by_name
        if table is None:
            with self._lock:
                if self._ensures_by_name is None:
                    index: dict[str, list[ast.PredicateUse]] = {}
                    for ensured in self.rule.ensures:
                        index.setdefault(ensured.name, []).append(ensured)
                    self._ensures_by_name = {
                        name: tuple(entries) for name, entries in index.items()
                    }
                table = self._ensures_by_name
        return table

    @property
    def events_by_signature(self) -> dict[tuple[str, int], ast.Event]:
        """``(method name, arity) -> event`` (for the SAST analyzer)."""
        table = self._events_by_signature
        if table is None:
            with self._lock:
                if self._events_by_signature is None:
                    index: dict[tuple[str, int], ast.Event] = {}
                    for event in self.rule.events:
                        index.setdefault((event.method_name, event.arity), event)
                    self._events_by_signature = index
                table = self._events_by_signature
        return table

    def constraints_mentioning(
        self, object_name: str
    ) -> tuple[ast.ConstraintExpr, ...]:
        """Top-level CONSTRAINTS entries whose tree references the object.

        The value deriver only needs to scan these when collecting
        candidates for one object — the pre-index replaces a full walk
        of every constraint per derivation.
        """
        table = self._constraint_index
        if table is None:
            with self._lock:
                if self._constraint_index is None:
                    index: dict[str, list[ast.ConstraintExpr]] = {}
                    for constraint in self.rule.constraints:
                        for name in _mentioned_objects(constraint):
                            index.setdefault(name, []).append(constraint)
                    self._constraint_index = {
                        name: tuple(entries) for name, entries in index.items()
                    }
                table = self._constraint_index
        return table.get(object_name, ())

    def adopt_diagnostics(self, diagnostics: Diagnostics) -> None:
        """Count this entry's later builds into another rule set's record.

        Used when a compiled entry is carried from a predecessor rule
        set into its copy-on-write successor (``RuleSet.evolve``): the
        predecessor is discarded, so later lazy derivations must count
        against the successor.
        """
        self._diagnostics = diagnostics

    def clear_link_memos(self) -> None:
        """Drop the ENSURES/REQUIRES-derived memo tables.

        Called for rules *dependent* on an edited rule during an
        incremental refresh: their own automaton and paths are
        untouched (no recompile), but memoised predicate grants and
        NEGATES deferrals must be re-derived so the next generation
        relinks against the edited neighbour.
        """
        with self._lock:
            self._granted = {}
            self._invalidating = {}
            self._ensures_by_name = None

    def granted_predicates(
        self, path_labels: tuple[str, ...]
    ) -> tuple[ast.PredicateUse, ...]:
        """Memoised ENSURES grants for one call path (selector hot loop)."""
        granted = self._granted.get(path_labels)
        if granted is None:
            from ..predicates.instances import granted_predicates

            granted = granted_predicates(self.rule, path_labels)
            self._granted[path_labels] = granted
        return granted

    def invalidating_events(
        self, path_labels: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Memoised NEGATES deferrals for one call path."""
        deferred = self._invalidating.get(path_labels)
        if deferred is None:
            from ..predicates.instances import invalidating_events

            deferred = invalidating_events(self.rule, path_labels)
            self._invalidating[path_labels] = deferred
        return deferred

    def __repr__(self) -> str:
        return f"<CompiledRule {self.rule.class_name}>"
