"""The rule automaton: a DFA as dense tables for the hot path.

Subset construction (:func:`repro.fsm.automaton.determinize`) emits a
:class:`DfaKernel` directly; it is the only deterministic automaton the
program builds, caches or steps. Every per-event operation on it is an
O(1) index or bit operation:

* **interned symbols** — each transition label maps to a small integer
  (``symbol_ids``), shared by every walker over the kernel;
* **dense transition table** — a flat ``array('i')`` indexed
  ``state * n_symbols + symbol_id``, with an *explicit* dead state
  (index ``dead``) whose every transition points back at itself, so
  stepping never branches on ``None``;
* **column-major view** — ``columns[symbol]`` is the per-state
  successor column for one symbol, so batch replay resolves a label to
  its column once and then pays a single array index per event;
* **accepting/live bitmasks** — ``accepting_mask`` marks accepting
  states; ``live_mask`` marks states from which an accepting state is
  still reachable, computed once by reverse BFS at build time, so
  prefix viability is a single bit test instead of a per-call DFS;
* **expected-symbol sets** — one precomputed ``frozenset`` of outgoing
  labels per state, for diagnostics.

:class:`KernelWalker` is the slotted cursor over a kernel that the SAST
analyzer steps per tracked object; it is allocation-light, resettable
in place (so typestate restarts reuse the walker instead of allocating
a fresh one), and offers a batch :meth:`~KernelWalker.replay` whose hot
loop is one dict probe plus one array index per event — violation
bookkeeping is deferred to a rare re-walk.

Kernels are value objects: they pickle compactly (the disk rule cache
persists them, see ``repro.cache.store.SCHEMA_VERSION``; the
column-major view is rederived on load, never serialized) and compare
equal structurally, which the cache round-trip tests rely on. The
readable dict-based DFA the kernel replaced lives on as the test
oracle in ``tests/fsm/reference.py``.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable, Mapping, Sequence


class DfaKernel:
    """One rule's ORDER DFA as dense tables (see module docstring).

    States ``0 .. n_states-2`` are the DFA's own states, numbered as
    subset construction discovered them; state ``dead == n_states-1``
    is the explicit dead state. Unknown symbols — labels outside the
    automaton's alphabet — are handled by :meth:`step` (and the walker)
    as a transition to ``dead``.
    """

    __slots__ = (
        "symbols",
        "symbol_ids",
        "n_symbols",
        "n_states",
        "start",
        "dead",
        "table",
        "columns",
        "accepting_mask",
        "live_mask",
        "expected",
    )

    def __init__(
        self,
        *,
        symbols: tuple[str, ...],
        start: int,
        table: array,
        accepting_mask: int,
        live_mask: int,
        expected: tuple[frozenset[str], ...],
    ):
        self.symbols = symbols
        self.symbol_ids = {symbol: i for i, symbol in enumerate(symbols)}
        self.n_symbols = len(symbols)
        self.n_states = len(expected)
        self.start = start
        self.dead = self.n_states - 1
        self.table = table
        # Column-major view of the same table: one successor column per
        # symbol. Derived, not serialized — __setstate__ rebuilds it.
        self.columns = {
            symbol: table[i :: self.n_symbols]
            for symbol, i in self.symbol_ids.items()
        }
        self.accepting_mask = accepting_mask
        self.live_mask = live_mask
        self.expected = expected

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dfa(
        cls,
        start: int,
        accepting: Iterable[int],
        transitions: Sequence[Mapping[str, int]],
    ) -> "DfaKernel":
        """Compile a DFA given as tables: ``transitions[state][symbol]``
        is the successor, a missing entry the dead state."""
        symbols = tuple(sorted({symbol for moves in transitions for symbol in moves}))
        symbol_ids = {symbol: i for i, symbol in enumerate(symbols)}
        n_symbols = len(symbols)
        dead = len(transitions)  # one extra, explicit dead state
        n_states = dead + 1

        table = array("i", [dead]) * (n_states * n_symbols) if n_symbols else array("i")
        expected: list[frozenset[str]] = []
        for state, moves in enumerate(transitions):
            base = state * n_symbols
            for symbol, target in moves.items():
                table[base + symbol_ids[symbol]] = target
            expected.append(frozenset(moves))
        expected.append(frozenset())  # the dead state expects nothing

        live = set(accepting)
        accepting_mask = 0
        for state in live:
            accepting_mask |= 1 << state

        # Reverse BFS from the accepting states over a reversed edge
        # index: a state is *live* when some accepting state is still
        # reachable from it. Computed once here; queried per event as a
        # single bit test.
        reverse: dict[int, list[int]] = {}
        for state, moves in enumerate(transitions):
            for target in moves.values():
                reverse.setdefault(target, []).append(state)
        queue = deque(live)
        while queue:
            current = queue.popleft()
            for source in reverse.get(current, ()):
                if source not in live:
                    live.add(source)
                    queue.append(source)
        live_mask = 0
        for state in live:
            live_mask |= 1 << state

        return cls(
            symbols=symbols,
            start=start,
            table=table,
            accepting_mask=accepting_mask,
            live_mask=live_mask,
            expected=tuple(expected),
        )

    # ------------------------------------------------------------------
    # O(1) state queries
    # ------------------------------------------------------------------

    def step(self, state: int, symbol: str) -> int:
        """One transition; unknown symbols go to the dead state."""
        column = self.columns.get(symbol)
        if column is None:
            return self.dead
        return column[state]

    def is_accepting(self, state: int) -> bool:
        return bool(self.accepting_mask >> state & 1)

    def is_live(self, state: int) -> bool:
        """Can an accepting state still be reached from ``state``?"""
        return bool(self.live_mask >> state & 1)

    def is_dead(self, state: int) -> bool:
        return state == self.dead

    def expected_symbols(self, state: int) -> frozenset[str]:
        return self.expected[state]

    # ------------------------------------------------------------------
    # whole-word queries
    # ------------------------------------------------------------------

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.start
        step = self.step
        for symbol in word:
            state = step(state, symbol)
        return bool(self.accepting_mask >> state & 1)

    def is_prefix_viable(self, word: Iterable[str]) -> bool:
        """True when ``word`` can still be extended to an accepted word."""
        state = self.start
        step = self.step
        for symbol in word:
            state = step(state, symbol)
        return bool(self.live_mask >> state & 1)

    def walk(self) -> "KernelWalker":
        """A stateful cursor for incremental typestate tracking."""
        return KernelWalker(self)

    # ------------------------------------------------------------------
    # value semantics (cache round-trips compare kernels structurally)
    # ------------------------------------------------------------------

    def __getstate__(self) -> tuple:
        return (
            self.symbols,
            self.start,
            self.table,
            self.accepting_mask,
            self.live_mask,
            self.expected,
        )

    def __setstate__(self, state: tuple) -> None:
        symbols, start, table, accepting_mask, live_mask, expected = state
        self.__init__(
            symbols=symbols,
            start=start,
            table=table,
            accepting_mask=accepting_mask,
            live_mask=live_mask,
            expected=expected,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DfaKernel):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:  # expected is the only unhashable-free part
        return hash((self.symbols, self.start, self.accepting_mask, self.live_mask))

    def __repr__(self) -> str:
        return (
            f"<DfaKernel states={self.n_states} symbols={self.n_symbols} "
            f"start={self.start}>"
        )


class KernelWalker:
    """Incremental typestate simulation over a :class:`DfaKernel`.

    The analyzer's hot object: one per tracked object, stepped once per
    event. Every query is an index or bit operation on the kernel;
    ``reset()`` rewinds to the start state in place so a typestate
    restart (parameters arriving mid-protocol) reuses the allocation,
    and :meth:`replay` batches a recorded label sequence through the
    column-major table in one call.
    """

    __slots__ = ("kernel", "_cols", "_dead", "_state")

    def __init__(self, kernel: DfaKernel):
        self.kernel = kernel
        self._cols = kernel.columns
        self._dead = kernel.dead
        self._state = kernel.start

    @property
    def state(self) -> int:
        return self._state

    @property
    def in_dead_state(self) -> bool:
        return self._state == self.kernel.dead

    @property
    def in_accepting_state(self) -> bool:
        return bool(self.kernel.accepting_mask >> self._state & 1)

    @property
    def can_still_accept(self) -> bool:
        return bool(self.kernel.live_mask >> self._state & 1)

    def expected_symbols(self) -> frozenset[str]:
        return self.kernel.expected[self._state]

    def feed(self, symbol: str) -> bool:
        """Consume one event; returns False on a typestate violation."""
        column = self._cols.get(symbol)
        dead = self._dead
        state = dead if column is None else column[self._state]
        self._state = state
        return state != dead

    def replay(self, labels: Sequence[str]) -> int:
        """Batch-feed ``labels``; the index of the first violating
        label, or -1 when the whole sequence stays out of the dead
        state.

        The hot loop does no per-event violation bookkeeping — the dead
        state's columns map it back to itself and unknown labels raise
        out of the column probe — so the common all-legal replay is one
        dict probe plus one array index per event. Only when the final
        state turns out dead does a second, checked walk pinpoint the
        offending index.
        """
        cols = self._cols
        state = self._state
        dead = self._dead
        try:
            for label in labels:
                state = cols[label][state]
        except KeyError:
            state = dead
        if state != dead:
            self._state = state
            return -1
        state = self._state
        self._state = dead
        for index, label in enumerate(labels):
            column = cols.get(label)
            state = dead if column is None else column[state]
            if state == dead:
                return index
        return -1  # pragma: no cover - final state was dead, so unreachable

    def reset(self) -> "KernelWalker":
        """Rewind to the start state in place (chainable)."""
        self._state = self.kernel.start
        return self
