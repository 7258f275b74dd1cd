"""The reference automaton: a readable dict-based DFA, kept as a test oracle.

The program builds each rule's ORDER automaton straight into its table
kernel (:func:`repro.fsm.automaton.determinize`). This module keeps the
plain form the kernel replaced — a tuple of per-state ``{symbol:
successor}`` dicts with ``None`` as the implicit dead state, its
incremental :class:`DfaWalker`, and the subset construction that
produced it — so the equivalence suite, the automaton tests and the
kernel microbenchmarks can check the kernel against an independent
implementation. :func:`kernel_of` compiles a reference DFA through
:meth:`DfaKernel.from_dfa`; for every rule it must equal the kernel the
program builds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.crysl import ast
from repro.fsm.automaton import NFA
from repro.fsm.build import build_nfa
from repro.fsm.kernel import DfaKernel


@dataclass(frozen=True)
class DFA:
    """A deterministic automaton produced by subset construction.

    ``transitions[state][symbol]`` is the unique successor; missing
    entries are the implicit dead state (rejection).
    """

    start: int
    accepting: frozenset[int]
    transitions: tuple[dict[str, int], ...]  # indexed by state

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @property
    def alphabet(self) -> frozenset[str]:
        """The symbol set, computed once (the dataclass is frozen, so
        the memo can never go stale; ``object.__setattr__`` sidesteps
        the frozen guard)."""
        alphabet = self.__dict__.get("_alphabet")
        if alphabet is None:
            symbols: set[str] = set()
            for moves in self.transitions:
                symbols.update(moves)
            alphabet = frozenset(symbols)
            object.__setattr__(self, "_alphabet", alphabet)
        return alphabet

    def step(self, state: int | None, symbol: str) -> int | None:
        """One transition; ``None`` is the dead state."""
        if state is None:
            return None
        return self.transitions[state].get(symbol)

    def accepts(self, word: Iterable[str]) -> bool:
        state: int | None = self.start
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return False
        return state in self.accepting

    def is_prefix_viable(self, word: Iterable[str]) -> bool:
        """True when ``word`` can still be extended to an accepted word."""
        state: int | None = self.start
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return False
        return self._can_reach_accepting(state)

    def _can_reach_accepting(self, state: int) -> bool:
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            if current in self.accepting:
                return True
            for target in self.transitions[current].values():
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return False

    def shortest_accepting_words(self, limit: int = 10) -> list[tuple[str, ...]]:
        """Breadth-first enumeration of up to ``limit`` accepted words."""
        results: list[tuple[str, ...]] = []
        queue: deque[tuple[int, tuple[str, ...]]] = deque([(self.start, ())])
        seen_words: set[tuple[str, ...]] = set()
        while queue and len(results) < limit:
            state, word = queue.popleft()
            if state in self.accepting and word not in seen_words:
                results.append(word)
                seen_words.add(word)
            if len(word) >= self.state_count:
                continue  # avoid unrolling loops forever
            for symbol in sorted(self.transitions[state]):
                queue.append((self.transitions[state][symbol], word + (symbol,)))
        return results


class DfaWalker:
    """Incremental DFA simulation with error reporting."""

    def __init__(self, dfa: DFA):
        self._dfa = dfa
        self._state: int | None = dfa.start
        self.history: list[str] = []

    @property
    def in_dead_state(self) -> bool:
        return self._state is None

    @property
    def in_accepting_state(self) -> bool:
        return self._state is not None and self._state in self._dfa.accepting

    @property
    def can_still_accept(self) -> bool:
        if self._state is None:
            return False
        return self._dfa._can_reach_accepting(self._state)

    def expected_symbols(self) -> frozenset[str]:
        if self._state is None:
            return frozenset()
        return frozenset(self._dfa.transitions[self._state])

    def feed(self, symbol: str) -> bool:
        """Consume one event; returns False on a typestate violation."""
        self._state = self._dfa.step(self._state, symbol)
        self.history.append(symbol)
        return self._state is not None


def determinize(nfa: NFA) -> DFA:
    """Subset construction into the dict DFA.

    States are numbered in discovery order from a LIFO worklist, the
    numbering the program's kernel must reproduce.
    """
    start_set = nfa.epsilon_closure({nfa.start})
    index: dict[frozenset[int], int] = {start_set: 0}
    worklist = [start_set]
    transitions: list[dict[str, int]] = [{}]
    accepting: set[int] = set()
    if start_set & nfa.accepting:
        accepting.add(0)
    closures: dict[frozenset[int], frozenset[int]] = {}
    while worklist:
        current = worklist.pop()
        moves: dict[str, set[int]] = {}
        for state in current:
            for symbol, targets in nfa.transitions_from(state).items():
                if symbol is None:
                    continue
                moves.setdefault(symbol, set()).update(targets)
        for symbol, targets in moves.items():
            target_key = frozenset(targets)
            closure = closures.get(target_key)
            if closure is None:
                closure = closures[target_key] = nfa.epsilon_closure(target_key)
            if closure not in index:
                index[closure] = len(transitions)
                transitions.append({})
                worklist.append(closure)
                if closure & nfa.accepting:
                    accepting.add(index[closure])
            transitions[index[current]][symbol] = index[closure]
    return DFA(0, frozenset(accepting), tuple(transitions))


def reference_dfa(rule: ast.Rule) -> DFA:
    """The reference DFA of ``rule``'s ORDER section."""
    return determinize(build_nfa(rule.order, rule))


def kernel_of(dfa: DFA) -> DfaKernel:
    """The table kernel compiled from a reference DFA's tables."""
    return DfaKernel.from_dfa(dfa.start, dfa.accepting, dfa.transitions)
