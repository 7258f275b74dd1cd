"""Finite automata over event labels.

The ORDER section of a CrySL rule is a regular expression over event
labels; CogniCryptGEN "translates a rule's pattern into a finite state
machine [and] classifies any path of method calls that leads to an
acceptable state as correct" (§3.3). This module holds the NFA that
Thompson construction builds and the subset construction that turns it
into the rule's one deterministic automaton, the table kernel of
:mod:`repro.fsm.kernel` that both the generator and the typestate
analysis in :mod:`repro.sast` step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .kernel import DfaKernel


@dataclass
class NFA:
    """A nondeterministic finite automaton with epsilon moves.

    States are integers allocated by :meth:`new_state`; ``None`` as a
    symbol denotes an epsilon transition.
    """

    start: int = 0
    accepting: set[int] = field(default_factory=set)
    _transitions: dict[int, dict[str | None, set[int]]] = field(default_factory=dict)
    _state_count: int = 0
    #: memoised :attr:`alphabet`, invalidated by :meth:`add_transition`
    _alphabet: frozenset[str] | None = field(default=None, repr=False, compare=False)

    def new_state(self) -> int:
        state = self._state_count
        self._state_count += 1
        self._transitions.setdefault(state, {})
        return state

    def add_transition(self, source: int, symbol: str | None, target: int) -> None:
        self._transitions.setdefault(source, {}).setdefault(symbol, set()).add(target)
        self._alphabet = None

    def transitions_from(self, state: int) -> dict[str | None, set[int]]:
        return self._transitions.get(state, {})

    @property
    def alphabet(self) -> frozenset[str]:
        """The symbol set, computed once (construction-time mutation
        through :meth:`add_transition` invalidates the memo)."""
        alphabet = self._alphabet
        if alphabet is None:
            symbols: set[str] = set()
            for moves in self._transitions.values():
                symbols.update(s for s in moves if s is not None)
            alphabet = self._alphabet = frozenset(symbols)
        return alphabet

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """All states reachable from ``states`` via epsilon moves."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for target in self.transitions_from(state).get(None, ()):
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def accepts(self, word: Iterable[str]) -> bool:
        """Simulate the NFA on a label sequence."""
        current = self.epsilon_closure({self.start})
        for symbol in word:
            next_states: set[int] = set()
            for state in current:
                next_states.update(self.transitions_from(state).get(symbol, ()))
            if not next_states:
                return False
            current = self.epsilon_closure(next_states)
        return bool(current & self.accepting)


def determinize(nfa: NFA) -> DfaKernel:
    """Subset construction, straight into the table kernel.

    Subset states are numbered in discovery order from a LIFO worklist
    (the start set is state 0); the kernel keeps those numbers and
    appends its explicit dead state after them.

    Epsilon closures are memoised per target set for the duration of
    the construction: alternation- and loop-heavy ORDER expressions
    reach the same target sets from many subset states, and each
    closure is a DFS worth computing once.
    """
    start_set = nfa.epsilon_closure({nfa.start})
    index: dict[frozenset[int], int] = {start_set: 0}
    worklist = [start_set]
    transitions: list[dict[str, int]] = [{}]
    accepting: list[int] = [0] if start_set & nfa.accepting else []
    closures: dict[frozenset[int], frozenset[int]] = {}
    while worklist:
        current = worklist.pop()
        row = transitions[index[current]]
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
            target = index.get(closure)
            if target is None:
                target = index[closure] = len(transitions)
                transitions.append({})
                worklist.append(closure)
                if closure & nfa.accepting:
                    accepting.append(target)
            row[symbol] = target
    return DfaKernel.from_dfa(0, accepting, transitions)
