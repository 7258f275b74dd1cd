"""The table kernel: layout, bitmasks, walker semantics, checked against
the reference dict DFA."""

from __future__ import annotations

import pickle

import pytest

from repro.fsm.automaton import NFA, determinize
from repro.fsm.kernel import DfaKernel, KernelWalker

from . import reference


def _simple_nfa() -> NFA:
    """(a b) | c"""
    nfa = NFA()
    start = nfa.new_state()
    nfa.start = start
    mid = nfa.new_state()
    end = nfa.new_state()
    nfa.add_transition(start, "a", mid)
    nfa.add_transition(mid, "b", end)
    nfa.add_transition(start, "c", end)
    nfa.accepting = {end}
    return nfa


def _simple_kernel() -> DfaKernel:
    return determinize(_simple_nfa())


def _simple_dfa() -> reference.DFA:
    return reference.determinize(_simple_nfa())


def _empty_word_kernel() -> DfaKernel:
    """An ORDER matching only the empty word: one accepting state, no
    transitions."""
    return DfaKernel.from_dfa(0, {0}, ({},))


class TestCompilation:
    def test_symbols_are_interned_sorted(self):
        kernel = _simple_kernel()
        assert kernel.symbols == ("a", "b", "c")
        assert kernel.symbol_ids == {"a": 0, "b": 1, "c": 2}

    def test_explicit_dead_state_is_appended(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        assert kernel.n_states == dfa.state_count + 1
        assert kernel.dead == dfa.state_count
        # Every transition out of the dead state loops back to it.
        base = kernel.dead * kernel.n_symbols
        for offset in range(kernel.n_symbols):
            assert kernel.table[base + offset] == kernel.dead

    def test_table_matches_dict_transitions(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        for state, moves in enumerate(dfa.transitions):
            for symbol in kernel.symbols:
                expected = moves.get(symbol, kernel.dead)
                assert kernel.step(state, symbol) == expected

    def test_unknown_symbol_steps_to_dead(self):
        kernel = _simple_kernel()
        assert kernel.step(kernel.start, "nope") == kernel.dead

    def test_accepting_and_live_masks(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        for state in range(dfa.state_count):
            assert kernel.is_accepting(state) == (state in dfa.accepting)
            assert kernel.is_live(state) == dfa._can_reach_accepting(state)
        assert not kernel.is_accepting(kernel.dead)
        assert not kernel.is_live(kernel.dead)

    def test_expected_symbols_per_state(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        for state, moves in enumerate(dfa.transitions):
            assert kernel.expected_symbols(state) == frozenset(moves)
        assert kernel.expected_symbols(kernel.dead) == frozenset()

    def test_empty_alphabet_kernel(self):
        kernel = _empty_word_kernel()
        assert kernel.n_symbols == 0
        assert kernel.accepts([])
        assert not kernel.accepts(["x"])
        walker = kernel.walk()
        assert walker.in_accepting_state
        assert not walker.feed("x")
        assert walker.in_dead_state


class TestWholeWordQueries:
    def test_accepts_parity(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        for word in ([], ["c"], ["a"], ["a", "b"], ["a", "b", "c"], ["b"]):
            assert kernel.accepts(word) == dfa.accepts(word)

    def test_prefix_viability_parity(self):
        dfa, kernel = _simple_dfa(), _simple_kernel()
        for word in ([], ["a"], ["b"], ["c"], ["a", "b"]):
            assert kernel.is_prefix_viable(word) == dfa.is_prefix_viable(word)


class TestKernelWalker:
    def test_feed_sequence(self):
        walker = KernelWalker(_simple_kernel())
        assert walker.feed("a")
        assert not walker.in_accepting_state
        assert walker.can_still_accept
        assert walker.feed("b")
        assert walker.in_accepting_state

    def test_violation_enters_dead_state(self):
        walker = KernelWalker(_simple_kernel())
        assert not walker.feed("b")
        assert walker.in_dead_state
        assert not walker.can_still_accept
        assert walker.expected_symbols() == frozenset()

    def test_reset_rewinds_in_place(self):
        kernel = _simple_kernel()
        walker = KernelWalker(kernel)
        walker.feed("nope")
        assert walker.in_dead_state
        assert walker.reset() is walker
        assert walker.state == kernel.start
        assert walker.feed("a") and walker.feed("b")
        assert walker.in_accepting_state

    def test_walker_is_slotted(self):
        walker = KernelWalker(_simple_kernel())
        with pytest.raises(AttributeError):
            walker.surprise = 1

    def test_replay_reports_no_violation_and_advances(self):
        walker = KernelWalker(_simple_kernel())
        assert walker.replay(["a", "b"]) == -1
        assert walker.in_accepting_state

    def test_replay_pinpoints_first_violating_index(self):
        kernel = _simple_kernel()
        assert KernelWalker(kernel).replay(["a", "c"]) == 1
        assert KernelWalker(kernel).replay(["b", "a"]) == 0
        # Unknown labels violate exactly like illegal known ones.
        assert KernelWalker(kernel).replay(["a", "nope", "b"]) == 1

    def test_replay_on_a_dead_walker_flags_the_first_label(self):
        walker = KernelWalker(_simple_kernel())
        walker.feed("nope")
        assert walker.replay(["a"]) == 0
        assert walker.replay([]) == -1  # nothing fed, nothing violated

    def test_replay_matches_stepwise_feed(self):
        kernel = _simple_kernel()
        for word in (["a", "b"], ["c"], ["a", "c"], ["b"], [], ["a", "x"]):
            stepper = KernelWalker(kernel)
            expected = -1
            for index, label in enumerate(word):
                if not stepper.feed(label):
                    expected = index
                    break
            batch = KernelWalker(kernel)
            assert batch.replay(word) == expected, word
            # Both land in the same final state either way.
            full = KernelWalker(kernel)
            for label in word:
                full.feed(label)
            assert batch.state == full.state, word

    def test_liveness_is_o1_no_graph_traversal(self, monkeypatch):
        """``can_still_accept`` must never fall back to the reference
        DFS — the whole point of the precomputed live mask."""
        kernel = _simple_kernel()

        def boom(self, state):  # pragma: no cover - must not run
            raise AssertionError("kernel liveness ran a graph traversal")

        monkeypatch.setattr(reference.DFA, "_can_reach_accepting", boom)
        walker = KernelWalker(kernel)
        assert walker.can_still_accept
        walker.feed("a")
        assert walker.can_still_accept
        walker.feed("nope")
        assert not walker.can_still_accept


class TestValueSemantics:
    def test_pickle_roundtrip_preserves_everything(self):
        kernel = _simple_kernel()
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone == kernel
        assert clone.symbol_ids == kernel.symbol_ids
        assert clone.dead == kernel.dead
        assert list(clone.table) == list(kernel.table)
        walker = clone.walk()
        assert walker.feed("a") and walker.feed("b")
        assert walker.in_accepting_state

    def test_structural_equality(self):
        assert _simple_kernel() == _simple_kernel()
        assert _simple_kernel() != _empty_word_kernel()
