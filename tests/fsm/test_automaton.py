"""NFA machinery, subset construction into the table kernel, and the
reference dict DFA the kernel is checked against."""

from __future__ import annotations

from repro.fsm.automaton import NFA, determinize

from .reference import DfaWalker, kernel_of
from .reference import determinize as reference_determinize


def _simple_nfa():
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


class TestNfa:
    def test_accepts(self):
        nfa = _simple_nfa()
        assert nfa.accepts(["a", "b"])
        assert nfa.accepts(["c"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["b"])
        assert not nfa.accepts([])

    def test_epsilon_closure(self):
        nfa = NFA()
        s0, s1, s2 = nfa.new_state(), nfa.new_state(), nfa.new_state()
        nfa.add_transition(s0, None, s1)
        nfa.add_transition(s1, None, s2)
        assert nfa.epsilon_closure({s0}) == {s0, s1, s2}

    def test_alphabet(self):
        assert _simple_nfa().alphabet == {"a", "b", "c"}


class TestDeterminize:
    def test_language_preserved(self):
        kernel = determinize(_simple_nfa())
        assert kernel.accepts(["a", "b"])
        assert kernel.accepts(["c"])
        assert not kernel.accepts(["a", "b", "c"])
        assert not kernel.accepts(["a", "c"])

    def test_dfa_is_deterministic(self):
        kernel = determinize(_simple_nfa())
        # exactly one successor per (state, symbol), dead state included
        assert len(kernel.table) == kernel.n_states * kernel.n_symbols

    def test_kernel_matches_the_reference_construction(self):
        """Same states, same numbering, same tables as compiling the
        reference subset construction's DFA."""
        wide = NFA()
        s0 = wide.new_state()
        wide.start = s0
        one, two_a, two_b = wide.new_state(), wide.new_state(), wide.new_state()
        wide.add_transition(s0, "x", one)
        wide.add_transition(s0, "p", two_a)
        wide.add_transition(two_a, "q", two_b)
        wide.add_transition(two_b, None, s0)
        wide.accepting = {one, two_b}
        for nfa in (_simple_nfa(), wide):
            assert determinize(nfa) == kernel_of(reference_determinize(nfa))

    def test_epsilon_heavy_nfa(self):
        nfa = NFA()
        s0 = nfa.new_state()
        nfa.start = s0
        s1 = nfa.new_state()
        s2 = nfa.new_state()
        nfa.add_transition(s0, None, s1)
        nfa.add_transition(s1, "x", s2)
        nfa.add_transition(s2, None, s1)  # loop x+
        nfa.accepting = {s2}
        kernel = determinize(nfa)
        assert kernel.accepts(["x"])
        assert kernel.accepts(["x", "x", "x"])
        assert not kernel.accepts([])


class TestDfaQueries:
    def test_prefix_viability(self):
        nfa = _simple_nfa()
        for machine in (determinize(nfa), reference_determinize(nfa)):
            assert machine.is_prefix_viable(["a"])
            assert machine.is_prefix_viable([])
            assert not machine.is_prefix_viable(["b"])

    def test_shortest_accepting_words(self):
        dfa = reference_determinize(_simple_nfa())
        words = dfa.shortest_accepting_words()
        assert ("c",) in words
        assert ("a", "b") in words
        assert words.index(("c",)) < words.index(("a", "b"))  # BFS order


class TestWalker:
    def test_feed_sequence(self):
        walker = DfaWalker(reference_determinize(_simple_nfa()))
        assert walker.feed("a")
        assert not walker.in_accepting_state
        assert walker.can_still_accept
        assert walker.feed("b")
        assert walker.in_accepting_state

    def test_violation_enters_dead_state(self):
        walker = DfaWalker(reference_determinize(_simple_nfa()))
        assert not walker.feed("b")
        assert walker.in_dead_state
        assert not walker.can_still_accept
        assert walker.expected_symbols() == frozenset()

    def test_expected_symbols(self):
        walker = DfaWalker(reference_determinize(_simple_nfa()))
        assert walker.expected_symbols() == {"a", "c"}

    def test_history(self):
        walker = DfaWalker(reference_determinize(_simple_nfa()))
        walker.feed("a")
        walker.feed("b")
        assert walker.history == ["a", "b"]


class TestAlphabetCaching:
    def test_nfa_alphabet_memo_invalidated_by_mutation(self):
        nfa = _simple_nfa()
        first = nfa.alphabet
        assert nfa.alphabet is first  # memoised, no rescan
        extra = nfa.new_state()
        nfa.add_transition(nfa.start, "d", extra)
        assert nfa.alphabet == {"a", "b", "c", "d"}

    def test_nfa_epsilon_moves_stay_out_of_the_alphabet(self):
        nfa = _simple_nfa()
        nfa.add_transition(nfa.start, None, nfa.start)
        assert None not in nfa.alphabet

    def test_dfa_alphabet_memo(self):
        dfa = reference_determinize(_simple_nfa())
        first = dfa.alphabet
        assert first == {"a", "b", "c"}
        assert dfa.alphabet is first  # frozen dataclass: memo never stales


class TestDeterminizeClosureMemo:
    def test_repeated_target_sets_compute_one_closure(self, monkeypatch):
        """Subset construction reaching the same target set from many
        states must run the closure DFS once per distinct set."""
        # b-transitions from two different states into one epsilon-heavy
        # tail: both subset states move on "b" to the same target set.
        nfa = NFA()
        s0 = nfa.new_state()
        nfa.start = s0
        left, right, tail, end = (nfa.new_state() for _ in range(4))
        nfa.add_transition(s0, "a", left)
        nfa.add_transition(s0, "c", right)
        nfa.add_transition(left, "b", tail)
        nfa.add_transition(right, "b", tail)
        nfa.add_transition(tail, None, end)
        nfa.accepting = {end}

        seen: list[frozenset[int]] = []
        original = NFA.epsilon_closure

        def spy(self, states):
            key = frozenset(states)
            if key == frozenset({tail}):
                seen.append(key)
            return original(self, states)

        monkeypatch.setattr(NFA, "epsilon_closure", spy)
        kernel = determinize(nfa)
        assert kernel.accepts(["a", "b"]) and kernel.accepts(["c", "b"])
        assert len(seen) == 1  # memo: one DFS for the shared target set


class TestShortestWordsBfs:
    def test_breadth_first_order_over_a_wide_automaton(self):
        """Short words always precede longer ones — the deque rewrite
        must keep strict BFS order."""
        nfa = NFA()
        s0 = nfa.new_state()
        nfa.start = s0
        one = nfa.new_state()
        two_a, two_b = nfa.new_state(), nfa.new_state()
        nfa.add_transition(s0, "x", one)
        nfa.add_transition(s0, "p", two_a)
        nfa.add_transition(two_a, "q", two_b)
        nfa.accepting = {one, two_b}
        dfa = reference_determinize(nfa)
        words = dfa.shortest_accepting_words()
        assert words == [("x",), ("p", "q")]

    def test_limit_is_respected(self):
        dfa = reference_determinize(_simple_nfa())
        assert len(dfa.shortest_accepting_words(limit=1)) == 1
