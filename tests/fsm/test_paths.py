"""Path enumeration: the paper's expansion policy, checked per construct
and as a property over random ORDER expressions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crysl import ast, parse_rule
from repro.fsm import paths as fsm_paths
from repro.fsm.build import build_nfa, rule_dfa
from repro.fsm.kernel import KernelWalker
from repro.fsm.paths import (
    MAX_PATHS,
    PathExplosionError,
    enumerate_paths,
    path_parameter_count,
)

from .reference import DfaWalker, kernel_of, reference_dfa


def _rule(order, events="a: m();\n b: n();\n c: o();"):
    return parse_rule(f"SPEC x.Y\nEVENTS\n {events}\nORDER\n {order}")


def labels(paths):
    return [tuple(e.label for e in p) for p in paths]


class TestExpansionPolicy:
    def test_sequence(self):
        assert labels(enumerate_paths(_rule("a, b"))) == [("a", "b")]

    def test_alternative(self):
        assert labels(enumerate_paths(_rule("a | b"))) == [("a",), ("b",)]

    def test_optional_two_variants(self):
        """x? -> one path without, one with (paper §3.3)."""
        assert labels(enumerate_paths(_rule("a, b?"))) == [("a",), ("a", "b")]

    def test_star_no_repetition(self):
        """x* expands like x? — repetition unsupported by design."""
        assert labels(enumerate_paths(_rule("a*"))) == [(), ("a",)]

    def test_plus_exactly_once(self):
        assert labels(enumerate_paths(_rule("a+"))) == [("a",)]

    def test_aggregate_expansion(self):
        rule = parse_rule(
            "SPEC x.Y\nEVENTS\n a: m();\n b: n();\n Both := a | b;\nORDER\n Both"
        )
        assert labels(enumerate_paths(rule)) == [("a",), ("b",)]

    def test_nested(self):
        paths = labels(enumerate_paths(_rule("a, (b | c)?")))
        assert paths == [("a",), ("a", "b"), ("a", "c")]

    def test_deduplication(self):
        paths = labels(enumerate_paths(_rule("(a | a), b")))
        assert paths == [("a", "b")]

    def test_missing_order_degenerates(self):
        rule = parse_rule("SPEC x.Y\nEVENTS\n a: m();\n b: n();")
        assert labels(enumerate_paths(rule)) == [("a",), ("b",)]


class TestConsistencyWithDfa:
    def test_all_enumerated_paths_accepted(self, ruleset):
        """Every enumerated path of every bundled rule is in the DFA's
        language — expansion and Thompson construction agree."""
        for rule in ruleset:
            dfa = rule_dfa(rule)
            for path in enumerate_paths(rule):
                assert dfa.accepts([e.label for e in path]), rule.class_name

    def test_cipher_kernel_and_path_count(self, ruleset):
        cipher = ruleset.get("Cipher")
        assert rule_dfa(cipher).accepts(["g1", "i1", "f1"])
        assert len(enumerate_paths(cipher)) == 16


# A recursive strategy over ORDER expressions with 3 event labels.
_orders = st.recursive(
    st.sampled_from(["a", "b", "c"]),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]}, {t[1]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]} | {t[1]})"),
        children.map(lambda inner: f"({inner})?"),
        children.map(lambda inner: f"({inner})*"),
        children.map(lambda inner: f"({inner})+"),
    ),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(order=_orders, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_orders_roundtrip_through_dfa(order, seed):
    """Property: for arbitrary ORDER expressions, every enumerated path
    is accepted by the expression's own automaton, the kernel equals
    the one compiled from the reference DFA, and on seeded random words
    (plus an out-of-alphabet label) the kernel agrees with the
    reference DFA and with direct NFA simulation."""
    rule = _rule(order)
    kernel = rule_dfa(rule)
    reference = reference_dfa(rule)
    nfa = build_nfa(rule.order, rule)
    assert kernel == kernel_of(reference), order
    for path in enumerate_paths(rule):
        assert kernel.accepts([event.label for event in path])
    rng = random.Random(seed)
    pool = sorted(reference.alphabet) + ["__not_an_event__"]
    for _ in range(20):
        word = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        context = (order, word)
        assert (
            kernel.accepts(word) == reference.accepts(word) == nfa.accepts(word)
        ), context
        assert kernel.is_prefix_viable(word) == reference.is_prefix_viable(
            word
        ), context
        walker, oracle = KernelWalker(kernel), DfaWalker(reference)
        assert walker.expected_symbols() == oracle.expected_symbols(), context
        for symbol in word:
            assert walker.feed(symbol) == oracle.feed(symbol), context
            assert walker.expected_symbols() == oracle.expected_symbols(), context


def test_path_explosion_guard():
    # 13 alternations of 2 in sequence = 2^13 > MAX_PATHS.
    order = ", ".join(["(a | b)"] * 13)
    with pytest.raises(PathExplosionError):
        enumerate_paths(_rule(order))
    assert MAX_PATHS == 4096


def test_path_explosion_error_names_the_rule():
    order = ", ".join(["(a | b)"] * 13)
    with pytest.raises(PathExplosionError) as excinfo:
        enumerate_paths(_rule(order))
    assert "x.Y" in str(excinfo.value)
    assert str(MAX_PATHS) in str(excinfo.value)


def test_enumerate_paths_accepts_prebuilt_kernel(monkeypatch):
    rule = _rule("a, (b | c)")
    kernel = rule_dfa(rule)
    expected = labels(enumerate_paths(rule))

    def no_rebuild(rule):  # pragma: no cover - must not run
        raise AssertionError("a prebuilt kernel was rebuilt")

    monkeypatch.setattr(fsm_paths, "rule_dfa", no_rebuild)
    assert labels(enumerate_paths(rule, kernel=kernel)) == expected


def test_max_paths_override_tightens_the_bound():
    """A per-call bound below the expansion count trips the guard even
    though the module default would allow it (GenerationContext threads
    this through CompiledRule)."""
    rule = _rule("(a | b), (a | c)")  # 4 paths
    assert len(enumerate_paths(rule)) == 4
    assert len(enumerate_paths(rule, max_paths=4)) == 4
    with pytest.raises(PathExplosionError) as excinfo:
        enumerate_paths(rule, max_paths=3)
    assert "3" in str(excinfo.value)
    # Alternations and optionals are bounded too, not only sequences.
    for order in ("a | b | c", "(a | b)?", "(a | b)*"):
        assert len(enumerate_paths(_rule(order))) == 3
        with pytest.raises(PathExplosionError):
            enumerate_paths(_rule(order), max_paths=2)


def test_diagnostics_record_path_counts_under_the_cap():
    """Rules under MAX_PATHS have their enumerated path counts recorded
    in the run diagnostics (one entry per rule, last count wins)."""
    from repro.codegen import CrySLBasedCodeGenerator
    from repro.usecases import USE_CASES

    generator = CrySLBasedCodeGenerator()
    module = generator.generate_from_file(USE_CASES[0].template_path())
    counts = module.diagnostics.path_counts
    assert counts  # every considered rule appears
    for rule_name, count in counts.items():
        assert 1 <= count <= MAX_PATHS, rule_name


def test_parameter_count():
    rule = parse_rule(
        "SPEC x.Y\nOBJECTS\n int p;\n int q;\nEVENTS\n a: m(p, q);\n b: n(p);\n"
        "ORDER\n a, b"
    )
    (path,) = enumerate_paths(rule)
    assert path_parameter_count(path) == 3
