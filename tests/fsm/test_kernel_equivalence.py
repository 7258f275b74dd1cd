"""Equivalence property suite: table kernel vs. the reference dict DFA.

For every bundled rule, the compiled :class:`~repro.fsm.kernel.DfaKernel`
must equal, table for table, the kernel compiled from the reference
subset construction in :mod:`tests.fsm.reference`, and the two machines
must agree on acceptance, prefix viability and expected symbols — over
the rule's own enumerated accepting paths, over seeded random event
sequences (legal symbols plus out-of-alphabet noise), through the dead
state, and after an in-place walker reset. The dict DFA is the
reference implementation; any divergence here is a construction bug.
"""

from __future__ import annotations

import random

import pytest

from repro.crysl import bundled_ruleset
from repro.fsm import KernelWalker

from .reference import DfaWalker, kernel_of, reference_dfa

#: Deterministic seeds — one fuzz campaign per rule per seed.
SEEDS = (0xC0DE, 2026)
#: Random sequences per (rule, seed).
SEQUENCES = 60
#: Maximum random sequence length.
MAX_LEN = 14


@pytest.fixture(scope="module")
def ruleset():
    return bundled_ruleset()


def _rules(ruleset):
    return [(rule, ruleset.compiled(rule)) for rule in ruleset]


@pytest.mark.parametrize("name", [rule.simple_name for rule in bundled_ruleset()])
def test_compiled_kernel_equals_the_reference_kernel(ruleset, name):
    """Subset construction straight into the kernel numbers states and
    fills tables exactly as compiling the reference DFA does."""
    rule = ruleset.get(name)
    assert ruleset.compiled(rule).kernel == kernel_of(reference_dfa(rule))


def _assert_walkers_agree(reference: DfaWalker, kernel: KernelWalker, context):
    assert reference.in_dead_state == kernel.in_dead_state, context
    assert reference.in_accepting_state == kernel.in_accepting_state, context
    assert reference.can_still_accept == kernel.can_still_accept, context
    assert reference.expected_symbols() == kernel.expected_symbols(), context


def _random_sequence(rng: random.Random, symbols: list[str]) -> list[str]:
    # Legal symbols plus out-of-alphabet noise, so sequences regularly
    # wander into (and must stay in) the dead state.
    pool = symbols + ["__not_an_event__"]
    return [rng.choice(pool) for _ in range(rng.randint(0, MAX_LEN))]


def test_enumerated_paths_agree(ruleset):
    """Every enumerated accepting path is accepted by both machines,
    and every strict prefix of one is viable in both."""
    for rule, compiled in _rules(ruleset):
        dfa, kernel = reference_dfa(rule), compiled.kernel
        for path in compiled.paths:
            labels = tuple(event.label for event in path)
            assert dfa.accepts(labels) and kernel.accepts(labels), (
                rule.class_name,
                labels,
            )
            for cut in range(len(labels)):
                prefix = labels[:cut]
                assert dfa.is_prefix_viable(prefix) == kernel.is_prefix_viable(
                    prefix
                ) is True, (rule.class_name, prefix)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_sequences_agree(ruleset, seed):
    for rule, compiled in _rules(ruleset):
        dfa, kernel = reference_dfa(rule), compiled.kernel
        symbols = sorted(dfa.alphabet)
        rng = random.Random(seed ^ hash(rule.class_name) & 0xFFFFFFFF)
        for trial in range(SEQUENCES):
            word = _random_sequence(rng, symbols)
            context = (rule.class_name, seed, trial, word)
            assert dfa.accepts(word) == kernel.accepts(word), context
            assert dfa.is_prefix_viable(word) == kernel.is_prefix_viable(
                word
            ), context
            reference, walker = DfaWalker(dfa), KernelWalker(kernel)
            _assert_walkers_agree(reference, walker, context)
            for symbol in word:
                assert reference.feed(symbol) == walker.feed(symbol), context
                _assert_walkers_agree(reference, walker, context)
            # Batch replay of the same word lands in the same place and
            # pinpoints the same first violation the stepwise feed hit.
            batch = KernelWalker(kernel)
            first_violation = -1
            probe = DfaWalker(dfa)
            for index, symbol in enumerate(word):
                if not probe.feed(symbol):
                    first_violation = index
                    break
            assert batch.replay(word) == first_violation, context
            assert batch.state == walker.state, context


@pytest.mark.parametrize("seed", SEEDS)
def test_dead_state_is_absorbing_in_both(ruleset, seed):
    """Once dead, always dead — no event (legal or not) revives either
    machine, and both report empty expectations throughout."""
    for rule, compiled in _rules(ruleset):
        dfa, kernel = reference_dfa(rule), compiled.kernel
        symbols = sorted(dfa.alphabet)
        rng = random.Random(seed)
        reference, walker = DfaWalker(dfa), KernelWalker(kernel)
        reference.feed("__not_an_event__")
        walker.feed("__not_an_event__")
        for _ in range(20):
            symbol = rng.choice(symbols + ["__other_noise__"]) if symbols else "x"
            assert reference.feed(symbol) is False
            assert walker.feed(symbol) is False
            assert walker.in_dead_state and not walker.can_still_accept
            _assert_walkers_agree(reference, walker, (rule.class_name, symbol))


@pytest.mark.parametrize("seed", SEEDS)
def test_post_reset_matches_fresh_reference(ruleset, seed):
    """The analyzer restarts mid-protocol parameters by resetting the
    kernel walker in place; that must equal a brand-new reference
    walker, even from deep inside (or past the end of) a protocol."""
    for rule, compiled in _rules(ruleset):
        dfa, kernel = reference_dfa(rule), compiled.kernel
        symbols = sorted(dfa.alphabet)
        rng = random.Random(seed + 1)
        for trial in range(20):
            walker = KernelWalker(kernel)
            for symbol in _random_sequence(rng, symbols):
                walker.feed(symbol)
            walker.reset()
            reference = DfaWalker(dfa)  # fresh, as the old code allocated
            context = (rule.class_name, seed, trial)
            _assert_walkers_agree(reference, walker, context)
            for symbol in _random_sequence(rng, symbols):
                assert reference.feed(symbol) == walker.feed(symbol), context
                _assert_walkers_agree(reference, walker, context)


def test_compiled_rule_kernel_is_shared_and_persistent_form_agrees(ruleset):
    """One kernel instance per rule process-wide, and the persistable
    artefact form carries exactly that kernel."""
    for rule, compiled in _rules(ruleset):
        assert compiled.kernel is compiled.kernel
        artefacts = compiled.export_artefacts()
        assert artefacts is not None
        assert artefacts.kernel is compiled.kernel
