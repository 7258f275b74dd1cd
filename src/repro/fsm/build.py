"""Thompson construction: ORDER expressions → NFA → table kernel.

Aggregate labels (``Inits := i1 | i2``) are expanded to alternations of
their concrete event labels during construction, so automata alphabets
contain only concrete events.
"""

from __future__ import annotations

from ..crysl import ast
from .automaton import NFA, determinize
from .kernel import DfaKernel


def build_nfa(order: ast.OrderExpr | None, rule: ast.Rule) -> NFA:
    """Build an NFA for a rule's ORDER expression.

    A missing ORDER section means "any sequence of the rule's events",
    which we model as ``(e1 | ... | eN)*``.
    """
    nfa = NFA()
    start = nfa.new_state()
    nfa.start = start
    if order is None:
        end = nfa.new_state()
        nfa.add_transition(start, None, end)
        for event in rule.events:
            nfa.add_transition(end, event.label, end)
        nfa.accepting = {end}
        return nfa
    end = _build(nfa, order, rule, start)
    nfa.accepting = {end}
    return nfa


def _build(nfa: NFA, node: ast.OrderExpr, rule: ast.Rule, entry: int) -> int:
    """Wire ``node`` into ``nfa`` starting at ``entry``; returns the exit."""
    if isinstance(node, ast.LabelRef):
        exit_state = nfa.new_state()
        for concrete in rule.expand_label(node.label):
            nfa.add_transition(entry, concrete, exit_state)
        return exit_state
    if isinstance(node, ast.Seq):
        current = entry
        for part in node.parts:
            current = _build(nfa, part, rule, current)
        return current
    if isinstance(node, ast.Alt):
        exit_state = nfa.new_state()
        for option in node.options:
            branch_entry = nfa.new_state()
            nfa.add_transition(entry, None, branch_entry)
            branch_exit = _build(nfa, option, rule, branch_entry)
            nfa.add_transition(branch_exit, None, exit_state)
        return exit_state
    if isinstance(node, ast.Opt):
        inner_exit = _build(nfa, node.inner, rule, entry)
        exit_state = nfa.new_state()
        nfa.add_transition(entry, None, exit_state)
        nfa.add_transition(inner_exit, None, exit_state)
        return exit_state
    if isinstance(node, ast.Star):
        loop_entry = nfa.new_state()
        nfa.add_transition(entry, None, loop_entry)
        inner_exit = _build(nfa, node.inner, rule, loop_entry)
        nfa.add_transition(inner_exit, None, loop_entry)
        exit_state = nfa.new_state()
        nfa.add_transition(loop_entry, None, exit_state)
        return exit_state
    if isinstance(node, ast.Plus):
        inner_exit = _build(nfa, node.inner, rule, entry)
        # Loop back for repetition, then exit.
        loop_entry = nfa.new_state()
        nfa.add_transition(inner_exit, None, loop_entry)
        second_exit = _build(nfa, node.inner, rule, loop_entry)
        nfa.add_transition(second_exit, None, loop_entry)
        exit_state = nfa.new_state()
        nfa.add_transition(inner_exit, None, exit_state)
        nfa.add_transition(second_exit, None, exit_state)
        return exit_state
    raise TypeError(f"unknown ORDER node: {type(node).__name__}")


def rule_dfa(rule: ast.Rule) -> DfaKernel:
    """The ORDER automaton of ``rule``, as its table kernel.

    Prefer :attr:`repro.crysl.compiled.CompiledRule.kernel` when a rule
    set is in play — it shares one kernel per rule process-wide and can
    come warm off the disk cache.
    """
    return determinize(build_nfa(rule.order, rule))
