"""Accepting-path enumeration with the paper's expansion policy.

Section 3.3: "CogniCryptGEN has to deal with methods that [...] may be
called multiple times. CogniCryptGEN translates such methods into two
different paths: one where the method is not called and one where it
is. CogniCryptGEN does not currently support repeated calls."

Concretely: ``x?`` and ``x*`` each contribute the empty path and one
occurrence of ``x``; ``x+`` contributes exactly one occurrence. Every
enumerated path is validated against the rule's automaton
(repetition-free expansions of a pattern are always in its language,
so this is an internal consistency check, not a filter).
"""

from __future__ import annotations

from ..crysl import ast
from .build import rule_dfa
from .kernel import DfaKernel

#: Default safety valve against pathological ORDER expressions:
#: alternation inside nested optionals multiplies path counts.
#: Override per call via ``enumerate_paths(..., max_paths=N)`` — the
#: generator threads ``GenerationContext(max_paths=...)`` through here.
MAX_PATHS = 4096


class PathExplosionError(Exception):
    """An ORDER expression expands past the ``max_paths`` bound."""


def _expand(
    node: ast.OrderExpr, rule: ast.Rule, limit: int
) -> list[tuple[str, ...]]:
    paths: list[tuple[str, ...]]
    if isinstance(node, ast.LabelRef):
        paths = [(label,) for label in rule.expand_label(node.label)]
    elif isinstance(node, ast.Seq):
        paths = [()]
        for part in node.parts:
            part_paths = _expand(part, rule, limit)
            paths = [p + q for p in paths for q in part_paths]
            # Checked per part, before the next product multiplies it.
            _check_bound(paths, rule, limit)
    elif isinstance(node, ast.Alt):
        paths = []
        for option in node.options:
            paths.extend(_expand(option, rule, limit))
    elif isinstance(node, (ast.Opt, ast.Star)):
        paths = [()] + _expand(node.inner, rule, limit)
    elif isinstance(node, ast.Plus):
        paths = _expand(node.inner, rule, limit)
    else:
        raise TypeError(f"unknown ORDER node: {type(node).__name__}")
    _check_bound(paths, rule, limit)
    return paths


def _check_bound(paths: list[tuple[str, ...]], rule: ast.Rule, limit: int) -> None:
    if len(paths) > limit:
        raise PathExplosionError(
            f"{rule.class_name}: ORDER expands past {limit} paths"
        )


def enumerate_paths(
    rule: ast.Rule,
    max_paths: int | None = None,
    kernel: DfaKernel | None = None,
) -> list[tuple[ast.Event, ...]]:
    """All repetition-free accepting call paths of ``rule``, as events.

    Paths are deduplicated preserving first-seen order, which mirrors
    the deterministic traversal the generator relies on. Deduplication
    happens *before* the acceptance consistency check, so
    alternation-heavy ORDER expressions (which expand to many duplicate
    label sequences) pay one ``accepts`` per unique path, not per
    expansion.

    Pass the rule's prebuilt ``kernel`` (e.g. from
    :class:`~repro.crysl.compiled.CompiledRule`) to avoid re-deriving
    it here. ``max_paths`` overrides the module default
    :data:`MAX_PATHS`; it bounds every intermediate expansion, so no
    sequence, alternation or optional can grow past it.
    """
    if rule.order is None:
        # No ORDER: any single event is a valid (degenerate) path.
        return [(event,) for event in rule.events]
    limit = MAX_PATHS if max_paths is None else max_paths
    # dict.fromkeys: first-seen order, duplicates dropped before any
    # per-path validation work below.
    label_paths = list(dict.fromkeys(_expand(rule.order, rule, limit)))
    if kernel is None:
        kernel = rule_dfa(rule)
    result: list[tuple[ast.Event, ...]] = []
    for labels in label_paths:
        if not kernel.accepts(labels):
            raise AssertionError(
                f"{rule.class_name}: enumerated path {labels} not accepted "
                "by the rule's own DFA — expansion and construction disagree"
            )
        events = []
        for label in labels:
            event = rule.event_labelled(label)
            if event is None:
                raise AssertionError(
                    f"{rule.class_name}: path references unknown event {label!r}"
                )
            events.append(event)
        result.append(tuple(events))
    return result


def path_parameter_count(path: tuple[ast.Event, ...]) -> int:
    """Total number of parameter positions across a path's events.

    The selector breaks length ties with this count: the paper picks
    "the method path with the fewest method calls as well as the
    smallest number of parameters".
    """
    return sum(event.arity for event in path)
