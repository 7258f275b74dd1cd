"""Rule instances: one considered rule inside a fluent chain.

A template may consider the same CrySL rule more than once (hybrid
encryption considers ``Cipher`` twice: once to wrap the session key,
once to encrypt the payload), so the unit the generator works on is a
*rule instance* — a rule plus its position in the chain and its
template-supplied bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crysl import ast


@dataclass(frozen=True)
class TemplateBinding:
    """One ``add_parameter(expr, "rule_var")`` call.

    ``expr`` is the template-side expression rendered as source text
    (``"salt"``, ``"pwd"``, ``"1"``); ``value`` carries the concrete
    constant when the expression is a literal, else ``None``;
    ``type_name`` is the declared/inferred type when known.
    """

    rule_var: str
    expr: str
    value: object | None = None
    is_literal: bool = False
    type_name: str | None = None


@dataclass
class RuleInstance:
    """One considered rule within a generation request."""

    rule: ast.Rule
    index: int
    bindings: dict[str, TemplateBinding] = field(default_factory=dict)
    #: Template variable that receives this instance's return object
    #: (``add_return_object``); None when the instance is internal.
    return_target: str | None = None
    #: Explicit output bindings: rule object name → template variable
    #: (``add_return_object(var, "rule_var")``). A reproduction-side
    #: extension documented in DESIGN.md: it lets templates capture
    #: secondary outputs such as a Cipher's IV next to the ciphertext.
    output_bindings: dict[str, str] = field(default_factory=dict)

    @property
    def alias(self) -> str:
        """A readable unique name: ``cipher``, ``cipher_2`` …"""
        base = _snake_case(self.rule.simple_name)
        return base if self.index_within_rule == 0 else f"{base}_{self.index_within_rule + 1}"

    #: How many instances of the same rule precede this one; set by the
    #: request builder (default 0).
    index_within_rule: int = 0

    def creation_events(self) -> tuple[ast.Event, ...]:
        """Events that create/produce the receiver: constructors and
        ``this = factory(...)`` events."""
        return tuple(
            event
            for event in self.rule.events
            if event.is_constructor or event.result == "this"
        )

    def __repr__(self) -> str:
        return f"<RuleInstance #{self.index} {self.rule.simple_name}>"


def _snake_case(name: str) -> str:
    out: list[str] = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0 and (
            not name[i - 1].isupper()
            or (i + 1 < len(name) and name[i + 1].islower())
        ):
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def granted_predicates(
    rule: ast.Rule, path_labels: tuple[str, ...]
) -> tuple[ast.PredicateUse, ...]:
    """ENSURES entries a given call path grants.

    An entry anchored ``after lbl`` is granted iff the path contains one
    of the anchor's concrete events; an unanchored entry is granted by
    any accepting path.
    """
    granted = []
    for ensured in rule.ensures:
        if ensured.after is None:
            granted.append(ensured)
            continue
        anchors = rule.expand_label(ensured.after)
        if any(label in anchors for label in path_labels):
            granted.append(ensured)
    return tuple(granted)


def invalidating_events(
    rule: ast.Rule, path_labels: tuple[str, ...]
) -> tuple[str, ...]:
    """Events on the path that invalidate a NEGATES-matched predicate.

    Per §3.3, the generator collects calls to such methods (e.g.
    ``clear_password``) and emits them at the *end* of the generated
    method: an event is invalidating when a NEGATES entry matches an
    ENSURES entry's predicate and the event follows that entry's anchor
    on the path without being an anchor itself.
    """
    negated_names = {negated.name for negated in rule.negates}
    if not negated_names:
        return ()
    anchor_labels: set[str] = set()
    for ensured in rule.ensures:
        if ensured.name in negated_names and ensured.after is not None:
            anchor_labels.update(rule.expand_label(ensured.after))
    if not anchor_labels:
        return ()
    out: list[str] = []
    anchor_seen = False
    for label in path_labels:
        if label in anchor_labels:
            anchor_seen = True
        elif anchor_seen:
            out.append(label)
    return tuple(out)
