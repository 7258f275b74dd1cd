"""The CrySL abstract syntax tree.

A rule file maps onto one :class:`Rule`, with one node class per
construct of the language as described in section 2.2 of the paper:

* ``OBJECTS`` — :class:`ObjectDecl`
* ``EVENTS`` — :class:`Event` (method patterns) and :class:`Aggregate`
  (label disjunctions)
* ``ORDER`` — a regular expression over event labels
  (:class:`Seq`/:class:`Alt`/:class:`Star`/:class:`Plus`/:class:`Opt`/
  :class:`LabelRef`)
* ``FORBIDDEN`` — :class:`ForbiddenMethod`
* ``CONSTRAINTS`` — an expression tree (:class:`Comparison`,
  :class:`InSet`, :class:`Implication`, …)
* ``REQUIRES``/``ENSURES``/``NEGATES`` — :class:`PredicateUse` with
  optional ``after`` anchors on ENSURES.

All nodes are frozen, slotted dataclasses; the generator treats rules
as values, and slots keep the per-node footprint small (rules hold
thousands of nodes and the batch engine pickles them into workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .sourceloc import UNKNOWN, Location

# ---------------------------------------------------------------------------
# OBJECTS
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ObjectDecl:
    """``<type> <name>;`` inside OBJECTS."""

    type_name: str
    name: str
    location: Location = UNKNOWN


# ---------------------------------------------------------------------------
# EVENTS
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Param:
    """One parameter position in an event pattern.

    ``name`` is an object name, ``"this"``, or ``"_"`` (ignore).
    """

    name: str
    location: Location = UNKNOWN

    @property
    def is_wildcard(self) -> bool:
        return self.name == "_"

    @property
    def is_this(self) -> bool:
        return self.name == "this"


@dataclass(frozen=True, slots=True)
class Event:
    """``label: [result =] method_name(param, ...);``

    A constructor event uses the class's simple name as ``method_name``
    (mirroring Java constructors); the provider maps it onto
    ``__init__``.
    """

    label: str
    method_name: str
    params: tuple[Param, ...]
    result: str | None = None
    location: Location = UNKNOWN

    @property
    def is_constructor(self) -> bool:
        return self.method_name[:1].isupper()

    @property
    def arity(self) -> int:
        return len(self.params)

    def __str__(self) -> str:
        args = ", ".join(p.name for p in self.params)
        head = f"{self.result} = " if self.result else ""
        return f"{self.label}: {head}{self.method_name}({args})"


@dataclass(frozen=True, slots=True)
class Aggregate:
    """``Name := label1 | label2 | ...;`` — a named label disjunction."""

    label: str
    members: tuple[str, ...]
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"{self.label} := {' | '.join(self.members)}"


# ---------------------------------------------------------------------------
# ORDER
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LabelRef:
    """A reference to an event label or aggregate inside ORDER."""

    label: str
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, slots=True)
class Seq:
    """Sequential composition: ``a, b``."""

    parts: tuple["OrderExpr", ...]

    def __str__(self) -> str:
        return ", ".join(_paren(p, self) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Alt:
    """Alternatives: ``a | b``."""

    options: tuple["OrderExpr", ...]

    def __str__(self) -> str:
        return " | ".join(_paren(o, self) for o in self.options)


@dataclass(frozen=True, slots=True)
class Star:
    """Zero or more: ``a*``."""

    inner: "OrderExpr"

    def __str__(self) -> str:
        return f"{_paren(self.inner, self)}*"


@dataclass(frozen=True, slots=True)
class Plus:
    """One or more: ``a+``."""

    inner: "OrderExpr"

    def __str__(self) -> str:
        return f"{_paren(self.inner, self)}+"


@dataclass(frozen=True, slots=True)
class Opt:
    """Zero or one: ``a?``."""

    inner: "OrderExpr"

    def __str__(self) -> str:
        return f"{_paren(self.inner, self)}?"


OrderExpr = Union[LabelRef, Seq, Alt, Star, Plus, Opt]


def _paren(node: OrderExpr, parent: OrderExpr) -> str:
    """Parenthesise a child when precedence demands it when printing."""
    needs = isinstance(node, (Seq, Alt)) and not isinstance(parent, type(node))
    text = str(node)
    return f"({text})" if needs else text


# ---------------------------------------------------------------------------
# CONSTRAINTS
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal value: int, string, or bool."""

    value: int | str | bool
    location: Location = UNKNOWN

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True, slots=True)
class ObjectRef:
    """A reference to an OBJECTS entry inside a constraint."""

    name: str
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LengthOf:
    """``length[obj]`` — the element count of an array-ish object."""

    operand: ObjectRef
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"length[{self.operand}]"


@dataclass(frozen=True, slots=True)
class PartOf:
    """``part(index, "sep", obj)`` — split a string object and select a part.

    Used for transformation strings: ``part(0, "/", transformation)`` is
    the algorithm, part 1 the mode, part 2 the padding.
    """

    index: int
    separator: str
    operand: ObjectRef
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f'part({self.index}, "{self.separator}", {self.operand})'


@dataclass(frozen=True, slots=True)
class InstanceOf:
    """``instanceof[obj, some.Type]`` — the built-in the paper adds in §4."""

    operand: ObjectRef
    type_name: str
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"instanceof[{self.operand}, {self.type_name}]"


@dataclass(frozen=True, slots=True)
class CallTo:
    """``callTo[label]`` — true when the chosen path invokes ``label``."""

    label: str
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"callTo[{self.label}]"


@dataclass(frozen=True, slots=True)
class NoCallTo:
    """``noCallTo[label]`` — true when the chosen path avoids ``label``."""

    label: str
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"noCallTo[{self.label}]"


ValueExpr = Union[Literal, ObjectRef, LengthOf, PartOf]


@dataclass(frozen=True, slots=True)
class Comparison:
    """``lhs op rhs`` with op one of ``== != <= < >= >``."""

    op: str
    lhs: ValueExpr
    rhs: ValueExpr
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True, slots=True)
class InSet:
    """``expr in {v1, ..., vN}`` — the ordered whitelist constraint.

    Order is semantic for the generator: it picks the *first* member
    (§3.3 of the paper), which is why §4 reports re-ordering some sets.
    """

    subject: ValueExpr
    values: tuple[Literal, ...]
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"{self.subject} in {{{', '.join(map(str, self.values))}}}"


@dataclass(frozen=True, slots=True)
class Implication:
    """``antecedent => consequent``."""

    antecedent: "ConstraintExpr"
    consequent: "ConstraintExpr"
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"{self.antecedent} => {self.consequent}"


@dataclass(frozen=True, slots=True)
class BoolOp:
    """``a && b`` or ``a || b``."""

    op: str  # "&&" or "||"
    operands: tuple["ConstraintExpr", ...]
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f" {self.op} ".join(f"({o})" for o in self.operands)


@dataclass(frozen=True, slots=True)
class Negation:
    """``!expr``."""

    operand: "ConstraintExpr"
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return f"!({self.operand})"


ConstraintExpr = Union[
    Comparison, InSet, Implication, BoolOp, Negation, InstanceOf, CallTo, NoCallTo
]


# ---------------------------------------------------------------------------
# FORBIDDEN
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ForbiddenMethod:
    """``method_name(type1, type2) => alternative_label;``

    The optional alternative names the event a fix should use instead.
    """

    method_name: str
    param_types: tuple[str, ...]
    alternative: str | None = None
    location: Location = UNKNOWN

    def __str__(self) -> str:
        sig = f"{self.method_name}({', '.join(self.param_types)})"
        return f"{sig} => {self.alternative}" if self.alternative else sig


# ---------------------------------------------------------------------------
# REQUIRES / ENSURES / NEGATES
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PredArg:
    """A predicate argument: object name, ``this``, ``_`` or a literal."""

    value: str | Literal
    location: Location = UNKNOWN

    @property
    def is_wildcard(self) -> bool:
        return self.value == "_"

    @property
    def is_this(self) -> bool:
        return self.value == "this"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class PredicateUse:
    """``name[arg, ...]`` with an optional ``after label`` anchor.

    In REQUIRES the first argument is conventionally the object that
    must carry the predicate; in ENSURES it is the object the predicate
    is granted on.
    """

    name: str
    args: tuple[PredArg, ...]
    after: str | None = None
    location: Location = UNKNOWN

    def __str__(self) -> str:
        text = f"{self.name}[{', '.join(map(str, self.args))}]"
        if self.after:
            text += f" after {self.after}"
        return text


@dataclass(frozen=True, slots=True)
class RequiresGroup:
    """One REQUIRES line: ``p1[x] || p2[x] || ...;``

    The JCA rule set uses disjunctions where an object may arrive from
    several producers (e.g. a Cipher key from KeyGenerator *or*
    SecretKeySpec *or* a KeyPair accessor). Satisfying any alternative
    satisfies the group.
    """

    alternatives: tuple[PredicateUse, ...]
    location: Location = UNKNOWN

    def __str__(self) -> str:
        return " || ".join(str(a) for a in self.alternatives)


# ---------------------------------------------------------------------------
# Rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """One parsed CrySL rule (one class specification)."""

    class_name: str
    objects: tuple[ObjectDecl, ...] = ()
    events: tuple[Event, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    order: OrderExpr | None = None
    forbidden: tuple[ForbiddenMethod, ...] = ()
    constraints: tuple[ConstraintExpr, ...] = ()
    requires: tuple[RequiresGroup, ...] = ()
    ensures: tuple[PredicateUse, ...] = ()
    negates: tuple[PredicateUse, ...] = ()
    filename: str = "<rule>"

    @property
    def simple_name(self) -> str:
        """The class's unqualified name (``PBEKeySpec``)."""
        return self.class_name.rsplit(".", 1)[-1]

    @property
    def module_name(self) -> str:
        """The module part of the qualified class name."""
        head, _, _ = self.class_name.rpartition(".")
        return head

    def object_named(self, name: str) -> ObjectDecl | None:
        for decl in self.objects:
            if decl.name == name:
                return decl
        return None

    def event_labelled(self, label: str) -> Event | None:
        for event in self.events:
            if event.label == label:
                return event
        return None

    def aggregate_labelled(self, label: str) -> Aggregate | None:
        for aggregate in self.aggregates:
            if aggregate.label == label:
                return aggregate
        return None

    def expand_label(self, label: str) -> tuple[str, ...]:
        """Resolve a label to the concrete event labels it stands for."""
        aggregate = self.aggregate_labelled(label)
        if aggregate is None:
            return (label,)
        expanded: list[str] = []
        for member in aggregate.members:
            expanded.extend(self.expand_label(member))
        return tuple(expanded)



@dataclass(frozen=True, slots=True)
class RuleSection:
    """Helper used by the parser: a section keyword plus its body tokens."""

    keyword: str
    location: Location = UNKNOWN


SECTION_KEYWORDS = (
    "SPEC",
    "OBJECTS",
    "EVENTS",
    "ORDER",
    "FORBIDDEN",
    "CONSTRAINTS",
    "REQUIRES",
    "ENSURES",
    "NEGATES",
)
