"""The constraint environment: what the generator knows about each
rule-instance object while solving.

A :class:`Binding` records, for one CrySL object, where its value will
come from at runtime (template parameter, predicate link, derived
literal, pushed-up wrapper parameter) plus whatever is statically known
about it: a concrete value, a type, a length. The evaluator
(:mod:`repro.constraints.evaluate`) runs rule constraints against an
environment of bindings in three-valued logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping


class BindingSource(enum.Enum):
    """Where an object's runtime value originates (paper §3.3, step 4)."""

    TEMPLATE = "template"          # bound via add_parameter
    PREDICATE = "predicate"        # unified with another rule's object
    DERIVED = "derived"            # literal derived from CONSTRAINTS
    RESULT = "result"              # produced by an event on the path
    PUSHED_UP = "pushed-up"        # hoisted into the wrapper signature


#: Sentinel for "we know nothing about the concrete value".
class _UnknownType:
    _instance: "_UnknownType | None" = None

    def __new__(cls) -> "_UnknownType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        # Consumers test ``value is UNKNOWN``; pickling must hand back
        # the module singleton or bindings crossing a process boundary
        # (the parallel batch engine) would stop comparing identical.
        return (_restore_unknown, ())


def _restore_unknown() -> "_UnknownType":
    return UNKNOWN


UNKNOWN = _UnknownType()


@dataclass
class Binding:
    """What is known about one CrySL object during generation."""

    name: str
    source: BindingSource
    value: object = UNKNOWN
    type_name: str | None = None
    length: int | None = None
    #: For TEMPLATE bindings: the template-side expression (a variable
    #: name like "salt" or a rendered literal like "1").
    template_expr: str | None = None

    @property
    def has_value(self) -> bool:
        return self.value is not UNKNOWN

    def __repr__(self) -> str:
        detail = repr(self.value) if self.has_value else (self.type_name or "?")
        return f"Binding({self.name}={detail} via {self.source.value})"


class Environment:
    """A mutable map of object name → :class:`Binding` for one rule instance."""

    def __init__(self, bindings: Mapping[str, Binding] | None = None):
        self._bindings: dict[str, Binding] = dict(bindings or {})

    def bind(self, binding: Binding) -> None:
        self._bindings[binding.name] = binding

    def get(self, name: str) -> Binding | None:
        return self._bindings.get(name)

    def value_of(self, name: str) -> object:
        binding = self._bindings.get(name)
        if binding is None:
            return UNKNOWN
        return binding.value

    def length_of(self, name: str) -> int | None:
        binding = self._bindings.get(name)
        if binding is None:
            return None
        if binding.length is not None:
            return binding.length
        if binding.has_value and isinstance(binding.value, (bytes, bytearray, str)):
            return len(binding.value)  # type: ignore[arg-type]
        return None

    def copy(self) -> "Environment":
        return Environment(dict(self._bindings))

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self):
        return iter(self._bindings.values())

    def __repr__(self) -> str:
        return f"Environment({list(self._bindings.values())!r})"
