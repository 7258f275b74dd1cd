"""The type registry: CrySL type names → Python classes, with subtyping.

The ``instanceof[var, type]`` built-in (added by the paper in §4 to
separate symmetric from asymmetric Cipher configurations) needs to
decide subtype questions about *statically known* object types — e.g.
"is the object bound to ``key``, which a KeyGenerator produced as a
``repro.jca.SecretKey``, an instance of ``repro.jca.Key``?".
"""

from __future__ import annotations

import importlib
from functools import lru_cache

#: Primitive CrySL types → Python types.
_PRIMITIVES = {
    "int": int,
    "str": str,
    "bool": bool,
    "bytes": bytes,
    "bytearray": bytearray,
    "float": float,
}


class TypeRegistry:
    """Resolve qualified type names and answer subtype queries."""

    def __init__(self) -> None:
        self._cache: dict[str, type | None] = {}

    #: Namespaces tried, in order, for unqualified class names. Template
    #: authors annotate wrapper parameters with bare provider names
    #: (``key: SecretKey``); resolving them against the provider package
    #: keeps templates readable.
    DEFAULT_NAMESPACES = ("repro.jca",)

    def resolve(self, type_name: str) -> type | None:
        """Resolve a CrySL type name to a Python class; None if unknown."""
        if type_name in _PRIMITIVES:
            return _PRIMITIVES[type_name]
        if type_name in self._cache:
            return self._cache[type_name]
        resolved: type | None = None
        module_name, _, class_name = type_name.rpartition(".")
        candidates = (
            [type_name]
            if module_name
            else [f"{ns}.{type_name}" for ns in self.DEFAULT_NAMESPACES]
        )
        for qualified in candidates:
            candidate_module, _, candidate_class = qualified.rpartition(".")
            try:
                module = importlib.import_module(candidate_module)
            except ImportError:
                continue
            candidate = getattr(module, candidate_class, None)
            if isinstance(candidate, type):
                resolved = candidate
                break
        self._cache[type_name] = resolved
        return resolved

    def is_subtype(self, sub_name: str, super_name: str) -> bool | None:
        """Is ``sub_name`` a subtype of ``super_name``?

        Returns ``None`` (unknown) when either type cannot be resolved —
        the three-valued logic of the evaluator treats that as
        "satisfiable" for generation and "warn" for analysis.
        """
        if sub_name == super_name:
            return True
        sub = self.resolve(sub_name)
        sup = self.resolve(super_name)
        if sub is None or sup is None:
            return None
        return issubclass(sub, sup)


@lru_cache(maxsize=1)
def default_registry() -> TypeRegistry:
    """The process-wide registry (resolution is pure and cacheable)."""
    return TypeRegistry()
