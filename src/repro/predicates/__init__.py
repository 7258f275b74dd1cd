"""Predicate linking across rule instances (paper Figure 6, step 2).

ENSURES/REQUIRES rely–guarantee reasoning: candidate links between the
rules a template considers and the drop semantics of §3.3.
"""

from .instances import (
    RuleInstance,
    TemplateBinding,
    granted_predicates,
    invalidating_events,
)
from .linker import (
    Link,
    compute_links,
    unlinked_instances,
)

__all__ = [
    "Link",
    "RuleInstance",
    "TemplateBinding",
    "compute_links",
    "granted_predicates",
    "invalidating_events",
    "unlinked_instances",
]
