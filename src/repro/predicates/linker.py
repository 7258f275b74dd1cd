"""Predicate linking: step 2 of the paper's Figure 6 workflow.

"CogniCryptGEN iterates through the rules to assemble a list of
predicates that link rules to one another. These links form a path that
CogniCryptGEN uses to select appropriate method sequences for a given
class."

A :class:`Link` connects a *producer* instance's ENSURES entry to a
*consumer* instance's REQUIRES alternative, unifying the producer-side
object (or the producer itself, for ``this``-predicates like
``specced_key[this, ...]``) with the consumer-side object. Links only
point forward through the chain — the template's consider order is the
dataflow order, exactly as in the paper's Figure 4.

The linker computes *candidate* links; whether a link is active depends
on the call paths the selector chooses (the producer's path must grant
the predicate, the consumer's path must use the object). That
interplay lives in :mod:`repro.codegen.selector`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crysl import ast
from .instances import RuleInstance


@dataclass(frozen=True)
class Link:
    """A candidate predicate link between two rule instances."""

    predicate: str
    producer: int          # instance index in the chain
    producer_object: str   # producer rule object name, or "this"
    consumer: int
    consumer_object: str   # consumer rule object name, or "this"
    ensures: ast.PredicateUse
    requires_group_index: int  # index into consumer.rule.requires

    def __str__(self) -> str:
        return (
            f"{self.predicate}: #{self.producer}.{self.producer_object} -> "
            f"#{self.consumer}.{self.consumer_object}"
        )


def _object_arg(predicate: ast.PredicateUse) -> str | None:
    """The object a predicate is *about*: its first argument."""
    if not predicate.args:
        return None
    first = predicate.args[0].value
    return first if isinstance(first, str) else None


def compute_links(instances: list[RuleInstance], context=None) -> list[Link]:
    """All candidate links across a chain of rule instances.

    ``context`` (a :class:`~repro.codegen.context.GenerationContext`,
    duck-typed here to keep this layer below ``codegen``) provides the
    compiled-rule ENSURES index so producers are matched by name lookup
    instead of a scan over every ENSURES entry.
    """
    links: list[Link] = []
    for consumer in instances:
        for group_index, group in enumerate(consumer.rule.requires):
            for alternative in group.alternatives:
                consumer_object = _object_arg(alternative)
                if consumer_object is None:
                    continue
                for producer in instances:
                    if producer.index >= consumer.index:
                        continue
                    if context is not None:
                        ensured_entries = context.compiled(
                            producer.rule
                        ).ensures_by_name.get(alternative.name, ())
                    else:
                        ensured_entries = tuple(
                            e
                            for e in producer.rule.ensures
                            if e.name == alternative.name
                        )
                    for ensured in ensured_entries:
                        producer_object = _object_arg(ensured)
                        if producer_object is None:
                            continue
                        if not _arities_compatible(alternative, ensured):
                            continue
                        links.append(
                            Link(
                                predicate=alternative.name,
                                producer=producer.index,
                                producer_object=producer_object,
                                consumer=consumer.index,
                                consumer_object=consumer_object,
                                ensures=ensured,
                                requires_group_index=group_index,
                            )
                        )
    return links


def _arities_compatible(
    required: ast.PredicateUse, ensured: ast.PredicateUse
) -> bool:
    """Wildcards make short REQUIRES forms compatible with longer ENSURES."""
    if len(required.args) == len(ensured.args):
        return True
    # Allow a REQUIRES with fewer args to match (trailing args ignored),
    # mirroring CogniCrypt_SAST's lenient arity handling.
    return len(required.args) <= len(ensured.args)


def unlinked_instances(
    instances: list[RuleInstance], active_links: list[Link]
) -> list[int]:
    """Instances whose products flow nowhere: not linked to any other
    instance and not bound to a template output — the "not taken into
    account" drop of §3.3. Template *input* bindings alone do not make
    an instance involved: a considered rule whose result feeds nothing
    has failed to contribute to the use case."""
    producing = {link.producer for link in active_links}
    consuming = {link.consumer for link in active_links}
    out = []
    for instance in instances:
        involved = (
            instance.index in producing
            or instance.index in consuming
            or instance.return_target is not None
            or bool(instance.output_bindings)
        )
        if not involved:
            out.append(instance.index)
    return out
