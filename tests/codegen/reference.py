"""The reference selector: the plain per-combination evaluator, kept as a test oracle.

The program scores a path combination by summing per-instance terms it
memoises for the length of one :func:`repro.codegen.selector.select`
call (:class:`repro.codegen.selector._Resolver`), and prunes the
combinations that cannot beat the best plan so far. This module keeps
the evaluator that memo replaced — every combination re-derives every
instance's environment, re-checks its CONSTRAINTS and re-activates every
link from scratch — and an exhaustive loop over every combination, so
the differential suite can check the memoised branch-and-bound against
an implementation with no shared state and no pruning. The only
change from the original is that :func:`evaluate_combo` returns a
:class:`~repro.codegen.selector.ChainPlan` (the program's former private
result record had the same four fields). :func:`plan_view` reduces a
plan to everything it decides, so two plans compare with ``==``.
"""

from __future__ import annotations

import itertools

from repro.codegen.context import GenerationContext
from repro.codegen.selector import (
    ChainPlan,
    GenerationError,
    InstancePlan,
    _build_environment,
    _declared_type,
    _path_uses_object,
    _producer_side_available,
    candidate_paths,
)
from repro.constraints import (
    Binding,
    BindingSource,
    ConstraintEvaluator,
    UnderconstrainedError,
    UnsatisfiableError,
    ValueDeriver,
)
from repro.constraints.types import TypeRegistry, default_registry
from repro.crysl import ast
from repro.fsm import enumerate_paths
from repro.predicates import (
    Link,
    RuleInstance,
    compute_links,
    granted_predicates,
    invalidating_events,
    unlinked_instances,
)


def activatable_links(
    links: list[Link],
    instances: list[RuleInstance],
    paths: dict[int, tuple[ast.Event, ...]],
    context: GenerationContext | None = None,
) -> list[Link]:
    """Links whose producer path grants the predicate and whose consumer
    path actually uses the linked object. One link per consumer slot;
    the nearest producer wins (freshest value)."""
    chosen: dict[tuple[int, str], Link] = {}
    for link in links:
        producer_path = paths[link.producer]
        consumer_path = paths[link.consumer]
        producer_rule = instances[link.producer].rule
        producer_labels = tuple(e.label for e in producer_path)
        if context is not None:
            granted = context.compiled(producer_rule).granted_predicates(
                producer_labels
            )
        else:
            granted = granted_predicates(producer_rule, producer_labels)
        if link.ensures not in granted:
            continue
        if not _producer_side_available(link, producer_path, instances[link.producer]):
            continue
        if link.consumer_object == "this":
            consumer = instances[link.consumer]
            consumer_creates = any(
                event.is_constructor or event.result == "this"
                for event in consumer_path
            )
            if consumer_creates or "this" in consumer.bindings:
                continue  # receiver already comes from elsewhere
        elif not _path_uses_object(consumer_path, link.consumer_object):
            continue
        slot = (link.consumer, link.consumer_object)
        current = chosen.get(slot)
        if current is None or link.producer > current.producer:
            chosen[slot] = link
    return list(chosen.values())


def evaluate_combo(
    instances: list[RuleInstance],
    combo: tuple[tuple[ast.Event, ...], ...],
    links: list[Link],
    registry: TypeRegistry,
    context: GenerationContext | None = None,
) -> ChainPlan | None:
    paths = {instance.index: path for instance, path in zip(instances, combo)}
    active = activatable_links(links, instances, paths, context)
    pushed_total = 0
    unsatisfied = 0
    plans: list[InstancePlan] = []
    for instance, path in zip(instances, combo):
        incoming = [link for link in active if link.consumer == instance.index]
        env = _build_environment(instance, path, incoming, instances)
        labels = tuple(event.label for event in path)
        # Resolve remaining parameters from CONSTRAINTS.
        unknown = []
        for event in path:
            for param in event.params:
                if param.is_wildcard or param.is_this:
                    continue
                if param.name not in env:
                    unknown.append(param.name)
        pushed: list[str] = []
        compiled = context.compiled(instance.rule) if context is not None else None
        deriver = ValueDeriver(instance.rule, env, labels, registry, compiled=compiled)
        for name in dict.fromkeys(unknown):  # stable dedupe
            try:
                value = deriver.derive(name)
            except (UnderconstrainedError, UnsatisfiableError):
                env.bind(
                    Binding(
                        name,
                        BindingSource.PUSHED_UP,
                        type_name=_declared_type(instance.rule, name),
                    )
                )
                pushed.append(name)
                continue
            env.bind(Binding(name, BindingSource.DERIVED, value=value))
        # Receiver resolution.
        receiver_pushed = False
        creates = any(
            event.is_constructor or event.result == "this" for event in path
        )
        if not creates and "this" not in instance.bindings:
            has_this_link = any(
                link.consumer == instance.index and link.consumer_object == "this"
                for link in active
            )
            if not has_this_link:
                receiver_pushed = True
        # Hard check: the rule's constraints must not be violated.
        evaluator = ConstraintEvaluator(env, instance.rule, labels, registry)
        if evaluator.evaluate_all(instance.rule.constraints) is False:
            return None
        # Soft check: requires groups without a link or template waiver.
        for group in instance.rule.requires:
            group_objects = {
                alt.args[0].value
                for alt in group.alternatives
                if alt.args and isinstance(alt.args[0].value, str)
            }
            used = [
                name
                for name in group_objects
                if name != "this" and _path_uses_object(path, name)
            ]
            if not used:
                continue
            linked = any(
                link.consumer == instance.index
                and link.consumer_object in group_objects
                for link in active
            )
            waived = any(
                (binding := env.get(name)) is not None
                and binding.source is BindingSource.TEMPLATE
                for name in used
            )
            if not linked and not waived:
                unsatisfied += 1
        pushed_total += len(pushed) + (1 if receiver_pushed else 0)
        deferred = (
            compiled.invalidating_events(labels)
            if compiled is not None
            else invalidating_events(instance.rule, labels)
        )
        plans.append(
            InstancePlan(
                instance=instance,
                path=path,
                env=env,
                pushed_up=tuple(pushed),
                deferred=deferred,
                receiver_pushed=receiver_pushed,
            )
        )
    dropped = tuple(unlinked_instances(instances, active))
    total_calls = sum(len(plan.path) for plan in plans)
    total_params = sum(event.arity for plan in plans for event in plan.path)
    score = (pushed_total, unsatisfied, len(dropped), total_calls, total_params)
    return ChainPlan(plans, active, score, dropped)


def reference_select(
    instances: list[RuleInstance],
    registry: TypeRegistry | None = None,
    *,
    context: GenerationContext | None = None,
    links: list[Link] | None = None,
) -> ChainPlan:
    """The exhaustive search over :func:`evaluate_combo`: the first
    lowest-scoring combination in product order."""
    if registry is None:
        registry = context.registry if context is not None else default_registry()
    if links is None:
        links = compute_links(instances, context=context)
    per_instance = []
    for instance in instances:
        if context is not None:
            all_paths = context.compiled(instance.rule).paths
        else:
            all_paths = tuple(enumerate_paths(instance.rule))
        candidates = candidate_paths(instance, all_paths)
        if not candidates:
            raise GenerationError(f"{instance.rule.class_name}: no candidate path")
        per_instance.append(candidates)

    best: ChainPlan | None = None
    for combo in itertools.product(*per_instance):
        result = evaluate_combo(instances, combo, links, registry, context)
        if result is None:
            continue
        if best is None or result.score < best.score:
            best = result
    if best is None:
        raise GenerationError("no combination of usage paths satisfies all CONSTRAINTS")
    return best


def plan_view(plan: ChainPlan) -> dict:
    """Everything a chosen plan decides, in comparable form."""
    return {
        "labels": [p.labels for p in plan.instances],
        "score": plan.score,
        "active_links": plan.active_links,
        "dropped": plan.dropped,
        "bindings": [
            [
                (b.name, b.source, b.value, b.type_name, b.length, b.template_expr)
                for b in p.env
            ]
            for p in plan.instances
        ],
        "pushed_up": [p.pushed_up for p in plan.instances],
        "deferred": [p.deferred for p in plan.instances],
        "receiver_pushed": [p.receiver_pushed for p in plan.instances],
    }
