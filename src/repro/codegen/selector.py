"""Call-path selection and parameter resolution (Figure 6, steps 3–4).

For every rule instance in a chain the generator must pick one
repetition-free accepting call path and resolve every parameter on it.
The paper describes a sequence of filters and heuristics:

1. paths that do not use the objects the template binds via
   ``add_parameter`` "cannot implement the use case and are therefore
   eliminated";
2. paths whose granted predicates do not match the links the chain
   relies on are discarded;
3. parameters resolve in a cascade — template object, then
   predicate-carrying object from earlier generated code, then a secure
   literal derived from CONSTRAINTS, then (fallback) a parameter pushed
   up into the wrapper method's signature;
4. among fully-resolvable alternatives the generator "opts for the
   method path with the fewest method calls as well as the smallest
   number of parameters".

This module realises those rules as a small exhaustive search over the
per-instance path candidates with a lexicographic score
``(pushed-up, unsatisfied-requires, dropped-instances, calls, params)``
— the paper's greedy filters fall out as the dominant terms, and
``tests/codegen/test_selector.py::TestAblations`` switches individual
design choices off. The score is a sum of per-instance terms, each
solved once per :func:`select` call (:class:`_Resolver`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..constraints import (
    Binding,
    BindingSource,
    ConstraintEvaluator,
    Environment,
    UnderconstrainedError,
    UnsatisfiableError,
    ValueDeriver,
)
from ..constraints.types import TypeRegistry, default_registry
from ..crysl import ast
from ..crysl.compiled import CompiledRule
from ..diagnostics import (
    COMBOS_EVALUATED,
    PATHS_CANDIDATES,
    PATHS_FILTERED,
    PATHS_KEPT,
    TIER_DERIVED,
    TIER_PREDICATE,
    TIER_PUSHED,
    TIER_TEMPLATE,
    Diagnostics,
)
from ..fsm import enumerate_paths
from ..predicates import (
    Link,
    RuleInstance,
    compute_links,
    granted_predicates,
    invalidating_events,
    unlinked_instances,
)
from .context import GenerationContext

#: Hard cap on the path-combination product; beyond it the selector
#: falls back to a per-instance greedy choice.
MAX_COMBINATIONS = 20_000


class GenerationError(Exception):
    """The chain admits no consistent plan."""


@dataclass
class InstancePlan:
    """The chosen path and resolved bindings for one rule instance."""

    instance: RuleInstance
    path: tuple[ast.Event, ...]
    env: Environment
    #: rule objects whose values must be hoisted into the wrapper
    #: signature (paper §3.3's compilability-over-completeness fallback).
    pushed_up: tuple[str, ...] = ()
    #: event labels deferred to the end of the method (NEGATES handling).
    deferred: tuple[str, ...] = ()
    #: True when the receiver itself must be pushed up.
    receiver_pushed: bool = False

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(event.label for event in self.path)

    def output_event(self) -> ast.Event | None:
        """The last non-deferred event that yields a value (paper §3.2:
        the return object binds to "the last method of that class that
        needs to be called")."""
        for event in reversed(self.path):
            if event.label in self.deferred:
                continue
            if event.result is not None or event.is_constructor:
                return event
        return None


@dataclass
class ChainPlan:
    """A complete plan for one fluent chain."""

    instances: list[InstancePlan]
    active_links: list[Link]
    score: tuple[int, int, int, int, int]
    dropped: tuple[int, ...] = ()

    def plan_for(self, index: int) -> InstancePlan:
        return self.instances[index]


# ---------------------------------------------------------------------------
# path prefilters (Figure 6, step 3)
# ---------------------------------------------------------------------------


def candidate_paths(
    instance: RuleInstance,
    paths: tuple[tuple[ast.Event, ...], ...] | list[tuple[ast.Event, ...]] | None = None,
) -> list[tuple[ast.Event, ...]]:
    """Per-instance path candidates after the template-object filter.

    ``paths`` lets callers supply the rule's pre-enumerated paths (from
    the compiled-rule cache); without it the rule is enumerated afresh.
    """
    if paths is None:
        paths = enumerate_paths(instance.rule)
    bound_vars = set(instance.bindings) - {"this"}
    receiver_bound = "this" in instance.bindings
    needs_output = instance.return_target is not None
    required_outputs = set(instance.output_bindings)
    kept: list[tuple[ast.Event, ...]] = []
    for path in paths:
        param_names = {
            param.name for event in path for param in event.params if not param.is_wildcard
        }
        result_names = {event.result for event in path if event.result}
        if not bound_vars <= param_names:
            continue  # filter 1: template objects must be used
        if not required_outputs <= result_names:
            continue  # explicitly bound outputs must be produced
        if receiver_bound and any(
            event.is_constructor or event.result == "this" for event in path
        ):
            continue  # externally supplied receivers must not be re-created
        if needs_output and not any(
            event.result is not None or event.is_constructor for event in path
        ):
            continue
        kept.append(path)
    return kept


# ---------------------------------------------------------------------------
# link activation
# ---------------------------------------------------------------------------


def _path_uses_object(path: tuple[ast.Event, ...], name: str) -> bool:
    return any(
        param.name == name for event in path for param in event.params
    )


def _path_defines_object(path: tuple[ast.Event, ...], name: str) -> bool:
    return any(event.result == name for event in path)


def _producer_side_available(
    link: Link, producer_path: tuple[ast.Event, ...], producer: RuleInstance
) -> bool:
    """Is the producer-side object realised by the producer's path?"""
    if link.producer_object == "this":
        return True
    if _path_defines_object(producer_path, link.producer_object):
        return True
    # In-place outputs (SecureRandom.next_bytes(out)) and bound params.
    if _path_uses_object(producer_path, link.producer_object):
        return True
    return False


def _link_activatable(
    link: Link,
    producer: RuleInstance,
    producer_path: tuple[ast.Event, ...],
    consumer: RuleInstance,
    consumer_path: tuple[ast.Event, ...],
    producer_compiled: CompiledRule | None,
) -> bool:
    """Does the producer path grant the predicate and the consumer path
    actually use the linked object?"""
    producer_labels = tuple(e.label for e in producer_path)
    if producer_compiled is not None:
        granted = producer_compiled.granted_predicates(producer_labels)
    else:
        granted = granted_predicates(producer.rule, producer_labels)
    if link.ensures not in granted:
        return False
    if not _producer_side_available(link, producer_path, producer):
        return False
    if link.consumer_object == "this":
        consumer_creates = any(
            event.is_constructor or event.result == "this" for event in consumer_path
        )
        # The receiver must not already come from elsewhere.
        return not consumer_creates and "this" not in consumer.bindings
    return _path_uses_object(consumer_path, link.consumer_object)


# ---------------------------------------------------------------------------
# per-combination evaluation
# ---------------------------------------------------------------------------


def _declared_type(rule: ast.Rule, object_name: str) -> str | None:
    declaration = rule.object_named(object_name)
    return declaration.type_name if declaration else None


def _template_binding_to_binding(
    name: str, template_binding, facts_type: str | None = None
) -> Binding:
    binding = Binding(
        name,
        BindingSource.TEMPLATE,
        template_expr=template_binding.expr,
    )
    if template_binding.is_literal:
        binding.value = template_binding.value
    if template_binding.type_name is not None:
        binding.type_name = template_binding.type_name
    return binding


def _build_environment(
    instance: RuleInstance,
    path: tuple[ast.Event, ...],
    incoming_links: list[Link],
    instances: list[RuleInstance],
) -> Environment:
    env = Environment()
    for rule_var, template_binding in instance.bindings.items():
        if rule_var == "this":
            continue
        env.bind(_template_binding_to_binding(rule_var, template_binding))
    for link in incoming_links:
        if link.consumer != instance.index or link.consumer_object == "this":
            continue
        producer = instances[link.producer]
        if link.producer_object == "this":
            type_name = producer.rule.class_name
        else:
            type_name = _declared_type(producer.rule, link.producer_object)
        env.bind(
            Binding(link.consumer_object, BindingSource.PREDICATE, type_name=type_name)
        )
    for event in path:
        if event.result is not None and event.result != "this":
            if event.result not in env:
                env.bind(
                    Binding(
                        event.result,
                        BindingSource.RESULT,
                        type_name=_declared_type(instance.rule, event.result),
                    )
                )
    return env


def _evaluate_instance(
    instance: RuleInstance,
    path: tuple[ast.Event, ...],
    incoming: list[Link],
    instances: list[RuleInstance],
    registry: TypeRegistry,
    compiled: CompiledRule | None,
) -> tuple[InstancePlan, int, int] | None:
    """One instance's term of the score: its plan, its pushed-up count
    and its unsatisfied-REQUIRES count, given its path and the active
    links that feed it. ``None`` when the path violates the rule's
    CONSTRAINTS."""
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
    creates = any(event.is_constructor or event.result == "this" for event in path)
    receiver_pushed = (
        not creates
        and "this" not in instance.bindings
        and not any(link.consumer_object == "this" for link in incoming)
    )
    # Hard check: the rule's constraints must not be violated.
    evaluator = ConstraintEvaluator(env, instance.rule, labels, registry)
    if evaluator.evaluate_all(instance.rule.constraints) is False:
        return None
    # Soft check: requires groups without a link or template waiver.
    unsatisfied = 0
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
        linked = any(link.consumer_object in group_objects for link in incoming)
        waived = any(
            (binding := env.get(name)) is not None
            and binding.source is BindingSource.TEMPLATE
            for name in used
        )
        if not linked and not waived:
            unsatisfied += 1
    deferred = (
        compiled.invalidating_events(labels)
        if compiled is not None
        else invalidating_events(instance.rule, labels)
    )
    plan = InstancePlan(
        instance=instance,
        path=path,
        env=env,
        pushed_up=tuple(pushed),
        deferred=deferred,
        receiver_pushed=receiver_pushed,
    )
    return plan, len(pushed) + (1 if receiver_pushed else 0), unsatisfied


class _Resolver:
    """Scores path combinations for one :func:`select` call.

    A combination is a tuple of candidate positions, one per instance.
    Its score is a sum of per-instance terms, and both of its inputs are
    memoised for the life of this object:

    * each instance's term under ``(instance index, candidate position,
      incoming active links)``. In CrySL an instance's CONSTRAINTS and
      REQUIRES refer only to its own objects, so its path and the links
      that feed it are its whole input;
    * each link's activation under ``(link position, producer candidate,
      consumer candidate)``, since it reads only those two paths.

    Combinations that share a key share one :class:`InstancePlan` and
    its :class:`Environment`. That is safe because nothing downstream
    writes to a plan: the emitter and :mod:`.explain` only read
    ``plan.env``.
    """

    def __init__(
        self,
        instances: list[RuleInstance],
        per_instance: list[list[tuple[ast.Event, ...]]],
        links: list[Link],
        registry: TypeRegistry,
        compiled: list[CompiledRule | None],
    ):
        self._instances = instances
        self._per_instance = per_instance
        self._links = links
        self._registry = registry
        self._compiled = compiled
        self._terms: dict[
            tuple[int, int, tuple[int, ...]], tuple[InstancePlan, int, int] | None
        ] = {}
        self._activation: dict[tuple[int, int, int], bool] = {}

    def _active(self, combo: tuple[int, ...]) -> list[int]:
        """Positions of the links active under ``combo``. One link per
        consumer slot; the nearest producer wins (freshest value)."""
        links = self._links
        chosen: dict[tuple[int, str], int] = {}
        for position, link in enumerate(links):
            producer_choice = combo[link.producer]
            consumer_choice = combo[link.consumer]
            key = (position, producer_choice, consumer_choice)
            active = self._activation.get(key)
            if active is None:
                active = self._activation[key] = _link_activatable(
                    link,
                    self._instances[link.producer],
                    self._per_instance[link.producer][producer_choice],
                    self._instances[link.consumer],
                    self._per_instance[link.consumer][consumer_choice],
                    self._compiled[link.producer],
                )
            if not active:
                continue
            slot = (link.consumer, link.consumer_object)
            current = chosen.get(slot)
            if current is None or link.producer > links[current].producer:
                chosen[slot] = position
        return list(chosen.values())

    def evaluate(self, combo: tuple[int, ...]) -> ChainPlan | None:
        """The plan and score for one combination; ``None`` when a path
        violates its rule's CONSTRAINTS."""
        links = self._links
        positions = self._active(combo)
        incoming: list[list[int]] = [[] for _ in combo]
        for position in positions:
            incoming[links[position].consumer].append(position)
        pushed_total = unsatisfied = 0
        plans: list[InstancePlan] = []
        for index, choice in enumerate(combo):
            key = (index, choice, tuple(incoming[index]))
            if key not in self._terms:
                self._terms[key] = _evaluate_instance(
                    self._instances[index],
                    self._per_instance[index][choice],
                    [links[position] for position in incoming[index]],
                    self._instances,
                    self._registry,
                    self._compiled[index],
                )
            term = self._terms[key]
            if term is None:
                return None
            plan, pushed, unmet = term
            plans.append(plan)
            pushed_total += pushed
            unsatisfied += unmet
        active = [links[position] for position in positions]
        dropped = tuple(unlinked_instances(self._instances, active))
        total_calls = sum(len(plan.path) for plan in plans)
        total_params = sum(event.arity for plan in plans for event in plan.path)
        score = (pushed_total, unsatisfied, len(dropped), total_calls, total_params)
        return ChainPlan(plans, active, score, dropped)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _record_cascade_tiers(plans: list[InstancePlan], diag: Diagnostics) -> None:
    """Count the winning plan's bindings per cascade tier (paper §3.3)."""
    for plan in plans:
        for binding in plan.env:
            if binding.source is BindingSource.TEMPLATE:
                diag.count(TIER_TEMPLATE)
            elif binding.source is BindingSource.PREDICATE:
                diag.count(TIER_PREDICATE)
            elif binding.source is BindingSource.DERIVED:
                diag.count(TIER_DERIVED)
            elif binding.source is BindingSource.PUSHED_UP:
                diag.count(TIER_PUSHED)
        if plan.receiver_pushed:
            diag.count(TIER_PUSHED)


def select(
    instances: list[RuleInstance],
    registry: TypeRegistry | None = None,
    *,
    context: GenerationContext | None = None,
    diagnostics: Diagnostics | None = None,
    links: list[Link] | None = None,
) -> ChainPlan:
    """Choose paths and resolve parameters for a whole chain.

    With a ``context``, per-rule path enumerations come from the
    compiled-rule cache; with ``diagnostics``, the select and resolve
    stages are timed and counted. ``links`` lets the caller reuse the
    link stage's output instead of recomputing it here.
    """
    if registry is None:
        registry = context.registry if context is not None else default_registry()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    if links is None:
        links = compute_links(instances, context=context)

    with diag.stage("select"):
        per_instance = []
        compiled_rules: list[CompiledRule | None] = []
        for position, instance in enumerate(instances):
            if instance.index != position:
                raise ValueError(
                    f"{instance.rule.class_name}: instance index {instance.index} "
                    f"at chain position {position}; links address instances "
                    "by position"
                )
            if context is not None:
                compiled = context.compiled(instance.rule)
                all_paths = compiled.paths
            else:
                compiled = None
                all_paths = tuple(enumerate_paths(instance.rule))
            compiled_rules.append(compiled)
            diag.record_path_count(instance.rule.simple_name, len(all_paths))
            candidates = candidate_paths(instance, all_paths)
            diag.count(PATHS_CANDIDATES, len(all_paths))
            diag.count(PATHS_KEPT, len(candidates))
            diag.count(PATHS_FILTERED, len(all_paths) - len(candidates))
            if not candidates:
                bound = ", ".join(sorted(set(instance.bindings) - {"this"}))
                raise GenerationError(
                    f"{instance.rule.class_name}: no usage path uses the template "
                    f"objects [{bound}] — check the add_parameter variable names "
                    f"against the rule's EVENTS section"
                )
            per_instance.append(candidates)

        combination_count = 1
        for candidates in per_instance:
            combination_count *= len(candidates)

    resolver = _Resolver(instances, per_instance, links, registry, compiled_rules)
    best: ChainPlan | None = None
    with diag.stage("resolve"):
        if combination_count <= MAX_COMBINATIONS:
            for combo in itertools.product(*(range(len(c)) for c in per_instance)):
                diag.count(COMBOS_EVALUATED)
                result = resolver.evaluate(combo)
                if result is None:
                    continue
                if best is None or result.score < best.score:
                    best = result
        else:
            # Greedy fallback: pick locally-best path per instance, front to
            # back, holding earlier choices fixed.
            diag.warn(
                "resolve",
                f"path-combination product {combination_count} exceeds "
                f"{MAX_COMBINATIONS}; falling back to greedy per-instance choice",
            )
            chosen: list[int] = []
            for position, candidates in enumerate(per_instance):
                local_best = None
                local_best_result = None
                for choice in range(len(candidates)):
                    trial = chosen + [choice] + [0] * (len(per_instance) - position - 1)
                    diag.count(COMBOS_EVALUATED)
                    result = resolver.evaluate(tuple(trial))
                    if result is None:
                        continue
                    if local_best is None or result.score < local_best_result.score:
                        local_best = choice
                        local_best_result = result
                if local_best is None:
                    raise GenerationError(
                        f"{instances[position].rule.class_name}: every candidate path "
                        "violates the rule's constraints"
                    )
                chosen.append(local_best)
            best = resolver.evaluate(tuple(chosen))

        if best is None:
            raise GenerationError(
                "no combination of usage paths satisfies all CONSTRAINTS; "
                "the considered rules are mutually inconsistent"
            )
        _record_cascade_tiers(best.instances, diag)
    return best
