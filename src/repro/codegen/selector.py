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

This module realises those rules as one exact search over the
per-instance path candidates with a lexicographic score
``(pushed-up, unsatisfied-requires, dropped-instances, calls, params)``
— the paper's filters fall out as the dominant terms, and
``tests/codegen/test_selector.py::TestAblations`` switches individual
design choices off. The score is a sum of per-instance terms, each
solved once per :func:`select` call, and a branch-and-bound over them
(:meth:`_Resolver.search`) returns the first lowest-scoring combination
in product order without scoring every combination.
"""

from __future__ import annotations

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
from ..predicates import (
    Link,
    RuleInstance,
    compute_links,
    unlinked_instances,
)
from .context import GenerationContext


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


# ---------------------------------------------------------------------------
# path prefilters (Figure 6, step 3)
# ---------------------------------------------------------------------------


def candidate_paths(
    instance: RuleInstance, paths: tuple[tuple[ast.Event, ...], ...]
) -> list[tuple[ast.Event, ...]]:
    """The rule's enumerated ``paths`` that pass the template-object
    filter for this instance."""
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
    producer_compiled: CompiledRule,
) -> bool:
    """Does the producer path grant the predicate and the consumer path
    actually use the linked object?"""
    producer_labels = tuple(e.label for e in producer_path)
    if link.ensures not in producer_compiled.granted_predicates(producer_labels):
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


def _template_binding_to_binding(name: str, template_binding) -> Binding:
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
    compiled: CompiledRule,
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
    plan = InstancePlan(
        instance=instance,
        path=path,
        env=env,
        pushed_up=tuple(pushed),
        deferred=compiled.invalidating_events(labels),
        receiver_pushed=receiver_pushed,
    )
    return plan, len(pushed) + (1 if receiver_pushed else 0), unsatisfied


class _Resolver:
    """Finds the best-scoring path combination for one :func:`select` call.

    A combination is a list of candidate positions, one per instance.
    Its score is a sum of per-instance terms, and both of their inputs
    are memoised for the life of this object:

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
        compiled: list[CompiledRule],
    ):
        self._instances = instances
        self._per_instance = per_instance
        self._links = links
        self._registry = registry
        self._compiled = compiled
        #: link positions into each instance, in link order
        self._into: list[list[int]] = [[] for _ in instances]
        for position, link in enumerate(links):
            self._into[link.consumer].append(position)
        self._terms: dict[
            tuple[int, int, tuple[int, ...]], tuple[InstancePlan, int, int] | None
        ] = {}
        self._activation: dict[tuple[int, int, int], bool] = {}

    def _incoming(self, index: int, choices: list[int]) -> tuple[int, ...]:
        """Positions of the active links into instance ``index``. One
        link per consumer object; the nearest producer wins (freshest
        value). Links point forward only, so this reads the choices of
        ``index`` and of earlier instances."""
        links = self._links
        chosen: dict[str, int] = {}
        for position in self._into[index]:
            link = links[position]
            key = (position, choices[link.producer], choices[index])
            active = self._activation.get(key)
            if active is None:
                active = self._activation[key] = _link_activatable(
                    link,
                    self._instances[link.producer],
                    self._per_instance[link.producer][key[1]],
                    self._instances[index],
                    self._per_instance[index][key[2]],
                    self._compiled[link.producer],
                )
            if not active:
                continue
            current = chosen.get(link.consumer_object)
            if current is None or link.producer > links[current].producer:
                chosen[link.consumer_object] = position
        return tuple(chosen.values())

    def search(self, diag: Diagnostics) -> ChainPlan | None:
        """The first lowest-scoring combination in product order, or
        ``None`` when each one violates some rule's CONSTRAINTS.

        A depth-first branch-and-bound: instances in chain order, each
        one's candidates in order. A chosen instance's pushed-up and
        unsatisfied counts are final, and the rest of the chain makes
        at least its shortest paths' calls and parameters, so
        ``(pushed, unmet, 0, calls + fewest calls left, params + fewest
        params left)`` bounds every completion from below. A subtree
        whose bound does not beat the best plan is skipped; only
        complete plans are scored (``COMBOS_EVALUATED``).
        """
        count = len(self._per_instance)
        costs = [
            [(len(path), sum(event.arity for event in path)) for path in candidates]
            for candidates in self._per_instance
        ]
        fewest_left = [(0, 0)] * (count + 1)
        for index in reversed(range(count)):
            calls, params = fewest_left[index + 1]
            fewest_left[index] = (
                calls + min(cost[0] for cost in costs[index]),
                params + min(cost[1] for cost in costs[index]),
            )
        choices = [0] * count
        incoming: list[tuple[int, ...]] = [()] * count
        plans: list[InstancePlan] = []
        best: ChainPlan | None = None

        def visit(index: int, pushed: int, unmet: int, calls: int, params: int):
            nonlocal best
            if index == count:
                diag.count(COMBOS_EVALUATED)
                active = [self._links[p] for into in incoming for p in into]
                dropped = tuple(unlinked_instances(self._instances, active))
                score = (pushed, unmet, len(dropped), calls, params)
                if best is None or score < best.score:
                    best = ChainPlan(list(plans), active, score, dropped)
                return
            for choice, (path_calls, path_params) in enumerate(costs[index]):
                choices[index] = choice
                incoming[index] = self._incoming(index, choices)
                key = (index, choice, incoming[index])
                if key not in self._terms:
                    self._terms[key] = _evaluate_instance(
                        self._instances[index],
                        self._per_instance[index][choice],
                        [self._links[p] for p in incoming[index]],
                        self._instances,
                        self._registry,
                        self._compiled[index],
                    )
                if self._terms[key] is None:
                    continue
                plan, plan_pushed, plan_unmet = self._terms[key]
                step = (
                    pushed + plan_pushed,
                    unmet + plan_unmet,
                    calls + path_calls,
                    params + path_params,
                )
                calls_left, params_left = fewest_left[index + 1]
                bound = (*step[:2], 0, step[2] + calls_left, step[3] + params_left)
                if best is not None and bound >= best.score:
                    continue
                plans.append(plan)
                visit(index + 1, *step)
                plans.pop()

        visit(0, 0, 0, 0, 0)
        return best


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
    compiled-rule cache, and without one each rule is compiled afresh;
    with ``diagnostics``, the select and resolve stages are timed and
    counted. ``links`` lets the caller reuse the link stage's output
    instead of recomputing it here; like :func:`compute_links`'s, each
    must run from an earlier instance to a later one.
    """
    if registry is None:
        registry = context.registry if context is not None else default_registry()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    if links is None:
        links = compute_links(instances, context=context)

    with diag.stage("select"):
        per_instance = []
        compiled_rules: list[CompiledRule] = []
        for position, instance in enumerate(instances):
            if instance.index != position:
                raise ValueError(
                    f"{instance.rule.class_name}: instance index {instance.index} "
                    f"at chain position {position}; links address instances "
                    "by position"
                )
            compiled = (
                context.compiled(instance.rule)
                if context is not None
                else CompiledRule(instance.rule)
            )
            all_paths = compiled.paths
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

    resolver = _Resolver(instances, per_instance, links, registry, compiled_rules)
    with diag.stage("resolve"):
        best = resolver.search(diag)
        if best is None:
            raise GenerationError(
                "no combination of usage paths satisfies all CONSTRAINTS; "
                "the considered rules are mutually inconsistent"
            )
        _record_cascade_tiers(best.instances, diag)
    return best
