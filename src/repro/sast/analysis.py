"""The rule-driven static analyzer (CogniCrypt_SAST analogue).

Checks a Python module against the same CrySL rules the generator
consumes — the reproduction of the paper's RQ1 validity check ("we have
further run the Java compiler and CogniCrypt_SAST on them").

Semantics (matching Krüger et al., ECOOP 2018):

* events from *all* tracked objects in a function are processed in
  program order, so rely/guarantee predicates flow between objects
  exactly as they would at runtime;
* an object grants its ENSURES predicates at the anchoring event **only
  while its own use is violation-free** ("an object ensures its
  predicates if and only if the use follows the method sequence, does
  not violate any parameter constraints, and avoids forbidden
  methods");
* NEGATES withdraws a predicate when an invalidating event runs;
* REQUIRES is violated only when the supplied argument is *locally
  deterministic* (a literal, a fresh zero buffer, or a tracked object
  lacking the predicate); an obligation on one of the function's own
  parameters moves into its summary, for its callers to judge.

This module holds the per-function engine; the whole-project analyzer
(:mod:`repro.sast.project`, whose ``analyze_sources`` is the one entry
point) runs it callees-first. Helper calls resolved through the call
graph are *replayed* from the callee's
:class:`~repro.sast.summaries.FunctionSummary`: typestate labels flow
into the caller's walkers, predicates are granted/negated across the
boundary, waived REQUIRES obligations are re-checked against the
caller's arguments, and returned rule-covered objects become tracked at
the call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constraints import Binding, BindingSource, ConstraintEvaluator, Environment
from ..constraints.types import TypeRegistry, default_registry
from ..crysl import ast as crysl_ast
from ..crysl.ruleset import RuleSet, bundled_ruleset
from ..fsm import KernelWalker
from .ir import ArgFact, CallRecord, FunctionIR, HelperCall, ObjectTrace
from .ir import lift_module  # noqa: F401 -- perfbench/tracer.py wraps it here
from .report import AnalysisResult, Finding, FindingKind
from .summaries import (
    ForwardedBinding,
    FunctionSummary,
    ParamEffect,
    ParamRequire,
    ReturnEffect,
)


@dataclass
class _TraceState:
    """Mutable per-object analysis state."""

    trace: ObjectTrace
    rule: crysl_ast.Rule
    walker: KernelWalker
    env: Environment
    labels: list[str] = field(default_factory=list)
    tainted: bool = False
    reported_constraints: set[str] = field(default_factory=set)
    saw_any_event: bool = False
    receiver_checked: bool = False
    #: predicate name -> variable it was granted on (for NEGATES whose
    #: pattern does not mention the current event's objects)
    granted: dict[str, str] = field(default_factory=dict)
    #: False until the object's creation event has been processed —
    #: calls on the same *name* before that belong to something else
    live: bool = False


class CrySLAnalyzer:
    """Analyze modules against a rule set."""

    def __init__(
        self,
        ruleset: RuleSet | None = None,
        registry: TypeRegistry | None = None,
    ):
        self._ruleset = ruleset or bundled_ruleset()
        self._registry = registry or default_registry()
        self._rules_by_simple = {rule.simple_name: rule for rule in self._ruleset}
        # Automaton kernels and signature tables come from the rule set's
        # compiled-rule cache, so a generator and an analyzer sharing one
        # rule set (the eval harness) build each rule's automaton exactly
        # once.
        self._kernels = {
            rule.simple_name: self._ruleset.compiled(rule).kernel
            for rule in self._ruleset
        }
        self._result_types = self._compute_result_types()
        self._result_classes = {
            key: simple
            for key, declared in self._result_types.items()
            if (simple := declared.rsplit(".", 1)[-1]) in self._rules_by_simple
        }
        self._signatures = {
            rule.simple_name: self._ruleset.compiled(rule).events_by_signature
            for rule in self._ruleset
        }

    @property
    def ruleset(self) -> RuleSet:
        return self._ruleset

    @property
    def registry(self) -> TypeRegistry:
        return self._registry

    @property
    def tracked_classes(self) -> set[str]:
        """Simple names of every rule-covered class."""
        return set(self._rules_by_simple)

    @property
    def result_classes(self) -> dict[tuple[str, str, int], str]:
        """(class, method, arity) -> rule-covered result class."""
        return self._result_classes

    @property
    def result_types(self) -> dict[tuple[str, str, int], str]:
        """(class, method, arity) -> the result's declared CrySL type,
        rule-covered or not (``repro.jca.PublicKey``, ``bytes``)."""
        return self._result_types

    def _compute_result_types(self) -> dict[tuple[str, str, int], str]:
        out: dict[tuple[str, str, int], str] = {}
        for rule in self._ruleset:
            for event in rule.events:
                if event.result is None or event.result == "this":
                    continue
                declared = rule.object_named(event.result)
                if declared is not None:
                    key = (rule.simple_name, event.method_name, event.arity)
                    out[key] = declared.type_name
        return out

    # ------------------------------------------------------------------

    def analyze_ir(
        self,
        ir: FunctionIR,
        result: AnalysisResult,
        *,
        interproc: "SummaryProvider",
        defer_returns: bool = False,
    ) -> FunctionSummary:
        """Run the per-function engine; returns the function's summary."""
        engine = _FunctionEngine(
            self, ir, result, interproc=interproc, defer_returns=defer_returns
        )
        return engine.run()


class SummaryProvider:
    """Resolves a helper call to its callee's summary."""

    def summary_for(
        self, ir: FunctionIR, call: HelperCall
    ) -> FunctionSummary | None:  # pragma: no cover - interface
        raise NotImplementedError


class _FunctionEngine:
    """The per-function analysis: one timeline over every tracked object.

    Helper calls are resolved through ``interproc`` and their summaries
    replayed; meanwhile the engine builds this function's own summary
    for *its* callers.
    """

    def __init__(
        self,
        analyzer: CrySLAnalyzer,
        ir: FunctionIR,
        result: AnalysisResult,
        *,
        interproc: SummaryProvider,
        defer_returns: bool = False,
    ):
        self._analyzer = analyzer
        self._ir = ir
        self._result = result
        self._interproc = interproc
        self._defer_returns = defer_returns
        self._summary = FunctionSummary(
            module=ir.module, qualname=ir.qualname or ir.name,
            param_names=ir.param_names,
        )
        self._states: list[_TraceState] = []
        #: current name -> state binding (follows creation order)
        self._by_name: dict[str, _TraceState] = {}
        #: predicate name -> set of variables currently holding it
        self._held: dict[str, set[str]] = {}
        self._function_label = ir.qualname or ir.name
        self._requires_seen: set[tuple[int, tuple[str, ...], str]] = set()
        #: (param index, rule, event param) -> labels at first bind
        self._forwarded_seen: dict[tuple[int, str, str], tuple[str, ...]] = {}
        self._param_grants: dict[int, set[str]] = {}
        self._param_negates: dict[int, list[str]] = {}

    # -- construction ---------------------------------------------------

    def run(self) -> FunctionSummary:
        ir = self._ir
        for trace in ir.objects:
            self._adopt(trace)

        timeline: list[tuple[int, int, object, object]] = []
        for state in self._states:
            records = []
            if state.trace.creation is not None:
                records.append(state.trace.creation)
            records.extend(state.trace.calls)
            for record in records:
                timeline.append((record.line, record.seq, state, record))
        for call in ir.helper_calls:
            timeline.append((call.line, call.seq, None, call))
        timeline.sort(key=lambda item: (item[0], item[1]))

        for _, _, state, payload in timeline:
            if state is None:
                self._process_helper(payload)
            else:
                self._process_record(state, payload)

        returned = set(ir.returned_vars)
        for state in self._states:
            deferred = (
                self._defer_returns
                and state.trace.variable in returned
                and self._by_name.get(state.trace.variable) is state
            )
            if not deferred:
                self._finalize_trace(state)

        self._build_summary(returned)
        return self._summary

    def _adopt(self, trace: ObjectTrace) -> _TraceState:
        """Register one tracked object (lifted or summary-created)."""
        analyzer = self._analyzer
        rule = analyzer._rules_by_simple[trace.class_name]
        state = _TraceState(
            trace=trace,
            rule=rule,
            walker=KernelWalker(analyzer._kernels[trace.class_name]),
            env=Environment(),
            live=trace.creation is None,
        )
        self._states.append(state)
        self._by_name[trace.variable] = state
        self._result.tracked_objects += 1
        return state

    def _finding(
        self,
        kind: FindingKind,
        message: str,
        line: int,
        variable: str,
        rule: str,
        *,
        column: int = 0,
        end_line: int | None = None,
    ) -> None:
        self._result.findings.append(
            Finding(
                kind,
                message,
                line,
                variable,
                rule,
                self._function_label,
                file=self._ir.file,
                column=column,
                end_line=end_line,
            )
        )

    # -- event processing ----------------------------------------------

    def _process_record(self, state: _TraceState, record: CallRecord) -> None:
        analyzer = self._analyzer
        rule = state.rule
        trace = state.trace
        if record is trace.creation:
            self._by_name[trace.variable] = state
            state.live = True
        self._check_forbidden(rule, trace, record)
        event = analyzer._signatures[rule.simple_name].get(
            (record.method, len(record.args))
        )
        if event is None:
            state.tainted = True
            self._finding(
                FindingKind.TYPESTATE,
                f"call {record.method}/{len(record.args)} does not match any "
                "event of the rule",
                record.line,
                trace.variable,
                rule.class_name,
                column=record.column,
                end_line=record.end_line,
            )
            return
        state.saw_any_event = True
        state.labels.append(event.label)
        self._bind_arguments(state.env, event, record)
        self._note_forwarded(state, event, record)

        # Receiver-side REQUIRES (e.g. SecretKey: generated_key[this]).
        if not state.receiver_checked:
            state.receiver_checked = True
            self._check_this_requirements(state, record)

        if not state.walker.feed(event.label):
            if trace.from_parameter:
                # Parameters may arrive mid-protocol; restart silently
                # (in place — no fresh walker allocation per restart).
                state.walker.reset()
            else:
                state.tainted = True
                self._finding(
                    FindingKind.TYPESTATE,
                    f"event {event.label} ({record.method}) violates the "
                    "usage pattern",
                    record.line,
                    trace.variable,
                    rule.class_name,
                    column=record.column,
                    end_line=record.end_line,
                )

        self._check_constraints_incremental(state, record)
        self._check_required_predicates(state, event, record)
        if not state.tainted:
            self._grant_predicates(state, event, record)
        self._negate_predicates(state, event, record)
        self._track_product(state, record)

    def _track_product(self, state: _TraceState, record: CallRecord) -> None:
        """Factory products on *summary-created* receivers: the lifter
        only tracks products of receivers it knew were rule-covered, so
        a call on an object adopted from a callee summary has to create
        the product trace here."""
        if record.result_var is None or record.result_var in self._by_name:
            return
        product_class = self._analyzer._result_classes.get(
            (state.rule.simple_name, record.method, len(record.args))
        )
        if product_class is None:
            return
        if any(t.variable == record.result_var for t in self._ir.objects):
            return  # the lifter already tracked it
        product = ObjectTrace(
            variable=record.result_var,
            class_name=product_class,
            created_line=record.line,
            created_column=record.column,
            origin=state.trace.variable,
        )
        self._adopt(product)

    # -- checks --------------------------------------------------------

    def _check_forbidden(
        self, rule: crysl_ast.Rule, trace: ObjectTrace, record: CallRecord
    ) -> None:
        for forbidden in rule.forbidden:
            if forbidden.method_name != record.method:
                continue
            if len(forbidden.param_types) != len(record.args):
                continue
            hint = (
                f"; use {forbidden.alternative} instead"
                if forbidden.alternative
                else ""
            )
            self._finding(
                FindingKind.FORBIDDEN_METHOD,
                f"call to forbidden method {record.method}/"
                f"{len(record.args)}{hint}",
                record.line,
                trace.variable,
                rule.class_name,
                column=record.column,
                end_line=record.end_line,
            )

    @staticmethod
    def _bind_arguments(
        env: Environment, event: crysl_ast.Event, record: CallRecord
    ) -> None:
        for param, arg in zip(event.params, record.args):
            if param.is_wildcard or param.is_this:
                continue
            binding = Binding(
                param.name, BindingSource.TEMPLATE, template_expr=arg.expr
            )
            if arg.value is not None or arg.is_literal:
                binding.value = arg.value
            if arg.type_name is not None:
                binding.type_name = arg.type_name
            if arg.length is not None:
                binding.length = arg.length
            env.bind(binding)

    def _note_forwarded(
        self, state: _TraceState, event: crysl_ast.Event, record: CallRecord
    ) -> None:
        """Event parameters bound straight from this function's own
        parameters carry no local facts; exporting them in the summary
        lets a caller with a concrete value judge the constraints."""
        for param, arg in zip(event.params, record.args):
            if param.is_wildcard or param.is_this:
                continue
            if arg.is_literal or arg.value is not None or arg.length is not None:
                continue
            if arg.var is None or arg.var not in self._ir.param_names:
                continue
            index = self._ir.param_names.index(arg.var)
            key = (index, state.rule.simple_name, param.name)
            self._forwarded_seen.setdefault(key, tuple(state.labels))

    def _check_constraints_incremental(
        self, state: _TraceState, record: CallRecord
    ) -> None:
        evaluator = ConstraintEvaluator(
            state.env, state.rule, tuple(state.labels), self._analyzer._registry
        )
        for constraint in state.rule.constraints:
            text = str(constraint)
            if text in state.reported_constraints:
                continue
            if evaluator.evaluate(constraint) is False:
                state.reported_constraints.add(text)
                state.tainted = True
                self._finding(
                    FindingKind.CONSTRAINT,
                    f"constraint violated: {constraint}",
                    record.line,
                    state.trace.variable,
                    state.rule.class_name,
                    column=record.column,
                    end_line=record.end_line,
                )

    def _check_this_requirements(
        self, state: _TraceState, record: CallRecord
    ) -> None:
        if state.trace.from_parameter:
            # Unknown provenance locally: the obligation is pushed up
            # to every caller.
            if state.trace.variable in self._ir.param_names:
                index = self._ir.param_names.index(state.trace.variable)
                for group in state.rule.requires:
                    this_alternatives = [
                        alternative
                        for alternative in group.alternatives
                        if alternative.args
                        and alternative.args[0].value == "this"
                    ]
                    if this_alternatives:
                        self._requires_seen.add(
                            (
                                index,
                                tuple(a.name for a in this_alternatives),
                                state.rule.class_name,
                            )
                        )
            return
        for group in state.rule.requires:
            this_alternatives = [
                alternative
                for alternative in group.alternatives
                if alternative.args and alternative.args[0].value == "this"
            ]
            if not this_alternatives:
                continue
            satisfied = any(
                alternative.name in self._held.get(state.trace.variable, set())
                for alternative in this_alternatives
            )
            if not satisfied:
                state.tainted = True
                wanted = " || ".join(str(a) for a in this_alternatives)
                self._finding(
                    FindingKind.REQUIRED_PREDICATE,
                    f"required predicate not established on the object "
                    f"itself: {wanted}",
                    record.line,
                    state.trace.variable,
                    state.rule.class_name,
                    column=record.column,
                    end_line=record.end_line,
                )

    def _check_required_predicates(
        self, state: _TraceState, event: crysl_ast.Event, record: CallRecord
    ) -> None:
        ir = self._ir
        event_params = {
            param.name: arg
            for param, arg in zip(event.params, record.args)
            if not param.is_wildcard
        }
        for group in state.rule.requires:
            relevant: list[tuple[crysl_ast.PredicateUse, ArgFact]] = []
            for alternative in group.alternatives:
                subject = alternative.args[0].value if alternative.args else None
                if isinstance(subject, str) and subject in event_params:
                    relevant.append((alternative, event_params[subject]))
            if not relevant:
                continue
            satisfied = False
            judgeable = False
            for alternative, arg in relevant:
                holder = self._holder_name(arg)
                if holder is not None and alternative.name in self._held.get(
                    holder, set()
                ):
                    satisfied = True
                    break
                if arg.is_literal:
                    judgeable = True
                elif arg.value is not None or arg.length is not None:
                    # Locally determined at the call: a literal or a
                    # fresh buffer. A zero-filled ``bytearray(32)`` stays
                    # so until something rule-covered randomizes it,
                    # which is what the ``randomized`` predicate models.
                    judgeable = True
                elif (
                    arg.var is not None
                    and arg.var in self._by_name
                    and not self._by_name[arg.var].trace.from_parameter
                ):
                    judgeable = True
            if satisfied:
                continue
            if judgeable:
                state.tainted = True
                wanted = " || ".join(str(a) for a, _ in relevant)
                arguments = ", ".join(arg.expr for _, arg in relevant)
                self._finding(
                    FindingKind.REQUIRED_PREDICATE,
                    f"required predicate not established: {wanted} "
                    f"(argument: {arguments})",
                    record.line,
                    state.trace.variable,
                    state.rule.class_name,
                    column=record.column,
                    end_line=record.end_line,
                )
            else:
                # Unjudgeable because the argument is our own parameter:
                # the obligation moves to the caller.
                for alternative, arg in relevant:
                    if arg.var is None or arg.var not in ir.param_names:
                        continue
                    index = ir.param_names.index(arg.var)
                    names = tuple(
                        a.name for a, other in relevant if other.var == arg.var
                    )
                    self._requires_seen.add(
                        (index, names, state.rule.class_name)
                    )

    def _holder_name(self, arg: ArgFact) -> str | None:
        """The canonical name predicates for this argument live under."""
        if arg.var is None:
            return None
        state = self._by_name.get(arg.var)
        return state.trace.variable if state is not None else arg.var

    # -- predicates ----------------------------------------------------

    def _grant_predicates(
        self, state: _TraceState, event: crysl_ast.Event, record: CallRecord
    ) -> None:
        for ensured in state.rule.ensures:
            if ensured.after is not None:
                anchors = state.rule.expand_label(ensured.after)
                if event.label not in anchors:
                    continue
            target = self._predicate_target(ensured, event, record, state.trace)
            if target is not None:
                self._grant(target, ensured.name)
                state.granted[ensured.name] = target

    def _grant(self, target: str, name: str) -> None:
        self._held.setdefault(target, set()).add(name)
        if target in self._ir.param_names:
            index = self._ir.param_names.index(target)
            self._param_grants.setdefault(index, set()).add(name)

    def _negate_predicates(
        self, state: _TraceState, event: crysl_ast.Event, record: CallRecord
    ) -> None:
        for negated in state.rule.negates:
            anchored_here = any(
                ensured.name == negated.name
                and ensured.after is not None
                and event.label in state.rule.expand_label(ensured.after)
                for ensured in state.rule.ensures
            )
            if anchored_here:
                continue  # the granting event itself never negates
            target = self._predicate_target(negated, event, record, state.trace)
            if target is None:
                target = state.granted.get(negated.name)
            if target is not None and target in self._held:
                self._negate(target, negated.name)

    def _negate(self, target: str, name: str) -> None:
        self._held.get(target, set()).discard(name)
        if target in self._ir.param_names:
            index = self._ir.param_names.index(target)
            negations = self._param_negates.setdefault(index, [])
            if name not in negations:
                negations.append(name)
            self._param_grants.get(index, set()).discard(name)

    @staticmethod
    def _predicate_target(
        predicate: crysl_ast.PredicateUse,
        event: crysl_ast.Event,
        record: CallRecord,
        trace: ObjectTrace,
    ) -> str | None:
        if not predicate.args:
            return None
        subject = predicate.args[0].value
        if not isinstance(subject, str):
            return None
        if subject == "this":
            return trace.variable
        if event.result == subject:
            return record.result_var
        for param, arg in zip(event.params, record.args):
            if param.name == subject:
                return arg.var
        return None

    # -- interprocedural: applying a callee's summary -------------------

    def _process_helper(self, call: HelperCall) -> None:
        # A method call on an object we adopted from a callee summary:
        # the lifter saw an unknown receiver, but we know better now.
        if call.receiver is not None and call.receiver_class is None:
            state = self._by_name.get(call.receiver)
            if state is not None and state.live:
                record = CallRecord(
                    call.callee,
                    call.args,
                    call.line,
                    call.result_var,
                    call.seq,
                    column=call.column,
                    end_line=call.end_line,
                )
                self._process_record(state, record)
                return
        summary = self._interproc.summary_for(self._ir, call)
        if summary is None or summary.is_identity:
            return
        self._apply_summary(call, summary)

    def _apply_summary(self, call: HelperCall, summary: FunctionSummary) -> None:
        replay_failed: set[int] = set()
        for index, arg in enumerate(call.args):
            state = self._by_name.get(arg.var) if arg.var is not None else None
            effect = summary.param_effects.get(index)
            if (
                state is not None
                and effect is not None
                and effect.rule == state.rule.simple_name
            ):
                if not self._replay_labels(state, effect, call, summary):
                    replay_failed.add(index)
            self._check_obligations(index, arg, state, call, summary)
            if index not in replay_failed:
                for name in sorted(summary.param_grants.get(index, ())):
                    holder = self._holder_name(arg)
                    if holder is not None:
                        self._grant(holder, name)
            for name in summary.param_negates.get(index, ()):
                holder = self._holder_name(arg)
                if holder is not None:
                    self._negate(holder, name)
            self._check_forwarded_constraints(index, arg, call, summary)
        self._apply_return(call, summary)

    def _replay_labels(
        self,
        state: _TraceState,
        effect: ParamEffect,
        call: HelperCall,
        summary: FunctionSummary,
    ) -> bool:
        """Feed the callee's typestate labels into the caller's walker."""
        labels = effect.labels
        if not labels:
            return True
        state.saw_any_event = True
        state.labels.extend(labels)
        offset = 0
        while True:
            violation = state.walker.replay(
                labels[offset:] if offset else labels
            )
            if violation < 0:
                return True
            if state.trace.from_parameter:
                # Our own provenance is unknown too; restart past the
                # violating label, and let our caller judge the
                # combined label sequence.
                state.walker.reset()
                offset += violation + 1
                if offset >= len(labels):
                    return True
                continue
            state.tainted = True
            self._finding(
                FindingKind.TYPESTATE,
                f"call to {summary.qualname} violates the usage pattern "
                f"(replays event {labels[offset + violation]})",
                call.line,
                state.trace.variable,
                state.rule.class_name,
                column=call.column,
                end_line=call.end_line,
            )
            return False

    def _check_obligations(
        self,
        index: int,
        arg: ArgFact,
        state: _TraceState | None,
        call: HelperCall,
        summary: FunctionSummary,
    ) -> None:
        for req in summary.requires:
            if req.index != index:
                continue
            holder = self._holder_name(arg)
            satisfied = holder is not None and any(
                name in self._held.get(holder, set()) for name in req.predicates
            )
            if satisfied:
                continue
            judgeable = (
                arg.is_literal
                or arg.value is not None
                or arg.length is not None
                or (state is not None and not state.trace.from_parameter)
            )
            if judgeable:
                if state is not None:
                    state.tainted = True
                self._finding(
                    FindingKind.REQUIRED_PREDICATE,
                    f"required predicate not established: {req.detail} "
                    f"(argument: {arg.expr}, required by {summary.qualname})",
                    call.line,
                    arg.var or arg.expr,
                    req.rule,
                    column=call.column,
                    end_line=call.end_line,
                )
            elif arg.var is not None and arg.var in self._ir.param_names:
                self._requires_seen.add(
                    (
                        self._ir.param_names.index(arg.var),
                        req.predicates,
                        req.rule,
                    )
                )

    def _check_forwarded_constraints(
        self, index: int, arg: ArgFact, call: HelperCall, summary: FunctionSummary
    ) -> None:
        for fb in summary.forwarded:
            if fb.index != index:
                continue
            has_facts = (
                arg.is_literal or arg.value is not None or arg.length is not None
            )
            if not has_facts:
                if arg.var is not None and arg.var in self._ir.param_names:
                    self._forwarded_seen.setdefault(
                        (
                            self._ir.param_names.index(arg.var),
                            fb.rule,
                            fb.event_param,
                        ),
                        fb.labels,
                    )
                continue
            rule = self._analyzer._rules_by_simple.get(fb.rule)
            if rule is None:
                continue
            env = Environment()
            binding = Binding(
                fb.event_param, BindingSource.TEMPLATE, template_expr=arg.expr
            )
            if arg.value is not None or arg.is_literal:
                binding.value = arg.value
            if arg.type_name is not None:
                binding.type_name = arg.type_name
            if arg.length is not None:
                binding.length = arg.length
            env.bind(binding)
            evaluator = ConstraintEvaluator(
                env, rule, fb.labels, self._analyzer._registry
            )
            for constraint in rule.constraints:
                if evaluator.evaluate(constraint) is False:
                    self._finding(
                        FindingKind.CONSTRAINT,
                        f"constraint violated: {constraint} "
                        f"(argument {arg.expr} forwarded by {summary.qualname})",
                        call.line,
                        arg.var or arg.expr,
                        rule.class_name,
                        column=call.column,
                        end_line=call.end_line,
                    )

    def _apply_return(self, call: HelperCall, summary: FunctionSummary) -> None:
        if call.result_var is None or not summary.returns:
            return
        effect = summary.returns[0]
        if effect.param_source is not None:
            if effect.param_source < len(call.args):
                source = call.args[effect.param_source]
                if source.var is not None:
                    state = self._by_name.get(source.var)
                    if state is not None:
                        self._by_name[call.result_var] = state
            return
        trace = ObjectTrace(
            variable=call.result_var,
            class_name=effect.rule,
            created_line=call.line,
            created_column=call.column,
            origin=summary.qualname,
        )
        state = self._adopt(trace)
        state.tainted = effect.tainted
        if effect.labels:
            state.saw_any_event = True
            state.labels.extend(effect.labels)
            effect.replay_into(state.walker)
        if not effect.tainted:
            for name in sorted(effect.predicates):
                self._grant(call.result_var, name)

    # -- finalization ---------------------------------------------------

    def _finalize_trace(self, state: _TraceState) -> None:
        if state.trace.from_parameter or not state.saw_any_event:
            return
        if state.tainted and state.trace.origin is not None:
            return  # the producing function already reported the misuse
        if not state.walker.in_dead_state and not state.walker.in_accepting_state:
            expected = ", ".join(sorted(state.walker.expected_symbols())) or "<none>"
            subject = "object"
            if state.trace.origin is not None:
                subject = f"object returned by {state.trace.origin}"
            self._finding(
                FindingKind.INCOMPLETE_OPERATION,
                f"{subject} never reaches an accepting state; still expects "
                f"one of: {expected}",
                state.trace.created_line,
                state.trace.variable,
                state.rule.class_name,
                column=state.trace.created_column,
            )

    def _build_summary(self, returned: set[str]) -> None:
        summary = self._summary
        ir = self._ir
        for state in self._states:
            if (
                state.trace.from_parameter
                and state.trace.variable in ir.param_names
                and state.labels
            ):
                index = ir.param_names.index(state.trace.variable)
                summary.param_effects[index] = ParamEffect(
                    index=index,
                    rule=state.rule.simple_name,
                    labels=tuple(state.labels),
                )
        summary.param_grants = {
            index: frozenset(names)
            for index, names in sorted(self._param_grants.items())
            if names
        }
        summary.param_negates = {
            index: tuple(names)
            for index, names in sorted(self._param_negates.items())
            if names
        }
        summary.requires = tuple(
            ParamRequire(index=index, predicates=names, rule=rule,
                         detail=" || ".join(names))
            for index, names, rule in sorted(self._requires_seen)
        )
        summary.forwarded = tuple(
            ForwardedBinding(
                index=index, rule=rule, event_param=param,
                labels=self._forwarded_seen[(index, rule, param)],
            )
            for index, rule, param in sorted(self._forwarded_seen)
        )
        returns: list[ReturnEffect] = []
        for var in ir.returned_vars:
            state = self._by_name.get(var)
            if state is None:
                continue
            param_source: int | None = None
            if (
                state.trace.from_parameter
                and state.trace.variable in ir.param_names
            ):
                param_source = ir.param_names.index(state.trace.variable)
            returns.append(
                ReturnEffect(
                    rule=state.rule.simple_name,
                    labels=tuple(state.labels),
                    predicates=frozenset(
                        self._held.get(state.trace.variable, set())
                    ),
                    tainted=state.tainted,
                    param_source=param_source,
                )
            )
        summary.returns = tuple(returns)
