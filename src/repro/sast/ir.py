"""A mini-IR for the analyzer: per-function object traces.

Within each function the lifter tracks every object created through a
rule-covered class (constructor or ``Class.factory(...)`` call),
follows aliases, and records the ordered method calls on each object
together with statically-evident facts about the arguments.

Beyond the rule-covered traces, the lifter also records **helper
calls** — calls whose receiver is *not* a rule-covered object: bare
function calls, ``self.method(...)``, and method calls on instances of
project-defined classes. The whole-project analyzer
(:mod:`repro.sast.project`) resolves them through the call graph and
applies the callee's summary, which is how tracked objects flow through
wrapper methods and ``template_usage()``.

Aliasing is object-based: every variable name is *bound* to the
:class:`ObjectTrace` it currently denotes, so ``alias = c`` followed by
a reassignment of ``c`` keeps both objects tracked independently
(``FunctionIR.objects`` holds every object ever created; ``traces`` is
the final name → object view).
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ArgFact:
    """What is statically known about one call argument."""

    expr: str
    value: object | None = None
    is_literal: bool = False
    #: variable name when the argument is a plain name
    var: str | None = None
    #: inferred type ("bytes", "bytearray", a class simple name, ...)
    type_name: str | None = None
    #: inferred element count for buffers
    length: int | None = None


@dataclass
class CallRecord:
    """One method call observed on a tracked object."""

    method: str
    args: tuple[ArgFact, ...]
    line: int
    #: variable receiving the call's result, if any
    result_var: str | None = None
    #: global statement order within the function (for interleaving
    #: traces correctly during analysis)
    seq: int = 0
    #: 1-based column of the call expression (0 = unknown)
    column: int = 0
    #: last source line of the call expression
    end_line: int | None = None


@dataclass(eq=False)
class ObjectTrace:
    """The life of one tracked object inside a function."""

    variable: str
    class_name: str  # simple name, e.g. "Cipher"
    created_line: int
    #: constructor/factory arguments (the creation call's args)
    creation: CallRecord | None = None
    calls: list[CallRecord] = field(default_factory=list)
    #: True when the object entered the function as a parameter — its
    #: earlier history is unknown, so typestate starts mid-protocol.
    from_parameter: bool = False
    #: 1-based column of the creating expression (0 = unknown)
    created_column: int = 0
    #: name of the helper call that produced this object, when it was
    #: adopted from a callee's summary
    origin: str | None = None


@dataclass
class HelperCall:
    """A call on a receiver that is not a rule-covered object.

    The whole-project analyzer resolves these through the call graph:
    ``receiver_class`` names the (project-defined) class of the
    receiver when it is statically evident, ``receiver`` the receiver
    variable (``"self"`` inside methods), both ``None`` for bare
    function calls.
    """

    callee: str
    args: tuple[ArgFact, ...]
    line: int
    receiver: str | None = None
    receiver_class: str | None = None
    result_var: str | None = None
    seq: int = 0
    column: int = 0
    end_line: int | None = None


@dataclass
class FunctionIR:
    """All traces plus local constant/type facts for one function."""

    name: str
    #: final variable → object view (includes aliases); use ``objects``
    #: to enumerate every tracked object exactly once
    traces: dict[str, ObjectTrace] = field(default_factory=dict)
    #: local name -> constant value (int/str/bytes literals)
    constants: dict[str, object] = field(default_factory=dict)
    #: local name -> inferred type name
    types: dict[str, str] = field(default_factory=dict)
    #: local name -> inferred buffer length
    lengths: dict[str, int] = field(default_factory=dict)
    #: result variable -> (producer variable, method) for dataflow
    results: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: every tracked object, in creation order (aliases deduplicated)
    objects: list[ObjectTrace] = field(default_factory=list)
    #: calls on non-rule-covered receivers, in program order
    helper_calls: list[HelperCall] = field(default_factory=list)
    #: local name -> project class it instantiates
    instances: dict[str, str] = field(default_factory=dict)
    #: canonical names of values returned by the function
    returned_vars: list[str] = field(default_factory=list)
    #: positional parameter names, excluding self/cls
    param_names: tuple[str, ...] = ()
    #: "Class.method" inside classes, else the bare name
    qualname: str = ""
    owner_class: str | None = None
    module: str = "<module>"
    file: str = "<module>"
    line: int = 0
    #: last source line of the function definition (0 = unknown)
    end_line: int = 0


class _FunctionLifter:
    """Build the IR for one function body.

    ``result_classes`` maps ``(receiver class, method, arity)`` to the
    class of the call's result when that result is itself rule-covered
    (e.g. ``SecretKeyFactory.generate_secret`` yields a ``SecretKey``),
    so factory products become tracked objects too. ``result_types``
    maps the same keys to the result's declared type, rule-covered or
    not: a ``KeyPair.get_public()`` result is typed
    ``repro.jca.PublicKey``, which ``instanceof`` constraints read.
    """

    def __init__(
        self,
        function: pyast.FunctionDef,
        tracked_classes: set[str],
        result_classes: dict[tuple[str, str, int], str] | None = None,
        *,
        result_types: dict[tuple[str, str, int], str] | None = None,
        owner: str | None = None,
        project_classes: frozenset[str] = frozenset(),
        module_name: str = "<module>",
        file: str = "<module>",
    ):
        self._function = function
        self._tracked = tracked_classes
        self._result_classes = result_classes or {}
        self._result_types = result_types or {}
        self._owner = owner
        self._project_classes = project_classes
        self._ir = FunctionIR(
            function.name,
            qualname=f"{owner}.{function.name}" if owner else function.name,
            owner_class=owner,
            module=module_name,
            file=file,
            line=function.lineno,
            end_line=getattr(function, "end_lineno", None) or function.lineno,
        )
        self._bindings: dict[str, ObjectTrace] = {}  # name -> current object
        self._aliases: dict[str, str] = {}  # alias -> canonical plain name
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def lift(self) -> FunctionIR:
        params: list[str] = []
        for arg in self._function.args.args:
            if arg.arg in ("self", "cls"):
                continue
            params.append(arg.arg)
            if arg.annotation is not None:
                annotation = pyast.unparse(arg.annotation)
                self._ir.types[arg.arg] = annotation
                if annotation in self._tracked:
                    trace = ObjectTrace(
                        variable=arg.arg,
                        class_name=annotation,
                        created_line=self._function.lineno,
                        from_parameter=True,
                    )
                    self._ir.objects.append(trace)
                    self._bindings[arg.arg] = trace
                elif annotation in self._project_classes:
                    self._ir.instances[arg.arg] = annotation
        self._ir.param_names = tuple(params)
        for statement in self._function.body:
            self._statement(statement)
        self._ir.traces = dict(self._bindings)
        return self._ir

    # ------------------------------------------------------------------

    def _canonical(self, name: str) -> str:
        seen = set()
        while (
            name in self._aliases
            and name not in seen
            and name not in self._bindings
        ):
            seen.add(name)
            name = self._aliases[name]
        return name

    def _trace_for(self, name: str) -> ObjectTrace | None:
        return self._bindings.get(self._canonical(name))

    def _statement(self, statement: pyast.stmt) -> None:
        if isinstance(statement, pyast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, pyast.Name):
                self._assignment(target.id, statement.value, statement.lineno)
                return
        if isinstance(statement, pyast.Expr):
            self._expression(statement.value, None, statement.lineno)
            return
        if isinstance(statement, pyast.Return) and statement.value is not None:
            if isinstance(statement.value, pyast.Name):
                trace = self._trace_for(statement.value.id)
                self._ir.returned_vars.append(
                    trace.variable
                    if trace is not None
                    else self._canonical(statement.value.id)
                )
            else:
                self._expression(statement.value, None, statement.lineno)
            return
        if isinstance(statement, (pyast.If, pyast.For, pyast.While, pyast.With, pyast.Try)):
            # Conservative: analyze nested bodies in order. Branch
            # sensitivity is out of scope (as it is for the paper's
            # generated straight-line code).
            for body_field in ("body", "orelse", "finalbody"):
                for child in getattr(statement, body_field, []) or []:
                    self._statement(child)

    def _assignment(self, target: str, value: pyast.expr, line: int) -> None:
        # The old value's facts go with it; the new value sets its own.
        self._ir.types.pop(target, None)
        self._ir.constants.pop(target, None)
        self._ir.lengths.pop(target, None)
        if isinstance(value, pyast.Name):
            trace = self._trace_for(value.id)
            if trace is not None:
                # Object alias: both names denote the same trace.
                self._bindings[target] = trace
                self._aliases.pop(target, None)
            else:
                self._aliases[target] = self._canonical(value.id)
                self._bindings.pop(target, None)
            return
        # Any non-name reassignment kills an old alias meaning.
        self._aliases.pop(target, None)
        fact = _infer_literal(value)
        if fact is not None:
            if fact.value is not None:
                self._ir.constants[target] = fact.value
            if fact.type_name is not None:
                self._ir.types[target] = fact.type_name
            if fact.length is not None:
                self._ir.lengths[target] = fact.length
        if isinstance(value, pyast.Call):
            # Resolve the call (its receiver may be the target's old
            # binding), then drop the old binding unless the call
            # re-bound the target to a fresh tracked object.
            before = self._bindings.get(target)
            self._expression(value, target, line)
            if before is not None and self._bindings.get(target) is before:
                self._bindings.pop(target, None)
        else:
            self._bindings.pop(target, None)

    def _expression(
        self, expr: pyast.expr, result_var: str | None, line: int
    ) -> None:
        if not isinstance(expr, pyast.Call):
            return
        func = expr.func
        args = tuple(self._arg_fact(a) for a in expr.args)
        column = expr.col_offset + 1
        end_line = getattr(expr, "end_lineno", None) or line
        # Class(args) — constructor of a tracked class.
        if isinstance(func, pyast.Name):
            if func.id in self._tracked:
                if result_var is not None:
                    record = CallRecord(
                        func.id, args, line, result_var, self._next_seq(),
                        column=column, end_line=end_line,
                    )
                    self._new_trace(result_var, func.id, record, line, column)
                return
            if func.id in self._project_classes:
                # Instantiation of a project-defined class (a wrapper).
                if result_var is not None:
                    self._ir.instances[result_var] = func.id
                    self._ir.types[result_var] = func.id
                    self._bindings.pop(result_var, None)
                return
            self._helper(
                func.id, None, None, args, line, column, end_line, result_var
            )
            return
        if isinstance(func, pyast.Attribute):
            base = func.value
            if not isinstance(base, pyast.Name):
                return  # chained/nested receivers are glue
            # Class.factory(args)
            if base.id in self._tracked:
                if result_var is not None:
                    record = CallRecord(
                        func.attr, args, line, result_var, self._next_seq(),
                        column=column, end_line=end_line,
                    )
                    self._new_trace(result_var, base.id, record, line, column)
                return
            # receiver.method(args) on a tracked object
            trace = self._trace_for(base.id)
            if trace is not None:
                record = CallRecord(
                    func.attr, args, line, result_var, self._next_seq(),
                    column=column, end_line=end_line,
                )
                trace.calls.append(record)
                if result_var is not None:
                    self._ir.results[result_var] = (trace.variable, func.attr)
                    event = (trace.class_name, func.attr, len(args))
                    declared = self._result_types.get(event)
                    if declared is not None:
                        self._ir.types[result_var] = declared
                    result_class = self._result_classes.get(event)
                    if result_class is not None:
                        # A rule-covered factory product: track it
                        # (with no creation event of its own).
                        product = ObjectTrace(
                            variable=result_var,
                            class_name=result_class,
                            created_line=line,
                            created_column=column,
                        )
                        self._ir.objects.append(product)
                        self._bindings[result_var] = product
                        self._ir.types[result_var] = result_class
                return
            # receiver.method(args) on a non-tracked receiver
            receiver: str | None
            receiver_class: str | None
            if base.id == "self" and self._owner is not None:
                receiver, receiver_class = "self", self._owner
            elif base.id in self._ir.instances:
                receiver, receiver_class = base.id, self._ir.instances[base.id]
            elif self._ir.types.get(base.id) in self._project_classes:
                receiver, receiver_class = base.id, self._ir.types[base.id]
            elif base.id in self._project_classes:
                # Static-style call on a project class.
                receiver, receiver_class = None, base.id
            else:
                receiver, receiver_class = self._canonical(base.id), None
            self._helper(
                func.attr, receiver, receiver_class, args, line, column,
                end_line, result_var,
            )

    def _new_trace(
        self,
        var: str,
        class_name: str,
        record: CallRecord,
        line: int,
        column: int,
    ) -> None:
        trace = ObjectTrace(
            variable=var,
            class_name=class_name,
            created_line=line,
            creation=record,
            created_column=column,
        )
        self._ir.objects.append(trace)
        self._bindings[var] = trace
        self._aliases.pop(var, None)
        self._ir.types[var] = class_name

    def _helper(
        self,
        callee: str,
        receiver: str | None,
        receiver_class: str | None,
        args: tuple[ArgFact, ...],
        line: int,
        column: int,
        end_line: int | None,
        result_var: str | None,
    ) -> None:
        self._ir.helper_calls.append(
            HelperCall(
                callee=callee,
                args=args,
                line=line,
                receiver=receiver,
                receiver_class=receiver_class,
                result_var=result_var,
                seq=self._next_seq(),
                column=column,
                end_line=end_line,
            )
        )

    def _arg_fact(self, node: pyast.expr) -> ArgFact:
        expr_text = pyast.unparse(node)
        literal = _infer_literal(node)
        if literal is not None and literal.is_literal:
            return ArgFact(
                expr=expr_text,
                value=literal.value,
                is_literal=True,
                type_name=literal.type_name,
                length=literal.length,
            )
        if isinstance(node, pyast.Name):
            trace = self._trace_for(node.id)
            name = trace.variable if trace is not None else self._canonical(node.id)
            return ArgFact(
                expr=expr_text,
                var=name,
                value=self._ir.constants.get(name),
                type_name=self._ir.types.get(name),
                length=self._ir.lengths.get(name),
            )
        if isinstance(node, pyast.Attribute):
            # Symbolic constants like Cipher.ENCRYPT_MODE.
            from ..codegen.template import SYMBOLIC_CONSTANTS

            if expr_text in SYMBOLIC_CONSTANTS:
                return ArgFact(
                    expr=expr_text,
                    value=SYMBOLIC_CONSTANTS[expr_text],
                    is_literal=True,
                    type_name="int",
                )
        return ArgFact(expr=expr_text)


@dataclass(frozen=True)
class _LiteralFact:
    value: object | None
    type_name: str | None
    length: int | None
    is_literal: bool


def _infer_literal(node: pyast.expr) -> _LiteralFact | None:
    if isinstance(node, pyast.Constant):
        value = node.value
        type_name = type(value).__name__ if value is not None else None
        length = len(value) if isinstance(value, (str, bytes)) else None
        return _LiteralFact(value, type_name, length, True)
    if isinstance(node, pyast.Call) and isinstance(node.func, pyast.Name):
        if node.func.id in ("bytes", "bytearray"):
            length = None
            if node.args and isinstance(node.args[0], pyast.Constant) and isinstance(
                node.args[0].value, int
            ):
                length = node.args[0].value
            return _LiteralFact(None, node.func.id, length, False)
    if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
        inner = _infer_literal(node.operand)
        if inner is not None and isinstance(inner.value, int):
            return _LiteralFact(-inner.value, "int", None, True)
    return None


def lift_module(
    module: pyast.Module,
    tracked_classes: set[str],
    result_classes: dict[tuple[str, str, int], str] | None = None,
    *,
    result_types: dict[tuple[str, str, int], str] | None = None,
    project_classes: frozenset[str] = frozenset(),
    module_name: str = "<module>",
    file: str = "<module>",
) -> list[FunctionIR]:
    """Lift every function and method in a module into the IR."""
    out: list[FunctionIR] = []

    def visit_body(body: list[pyast.stmt], owner: str | None) -> None:
        for node in body:
            if isinstance(node, pyast.FunctionDef):
                out.append(
                    _FunctionLifter(
                        node,
                        tracked_classes,
                        result_classes,
                        result_types=result_types,
                        owner=owner,
                        project_classes=project_classes,
                        module_name=module_name,
                        file=file,
                    ).lift()
                )
            elif isinstance(node, pyast.ClassDef):
                visit_body(node.body, node.name)

    visit_body(module.body, None)
    return out
