"""Template parsing: lifting fluent chains out of Python template files.

A CogniCryptGEN template is a *regular Python class* (paper §3.2) whose
methods mix glue code with fluent-API chains. As in the original —
which parses Java templates with the Eclipse JDT rather than executing
them — this module parses the template's AST, locates every
``CrySLCodeGenerator.get_instance()....generate()`` statement, and
extracts a :class:`~repro.codegen.fluent.GenerationRequest` per chain
along with simple static facts about the surrounding glue (declared
byte-array sizes, parameter annotations) that the constraint engine
uses for ``length[...]`` and ``instanceof`` reasoning.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field
from pathlib import Path

from ..predicates.instances import TemplateBinding
from ..pysource import parse
from .fluent import ConsideredRule, GenerationRequest


class TemplateError(Exception):
    """A template file is malformed with respect to the fluent protocol."""


#: Known symbolic constants templates may pass to ``add_parameter``.
#: Mirrors the JCA's Cipher mode constants (paper Figure 4 passes
#: ``Cipher.ENCRYPT_MODE``-style values through ``addParameter``).
SYMBOLIC_CONSTANTS: dict[str, int] = {
    "Cipher.ENCRYPT_MODE": 1,
    "Cipher.DECRYPT_MODE": 2,
    "Cipher.WRAP_MODE": 3,
    "Cipher.UNWRAP_MODE": 4,
    "Cipher.SECRET_KEY": 3,
}


@dataclass(frozen=True)
class TemplateFact:
    """What the glue code statically tells us about one template variable."""

    name: str
    type_name: str | None = None
    length: int | None = None
    value: object | None = None


@dataclass
class TemplateMethod:
    """One method of a template class."""

    name: str
    node: pyast.FunctionDef
    params: tuple[str, ...]
    chain: GenerationRequest | None = None
    chain_statement_index: int | None = None
    facts: dict[str, TemplateFact] = field(default_factory=dict)

    @property
    def has_chain(self) -> bool:
        return self.chain is not None


@dataclass
class TemplateClass:
    """One class in a template module."""

    name: str
    node: pyast.ClassDef
    methods: list[TemplateMethod] = field(default_factory=list)

    def chain_methods(self) -> list[TemplateMethod]:
        return [m for m in self.methods if m.has_chain]


@dataclass
class TemplateModel:
    """A parsed template module."""

    path: str
    source: str
    module: pyast.Module
    classes: list[TemplateClass] = field(default_factory=list)

    @property
    def primary_class(self) -> TemplateClass:
        for cls in self.classes:
            if cls.chain_methods():
                return cls
        raise TemplateError(f"{self.path}: no class contains a fluent chain")


# ---------------------------------------------------------------------------
# fact inference
# ---------------------------------------------------------------------------


def _annotation_type(annotation: pyast.expr | None) -> str | None:
    if annotation is None:
        return None
    text = pyast.unparse(annotation)
    return text


def _infer_fact(name: str, value: pyast.expr) -> TemplateFact:
    """Glue like ``salt = bytearray(32)`` yields type and length facts."""
    if isinstance(value, pyast.Call) and isinstance(value.func, pyast.Name):
        callee = value.func.id
        if callee in ("bytearray", "bytes") and value.args:
            arg = value.args[0]
            length = arg.value if isinstance(arg, pyast.Constant) and isinstance(arg.value, int) else None
            return TemplateFact(name, type_name=callee, length=length)
        if callee in ("bytearray", "bytes"):
            return TemplateFact(name, type_name=callee)
    if isinstance(value, pyast.Constant):
        constant = value.value
        if isinstance(constant, bytes):
            return TemplateFact(name, type_name="bytes", length=len(constant), value=constant)
        if isinstance(constant, bool):
            return TemplateFact(name, type_name="bool", value=constant)
        if isinstance(constant, int):
            return TemplateFact(name, type_name="int", value=constant)
        if isinstance(constant, str):
            return TemplateFact(name, type_name="str", length=len(constant), value=constant)
        if constant is None:
            return TemplateFact(name)  # declaration like `encryption_key = None`
    return TemplateFact(name)


def _collect_facts(function: pyast.FunctionDef) -> dict[str, TemplateFact]:
    facts: dict[str, TemplateFact] = {}
    for arg in function.args.args:
        if arg.arg in ("self", "cls"):
            continue
        facts[arg.arg] = TemplateFact(arg.arg, type_name=_annotation_type(arg.annotation))
    for statement in function.body:
        if isinstance(statement, pyast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, pyast.Name):
                facts[target.id] = _infer_fact(target.id, statement.value)
        elif isinstance(statement, pyast.AnnAssign) and isinstance(
            statement.target, pyast.Name
        ):
            fact = (
                _infer_fact(statement.target.id, statement.value)
                if statement.value is not None
                else TemplateFact(statement.target.id)
            )
            if fact.type_name is None:
                fact = TemplateFact(
                    fact.name,
                    type_name=_annotation_type(statement.annotation),
                    length=fact.length,
                    value=fact.value,
                )
            facts[statement.target.id] = fact
    return facts


# ---------------------------------------------------------------------------
# chain extraction
# ---------------------------------------------------------------------------


def _unwind_chain(call: pyast.Call) -> list[tuple[str, pyast.Call]] | None:
    """Flatten ``a().b().c()`` into [("a", call), ("b", call), ...].

    Returns None when the expression is not rooted at
    ``CrySLCodeGenerator.get_instance()``.
    """
    steps: list[tuple[str, pyast.Call]] = []
    node: pyast.expr = call
    while isinstance(node, pyast.Call) and isinstance(node.func, pyast.Attribute):
        steps.append((node.func.attr, node))
        node = node.func.value
    # The innermost step must be CrySLCodeGenerator.get_instance().
    if not steps:
        return None
    steps.reverse()
    first_name, first_call = steps[0]
    if first_name != "get_instance":
        return None
    root = first_call.func
    assert isinstance(root, pyast.Attribute)
    if not isinstance(root.value, pyast.Name) or root.value.id != "CrySLCodeGenerator":
        return None
    return steps[1:]  # drop get_instance itself


def _require_string(call: pyast.Call, position: int, what: str, where: str) -> str:
    if len(call.args) <= position:
        raise TemplateError(f"{where}: {what} missing")
    arg = call.args[position]
    if isinstance(arg, pyast.Constant) and isinstance(arg.value, str):
        return arg.value
    # JCA.SECURE_RANDOM-style enumeration members (paper §7).
    if isinstance(arg, pyast.Attribute):
        from .shorthand import RULE_CONSTANTS

        text = pyast.unparse(arg)
        if text in RULE_CONSTANTS:
            return RULE_CONSTANTS[text]
    raise TemplateError(
        f"{where}: {what} must be a string literal or a JCA enumeration member"
    )


def _binding_from_ast(
    call: pyast.Call, facts: dict[str, TemplateFact], where: str
) -> TemplateBinding:
    if len(call.args) != 2:
        raise TemplateError(f"{where}: add_parameter takes (expression, rule_var)")
    expr_node = call.args[0]
    rule_var = _require_string(call, 1, "the in-rule variable name", where)
    expr_text = pyast.unparse(expr_node)
    if isinstance(expr_node, pyast.Constant):
        return TemplateBinding(
            rule_var=rule_var,
            expr=expr_text,
            value=expr_node.value,
            is_literal=True,
            type_name=type(expr_node.value).__name__,
        )
    if isinstance(expr_node, pyast.Attribute) and expr_text in SYMBOLIC_CONSTANTS:
        return TemplateBinding(
            rule_var=rule_var,
            expr=expr_text,
            value=SYMBOLIC_CONSTANTS[expr_text],
            is_literal=True,
            type_name="int",
        )
    if isinstance(expr_node, pyast.Name):
        fact = facts.get(expr_node.id)
        binding = TemplateBinding(
            rule_var=rule_var,
            expr=expr_text,
            value=fact.value if fact else None,
            is_literal=False,
            type_name=fact.type_name if fact else None,
        )
        return binding
    # Arbitrary expressions (e.g. `pathlib.Path(x).read_bytes()`) pass
    # through opaquely; the generator treats them like unannotated names.
    return TemplateBinding(rule_var=rule_var, expr=expr_text)


def _request_from_chain(
    steps: list[tuple[str, pyast.Call]],
    facts: dict[str, TemplateFact],
    where: str,
) -> GenerationRequest:
    from .shorthand import FLUENT_ALIASES

    request = GenerationRequest(origin=where)
    steps = [(FLUENT_ALIASES.get(name, name), call) for name, call in steps]
    for name, call in steps:
        if name == "consider_crysl_rule":
            rule_name = _require_string(call, 0, "the rule name", where)
            request.considered.append(ConsideredRule(rule_name))
        elif name == "add_parameter":
            if not request.considered:
                raise TemplateError(
                    f"{where}: add_parameter before any consider_crysl_rule"
                )
            request.considered[-1].bindings.append(
                _binding_from_ast(call, facts, where)
            )
        elif name == "add_return_object":
            if not request.considered:
                raise TemplateError(
                    f"{where}: add_return_object before any consider_crysl_rule"
                )
            if (
                len(call.args) not in (1, 2)
                or not isinstance(call.args[0], pyast.Name)
            ):
                raise TemplateError(
                    f"{where}: add_return_object takes a template variable "
                    "and optionally an in-rule object name"
                )
            if len(call.args) == 2:
                rule_var = _require_string(call, 1, "the in-rule object name", where)
                request.considered[-1].output_bindings[rule_var] = call.args[0].id
            else:
                request.considered[-1].return_target = call.args[0].id
        elif name == "generate":
            if call is not steps[-1][1]:
                raise TemplateError(f"{where}: generate() must end the chain")
        else:
            raise TemplateError(f"{where}: unknown fluent call {name!r}")
    if not request.considered:
        raise TemplateError(f"{where}: empty fluent chain")
    if steps[-1][0] != "generate":
        raise TemplateError(f"{where}: fluent chain does not end in generate()")
    return request


# ---------------------------------------------------------------------------
# module parsing
# ---------------------------------------------------------------------------


def _parse_method(cls_name: str, function: pyast.FunctionDef) -> TemplateMethod:
    facts = _collect_facts(function)
    params = tuple(
        arg.arg for arg in function.args.args if arg.arg not in ("self", "cls")
    )
    method = TemplateMethod(function.name, function, params, facts=facts)
    for index, statement in enumerate(function.body):
        if not isinstance(statement, pyast.Expr):
            continue
        if not isinstance(statement.value, pyast.Call):
            continue
        steps = _unwind_chain(statement.value)
        if steps is None:
            continue
        where = f"{cls_name}.{function.name}"
        if method.chain is not None:
            raise TemplateError(f"{where}: more than one fluent chain in one method")
        method.chain = _request_from_chain(steps, facts, where)
        method.chain_statement_index = index
    return method


def parse_template_source(source: str, path: str = "<template>") -> TemplateModel:
    """Parse template source text into a :class:`TemplateModel`."""
    module = parse(source, path)
    model = TemplateModel(path=path, source=source, module=module)
    for node in module.body:
        if isinstance(node, pyast.ClassDef):
            template_class = TemplateClass(node.name, node)
            for item in node.body:
                if isinstance(item, pyast.FunctionDef):
                    template_class.methods.append(_parse_method(node.name, item))
            model.classes.append(template_class)
    return model


def decode_template(data: bytes, where: str) -> str:
    """Template bytes as text: strict UTF-8 with universal newlines, as
    ``Path.read_text(encoding="utf-8")`` reads them. Bytes that are not
    UTF-8 are a :class:`TemplateError`, so a bad file fails only its own
    request."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TemplateError(
            f"{where}: not UTF-8 at byte {exc.start} ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_template_file(path: str | Path) -> TemplateModel:
    """Parse a template module from disk."""
    path = Path(path)
    text = decode_template(path.read_bytes(), str(path))
    return parse_template_source(text, str(path))
