"""Deriving secure parameter values from CONSTRAINTS (paper §3.3, step 4).

When a method parameter matches neither a template object nor a
predicate-linked object, the generator "queries constraints from the
respective CrySL rule and fetches secure values from the first
appropriate constraint that it finds":

* ``var in {v1, ..., vN}`` → the *first* member that keeps the whole
  constraint set satisfiable (normally ``v1``; later members only when
  an implication such as the Cipher rule's ``instanceof`` guards rule
  out the head).
* ``var >= N`` → the *closest* satisfying value, i.e. ``N`` (and
  correspondingly ``N+1``/``N``/``N-1`` for ``>``, ``<=``, ``<``, and
  ``v`` for ``== v``).

Since all values in a CrySL rule ought to be secure, any satisfying
choice is acceptable (§3.3); first/closest makes generation
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crysl import ast
from .evaluate import ConstraintEvaluator
from .model import UNKNOWN, Binding, BindingSource, Environment
from .types import TypeRegistry


class UnderconstrainedError(Exception):
    """No constraint yields a value for the object (triggers push-up)."""

    def __init__(self, object_name: str, rule_name: str):
        self.object_name = object_name
        self.rule_name = rule_name
        super().__init__(
            f"{rule_name}: no constraint derives a value for {object_name!r}"
        )


class UnsatisfiableError(Exception):
    """The constraint set admits no value for the object."""

    def __init__(self, object_name: str, rule_name: str):
        self.object_name = object_name
        self.rule_name = rule_name
        super().__init__(
            f"{rule_name}: constraints on {object_name!r} are unsatisfiable"
        )


@dataclass(frozen=True)
class _Candidate:
    value: object
    #: Document which constraint produced the value (for provenance
    #: comments and the ablation benchmarks).
    origin: str


def _subject_name(expr: ast.ValueExpr) -> str | None:
    """The object a value expression directly constrains, if any."""
    if isinstance(expr, ast.ObjectRef):
        return expr.name
    return None


class ValueDeriver:
    """Derive values for unbound objects of one rule instance."""

    def __init__(
        self,
        rule: ast.Rule,
        env: Environment,
        path_labels: tuple[str, ...],
        registry: TypeRegistry | None = None,
        compiled=None,
    ):
        self._rule = rule
        self._env = env
        self._path_labels = path_labels
        self._registry = registry
        #: optional repro.crysl.compiled.CompiledRule: its pre-indexed
        #: CONSTRAINTS table narrows candidate collection to the
        #: constraints that actually mention the object being derived.
        self._compiled = compiled

    def _evaluator(self, env: Environment) -> ConstraintEvaluator:
        return ConstraintEvaluator(env, self._rule, self._path_labels, self._registry)

    # ------------------------------------------------------------------

    def _active_constraints(
        self, relevant: tuple[ast.ConstraintExpr, ...] | None = None
    ) -> list[ast.ConstraintExpr]:
        """Top-level constraints plus consequents of fired implications.

        An implication contributes its consequent when its antecedent
        currently evaluates to True (e.g. ``instanceof[key, SecretKey]``
        once the key is linked). Unknown antecedents contribute nothing
        — the paper's generator is conservative here. ``relevant``
        restricts the sweep to a subset of the rule's CONSTRAINTS (the
        compiled per-object index).
        """
        evaluator = self._evaluator(self._env)
        active: list[ast.ConstraintExpr] = []
        source = relevant if relevant is not None else self._rule.constraints
        for constraint in source:
            expr = constraint
            while isinstance(expr, ast.Implication):
                if evaluator.evaluate(expr.antecedent) is True:
                    expr = expr.consequent
                else:
                    expr = None  # type: ignore[assignment]
                    break
            if expr is not None:
                active.append(expr)
        return active

    def _candidates_for(self, object_name: str) -> list[_Candidate]:
        relevant = None
        if self._compiled is not None:
            relevant = self._compiled.constraints_mentioning(object_name)
        candidates: list[_Candidate] = []
        for constraint in self._active_constraints(relevant):
            candidates.extend(self._candidates_from(constraint, object_name))
        return candidates

    def _candidates_from(
        self, constraint: ast.ConstraintExpr, object_name: str
    ) -> list[_Candidate]:
        if isinstance(constraint, ast.InSet):
            if _subject_name(constraint.subject) == object_name:
                return [
                    _Candidate(literal.value, f"in-set {constraint}")
                    for literal in constraint.values
                ]
            return []
        if isinstance(constraint, ast.Comparison):
            return self._candidates_from_comparison(constraint, object_name)
        if isinstance(constraint, ast.BoolOp) and constraint.op == "&&":
            out: list[_Candidate] = []
            for operand in constraint.operands:
                out.extend(self._candidates_from(operand, object_name))
            return out
        return []

    def _candidates_from_comparison(
        self, constraint: ast.Comparison, object_name: str
    ) -> list[_Candidate]:
        # Normalise to "object OP literal".
        if (
            _subject_name(constraint.lhs) == object_name
            and isinstance(constraint.rhs, ast.Literal)
        ):
            op, bound = constraint.op, constraint.rhs.value
        elif (
            _subject_name(constraint.rhs) == object_name
            and isinstance(constraint.lhs, ast.Literal)
        ):
            bound = constraint.lhs.value
            flip = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}
            op = flip.get(constraint.op, constraint.op)
        else:
            return []
        origin = f"comparison {constraint}"
        if op == "==":
            return [_Candidate(bound, origin)]
        if not isinstance(bound, int):
            return []
        closest = {
            ">=": bound,
            ">": bound + 1,
            "<=": bound,
            "<": bound - 1,
        }.get(op)
        if closest is None:
            return []
        return [_Candidate(closest, origin)]

    # ------------------------------------------------------------------

    def derive(self, object_name: str) -> object:
        """Derive a value for ``object_name``; see module docstring."""
        candidates = self._candidates_for(object_name)
        if not candidates:
            raise UnderconstrainedError(object_name, self._rule.class_name)
        for candidate in candidates:
            trial = self._env.copy()
            trial.bind(
                Binding(
                    object_name,
                    BindingSource.DERIVED,
                    value=candidate.value,
                )
            )
            if self._evaluator(trial).evaluate_all(self._rule.constraints) is not False:
                return candidate.value
        raise UnsatisfiableError(object_name, self._rule.class_name)
