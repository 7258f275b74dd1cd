"""Secure-value derivation: first-of-set, closest value, implications."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Binding,
    BindingSource,
    Environment,
    UnderconstrainedError,
    UnsatisfiableError,
    ValueDeriver,
)
from repro.crysl import parse_rule


def _deriver(constraints, env=None, objects="int x;\n str s;", labels=("e",)):
    rule = parse_rule(
        f"SPEC a.B\nOBJECTS\n {objects}\nEVENTS\n e: m(x, s);\nORDER\n e\n"
        f"CONSTRAINTS\n {constraints}"
    )
    return ValueDeriver(rule, env or Environment(), labels)


class TestInSetDerivation:
    def test_first_member_wins(self):
        assert _deriver("x in {128, 256, 192};").derive("x") == 128

    def test_order_is_semantic(self):
        """§4: the authors re-ordered value sets to steer selection."""
        assert _deriver("x in {256, 128};").derive("x") == 256

    def test_string_sets(self):
        assert _deriver('s in {"AES", "DES"};').derive("s") == "AES"

    def test_later_member_when_head_conflicts(self):
        deriver = _deriver("x in {128, 256};\n x >= 200;")
        assert deriver.derive("x") == 256


class TestClosestValue:
    @pytest.mark.parametrize(
        "constraint,expected",
        [
            ("x >= 10000;", 10000),
            ("x > 10000;", 10001),
            ("x <= 7;", 7),
            ("x < 7;", 6),
            ("x == 42;", 42),
            ("10000 <= x;", 10000),  # flipped operand order
        ],
    )
    def test_closest_satisfying(self, constraint, expected):
        assert _deriver(constraint).derive("x") == expected


class TestImplications:
    def test_consequent_active_when_antecedent_true(self):
        env = Environment()
        env.bind(Binding("s", BindingSource.TEMPLATE, value="AES"))
        deriver = _deriver('s == "AES" => x in {128};', env)
        assert deriver.derive("x") == 128

    def test_consequent_inactive_when_antecedent_unknown(self):
        deriver = _deriver('s == "AES" => x in {128};')
        with pytest.raises(UnderconstrainedError):
            deriver.derive("x")

    def test_consequent_inactive_when_antecedent_false(self):
        env = Environment()
        env.bind(Binding("s", BindingSource.TEMPLATE, value="DES"))
        deriver = _deriver('s == "AES" => x in {128};', env)
        with pytest.raises(UnderconstrainedError):
            deriver.derive("x")

    def test_chained_implication(self):
        env = Environment()
        env.bind(Binding("s", BindingSource.TEMPLATE, value="AES"))
        deriver = _deriver('s == "AES" => s == "AES" => x in {192};', env)
        assert deriver.derive("x") == 192


class TestFailureModes:
    def test_underconstrained(self):
        with pytest.raises(UnderconstrainedError) as excinfo:
            _deriver("x >= 1;").derive("s")
        assert "s" in str(excinfo.value)

    def test_unsatisfiable(self):
        with pytest.raises(UnsatisfiableError):
            _deriver("x in {5};\n x >= 10;").derive("x")


class TestCipherRule:
    """The real Cipher rule's instanceof-guarded derivation."""

    def test_symmetric_key_selects_gcm(self, ruleset):
        rule = ruleset.get("Cipher")
        env = Environment()
        env.bind(Binding("key", BindingSource.PREDICATE, type_name="repro.jca.SecretKey"))
        env.bind(Binding("op_mode", BindingSource.TEMPLATE, value=1))
        deriver = ValueDeriver(rule, env, ("g1", "i1", "f1"))
        assert deriver.derive("transformation") == "AES/GCM/NoPadding"

    def test_public_key_selects_oaep(self, ruleset):
        rule = ruleset.get("Cipher")
        env = Environment()
        env.bind(Binding("key", BindingSource.PREDICATE, type_name="repro.jca.PublicKey"))
        env.bind(Binding("op_mode", BindingSource.TEMPLATE, value=3))
        deriver = ValueDeriver(rule, env, ("g1", "i1", "w1"))
        assert deriver.derive("transformation").startswith("RSA/ECB/OAEP")

    def test_public_key_with_decrypt_mode_unsatisfiable(self, ruleset):
        """The §4 extension: public keys cannot decrypt/unwrap."""
        from repro.constraints import ConstraintEvaluator

        rule = ruleset.get("Cipher")
        env = Environment()
        env.bind(Binding("key", BindingSource.PREDICATE, type_name="repro.jca.PublicKey"))
        env.bind(Binding("op_mode", BindingSource.TEMPLATE, value=4))
        evaluator = ConstraintEvaluator(env, rule, ("g1", "i1", "uw1"))
        assert evaluator.evaluate_all(rule.constraints) is False
