"""Template parsing: chains lifted from the AST, glue facts inferred."""

from __future__ import annotations

import pytest

from repro.codegen.template import (
    TemplateError,
    parse_template_file,
    parse_template_source,
)

TEMPLATE = '''
"""A template module."""
from repro.codegen.fluent import CrySLCodeGenerator
from repro.jca import Cipher


class Worker:
    def helper(self):
        return 42

    def chain_method(self, pwd: bytearray, data: bytes):
        salt = bytearray(32)
        magic = 7
        name = "constant"
        out = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.SecureRandom")
            .add_parameter(salt, "out")
            .consider_crysl_rule("repro.jca.Cipher")
            .add_parameter(Cipher.ENCRYPT_MODE, "op_mode")
            .add_parameter(data, "input_data")
            .add_parameter(1000, "iteration_count")
            .add_return_object(out)
            .add_return_object(out, "iv_out")
            .generate())
        return out
'''


@pytest.fixture(scope="module")
def model():
    return parse_template_source(TEMPLATE, "worker.py")


class TestStructure:
    def test_classes_and_methods(self, model):
        (cls,) = model.classes
        assert cls.name == "Worker"
        assert [m.name for m in cls.methods] == ["helper", "chain_method"]

    def test_chain_detection(self, model):
        helper, chain = model.primary_class.methods
        assert not helper.has_chain
        assert chain.has_chain
        assert chain.chain_statement_index == 4  # after four glue assignments

    def test_primary_class(self, model):
        assert model.primary_class.name == "Worker"


class TestChainExtraction:
    def test_rule_order(self, model):
        chain = model.primary_class.methods[1].chain
        assert [c.rule_name for c in chain.considered] == [
            "repro.jca.SecureRandom",
            "repro.jca.Cipher",
        ]

    def test_name_binding_with_fact(self, model):
        chain = model.primary_class.methods[1].chain
        (salt_binding,) = chain.considered[0].bindings
        assert salt_binding.rule_var == "out"
        assert salt_binding.expr == "salt"
        assert salt_binding.type_name == "bytearray"

    def test_symbolic_constant_binding(self, model):
        chain = model.primary_class.methods[1].chain
        op_mode = chain.considered[1].bindings[0]
        assert op_mode.value == 1
        assert op_mode.is_literal
        assert op_mode.expr == "Cipher.ENCRYPT_MODE"

    def test_literal_binding(self, model):
        chain = model.primary_class.methods[1].chain
        literal = chain.considered[1].bindings[2]
        assert literal.value == 1000
        assert literal.is_literal

    def test_annotated_parameter_binding(self, model):
        chain = model.primary_class.methods[1].chain
        data = chain.considered[1].bindings[1]
        assert data.type_name == "bytes"

    def test_return_objects(self, model):
        chain = model.primary_class.methods[1].chain
        assert chain.considered[1].return_target == "out"
        assert chain.considered[1].output_bindings == {"iv_out": "out"}


class TestFacts:
    def test_buffer_fact(self, model):
        facts = model.primary_class.methods[1].facts
        assert facts["salt"].type_name == "bytearray"
        assert facts["salt"].length == 32

    def test_constant_facts(self, model):
        facts = model.primary_class.methods[1].facts
        assert facts["magic"].value == 7
        assert facts["name"].value == "constant"
        assert facts["name"].length == len("constant")

    def test_parameter_annotations(self, model):
        facts = model.primary_class.methods[1].facts
        assert facts["pwd"].type_name == "bytearray"

    def test_none_declaration(self, model):
        facts = model.primary_class.methods[1].facts
        assert facts["out"].type_name is None


class TestErrors:
    def _parse(self, body):
        return parse_template_source(
            "from repro.codegen.fluent import CrySLCodeGenerator\n"
            "class T:\n"
            f"    def m(self):\n{body}"
        )

    def test_unknown_fluent_call(self):
        with pytest.raises(TemplateError, match="unknown fluent call"):
            self._parse(
                "        (CrySLCodeGenerator.get_instance()"
                '.consider_crysl_rule("X").frobnicate().generate())\n'
            )

    def test_missing_generate(self):
        with pytest.raises(TemplateError, match="generate"):
            self._parse(
                "        (CrySLCodeGenerator.get_instance()"
                '.consider_crysl_rule("X").add_parameter(1, "y"))\n'
            )

    def test_add_parameter_before_consider(self):
        with pytest.raises(TemplateError, match="add_parameter before"):
            self._parse(
                "        (CrySLCodeGenerator.get_instance()"
                '.add_parameter(1, "y").generate())\n'
            )

    def test_rule_name_must_be_literal(self):
        with pytest.raises(TemplateError, match="string literal"):
            self._parse(
                "        name = 'X'\n"
                "        (CrySLCodeGenerator.get_instance()"
                ".consider_crysl_rule(name).generate())\n"
            )

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bin.py"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(TemplateError, match="not UTF-8 at byte 0"):
            parse_template_file(path)

    def test_two_chains_in_one_method_rejected(self):
        with pytest.raises(TemplateError, match="more than one"):
            self._parse(
                "        (CrySLCodeGenerator.get_instance()"
                '.consider_crysl_rule("X").generate())\n'
                "        (CrySLCodeGenerator.get_instance()"
                '.consider_crysl_rule("Y").generate())\n'
            )

    def test_non_chain_calls_ignored(self):
        model = self._parse("        print('no chain here')\n")
        assert not model.classes[0].methods[0].has_chain
