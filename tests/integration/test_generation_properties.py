"""Property tests over the whole generation pipeline.

For any well-formed template — arbitrary glue variable names, any of
the valid chain shapes — the generator must produce code that parses,
compiles, and passes the rule-driven analyzer. Randomised names probe
the emitter's collision handling (glue names shadowing instance
aliases, rule object names, or each other).
"""

from __future__ import annotations

import keyword

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import CrySLBasedCodeGenerator
from repro.crysl import bundled_ruleset
from repro.sast import ProjectAnalyzer

_GENERATOR = CrySLBasedCodeGenerator(bundled_ruleset())
_ANALYZER = ProjectAnalyzer(bundled_ruleset())


def _analyze(source, name):
    return _ANALYZER.analyze_sources({name: source}).modules[name]

_names = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name) and name != "self"
)
_distinct_names = st.lists(_names, min_size=4, max_size=4, unique=True)


def _hash_template(names):
    data, digest, method, cls = names
    return f'''
from repro.codegen.fluent import CrySLCodeGenerator


class C_{cls}:
    def m_{method}(self, {data}: bytes):
        {digest} = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.MessageDigest")
            .add_parameter({data}, "input_data")
            .add_return_object({digest})
            .generate())
        return {digest}
'''


def _pbe_template(names):
    pwd, salt, key, method = names
    return f'''
from repro.codegen.fluent import CrySLCodeGenerator


class Derive:
    def m_{method}(self, {pwd}: bytearray):
        {salt} = bytearray(32)
        {key} = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.SecureRandom")
            .add_parameter({salt}, "out")
            .consider_crysl_rule("repro.jca.PBEKeySpec")
            .add_parameter({pwd}, "password")
            .consider_crysl_rule("repro.jca.SecretKeyFactory")
            .consider_crysl_rule("repro.jca.SecretKey")
            .consider_crysl_rule("repro.jca.SecretKeySpec")
            .add_return_object({key})
            .generate())
        return {key}
'''


def _encrypt_template(names):
    key, data, out, iv = names
    return f'''
from repro.codegen.fluent import CrySLCodeGenerator
from repro.jca import Cipher, SecretKey


class Enc:
    def run(self, {key}: SecretKey, {data}: bytes):
        {out} = None
        {iv} = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.Cipher")
            .add_parameter(Cipher.ENCRYPT_MODE, "op_mode")
            .add_parameter({key}, "key")
            .add_parameter({data}, "input_data")
            .add_return_object({iv}, "iv_out")
            .add_return_object({out})
            .generate())
        return {iv} + {out}
'''


@pytest.mark.parametrize(
    "builder", [_hash_template, _pbe_template, _encrypt_template]
)
@settings(max_examples=20, deadline=None)
@given(names=_distinct_names)
def test_arbitrary_glue_names_generate_clean_code(builder, names):
    template = builder(names)
    module = _GENERATOR.generate_from_source(template, "fuzz.py")
    module.compile_check()
    result = _analyze(module.source, "fuzz.py")
    assert result.is_secure, result.render()


@settings(max_examples=10, deadline=None)
@given(names=_distinct_names)
def test_glue_names_shadowing_aliases(names):
    """Glue that already uses the generator's favourite names (aliases
    like `cipher`, results like `key_material`) must not collide."""
    _pwd, _salt, _key, method = names
    template = _pbe_template(
        ("secure_random", "pbe_key_spec", "key_material", method)
    )
    module = _GENERATOR.generate_from_source(template, "shadow.py")
    module.compile_check()
    assert _analyze(module.source, "shadow.py").is_secure
