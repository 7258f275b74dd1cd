"""The paper's running example, end to end: Figure 4 template in,
Figure 5 code out, executed against the provider, re-checked by the
analyzer — the full Figure 6 workflow with observable artefacts at
every step."""

from __future__ import annotations

import pytest

from repro.codegen import parse_template_file
from repro.predicates import compute_links
from repro.usecases import use_case


@pytest.fixture(scope="module")
def pbe_module(generator):
    return generator.generate_from_file(use_case(3).template_path())


class TestFigure6Steps:
    """Each pipeline step leaves an inspectable artefact."""

    def test_step1_collect(self, ruleset):
        model = parse_template_file(use_case(3).template_path())
        chain = model.primary_class.methods[0].chain
        assert [c.rule_name.rsplit(".", 1)[-1] for c in chain.considered] == [
            "SecureRandom",
            "PBEKeySpec",
            "SecretKeyFactory",
            "SecretKey",
            "SecretKeySpec",
        ]
        instances = chain.to_instances(ruleset)
        assert instances[0].bindings["out"].expr == "salt"

    def test_step2_link(self, ruleset):
        model = parse_template_file(use_case(3).template_path())
        instances = model.primary_class.methods[0].chain.to_instances(ruleset)
        predicates = {link.predicate for link in compute_links(instances)}
        assert predicates == {
            "randomized",
            "specced_key",
            "generated_key",
            "key_material",
        }

    def test_steps3_4_select_and_resolve(self, pbe_module):
        report = pbe_module.reports[0]
        pbe_plan = report.plan.instances[1]
        assert pbe_plan.labels == ("c1", "cP")
        assert pbe_plan.env.value_of("iteration_count") == 10000

    def test_step5_assemble(self, pbe_module):
        assert "PBEKeySpec(pwd, salt, 10000, 128)" in pbe_module.source
        assert pbe_module.source.rstrip().count("class ") == 2


class TestExecution:
    def test_key_generation_wipes_password(self, pbe_module, project):
        loaded = project.write_and_load(pbe_module, "pbe")
        password = bytearray(b"a very secret password")
        key = loaded.SecureBytesEncryptor().generate_key(password)
        assert key.get_algorithm() == "AES"
        assert password == bytearray(len(b"a very secret password"))

    def test_encryption_roundtrip(self, pbe_module, project):
        loaded = project.write_and_load(pbe_module, "pbe")
        encryptor = loaded.SecureBytesEncryptor()
        key = encryptor.generate_key(bytearray(b"pw"))
        blob = encryptor.encrypt(key, b"binary \x00 payload")
        assert encryptor.decrypt(key, blob) == b"binary \x00 payload"

    def test_same_password_different_keys(self, pbe_module, project):
        """Fresh salts: two derivations of the same password differ."""
        loaded = project.write_and_load(pbe_module, "pbe")
        encryptor = loaded.SecureBytesEncryptor()
        key_a = encryptor.generate_key(bytearray(b"pw"))
        key_b = encryptor.generate_key(bytearray(b"pw"))
        assert key_a.get_encoded() != key_b.get_encoded()

    def test_ciphertexts_are_randomized(self, pbe_module, project):
        loaded = project.write_and_load(pbe_module, "pbe")
        encryptor = loaded.SecureBytesEncryptor()
        key = encryptor.generate_key(bytearray(b"pw"))
        assert encryptor.encrypt(key, b"same") != encryptor.encrypt(key, b"same")


class TestValidity:
    def test_compiler_and_analyzer_accept(self, pbe_module, analyzer):
        pbe_module.compile_check()
        result = analyzer.analyze_sources({"pbe": pbe_module.source}).modules["pbe"]
        assert result.is_secure, result.render()
