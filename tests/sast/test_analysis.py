"""The analyzer: every finding kind, the paper's Figure 1, and the
clean bill for generated code."""

from __future__ import annotations

import pytest

from repro.sast import FindingKind, ProjectAnalyzer

PRELUDE = (
    "from repro.jca import Cipher, GCMParameterSpec, KeyGenerator, "
    "KeyPairGenerator, MessageDigest, PBEKeySpec, SecretKeyFactory, "
    "SecretKeySpec, SecureRandom, Signature\n"
)


def analyze(analyzer, body):
    return analyze_module(analyzer, PRELUDE + body, "snippet.py")


def analyze_module(analyzer, source, name):
    return analyzer.analyze_sources({name: source}).modules[name]


class TestTypestate:
    def test_missing_init_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f():\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    out = c.do_final(b'data')\n",
        )
        kinds = {f.kind for f in result.findings}
        assert FindingKind.TYPESTATE in kinds

    def test_unknown_method_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f():\n"
            "    md = MessageDigest.get_instance('SHA-256')\n"
            "    md.reset_hard()\n",
        )
        assert result.by_kind(FindingKind.TYPESTATE)

    def test_incomplete_operation(self, analyzer):
        """KeyGenerator initialised but never used to generate a key."""
        result = analyze(
            analyzer,
            "def f():\n"
            "    g = KeyGenerator.get_instance('AES')\n"
            "    g.init(128)\n",
        )
        (finding,) = result.by_kind(FindingKind.INCOMPLETE_OPERATION)
        assert "gk" in finding.message

    def test_parameter_objects_tolerated_mid_protocol(self, analyzer):
        result = analyze(
            analyzer,
            "def f(cipher: Cipher):\n"
            "    out = cipher.do_final(b'data')\n",
        )
        assert result.is_secure


class TestConstraints:
    def test_low_iteration_count(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd, salt):\n"
            "    spec = PBEKeySpec(pwd, salt, 100, 128)\n"
            "    spec.clear_password()\n",
        )
        (finding,) = result.by_kind(FindingKind.CONSTRAINT)
        assert "iteration_count" in finding.message

    def test_short_salt(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(8)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n",
        )
        assert any(
            "length[salt]" in f.message
            for f in result.by_kind(FindingKind.CONSTRAINT)
        )

    def test_weak_digest_algorithm(self, analyzer):
        result = analyze(
            analyzer,
            "def f():\n"
            "    md = MessageDigest.get_instance('MD5')\n"
            "    digest = md.digest(b'data')\n",
        )
        assert result.by_kind(FindingKind.CONSTRAINT)

    def test_weak_rsa_modulus(self, analyzer):
        result = analyze(
            analyzer,
            "def f():\n"
            "    g = KeyPairGenerator.get_instance('RSA')\n"
            "    g.initialize(1024)\n"
            "    pair = g.generate_key_pair()\n",
        )
        assert result.by_kind(FindingKind.CONSTRAINT)

    def test_ecb_mode_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f(key: SecretKey):\n"
            "    c = Cipher.get_instance('AES/ECB/PKCS5Padding')\n"
            "    c.init(1, key)\n"
            "    out = c.do_final(b'data')\n",
        )
        assert result.by_kind(FindingKind.CONSTRAINT)

    @pytest.mark.parametrize("number", [7, 8])  # hybrid_bytes, asymmetric_strings
    def test_pkcs1_padding_on_key_pair_keys_flagged(self, analyzer, number):
        """A ``get_public()``/``get_private()`` result is typed by the
        rule's declared ``repro.jca.PublicKey``/``PrivateKey`` though no
        rule covers those classes, so Cipher's ``instanceof`` guards
        apply to the generated RSA calls."""
        from repro.usecases import generate_use_case

        source = generate_use_case(number).source
        oaep = "RSA/ECB/OAEPWithSHA-256AndMGF1Padding"
        assert oaep in source
        result = analyze_module(
            analyzer, source.replace(oaep, "RSA/ECB/PKCS1Padding"), "m.py"
        )
        flagged = {
            f.function
            for f in result.by_kind(FindingKind.CONSTRAINT)
            if "instanceof[key, repro.jca.P" in f.message
        }
        assert {"encrypt", "decrypt"} <= {name.split(".")[-1] for name in flagged}

    def test_pkcs1_padding_on_local_key_pair_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f(data):\n"
            "    g = KeyPairGenerator.get_instance('RSA')\n"
            "    g.initialize(2048)\n"
            "    pair = g.generate_key_pair()\n"
            "    key = pair.get_public()\n"
            "    c = Cipher.get_instance('RSA/ECB/PKCS1Padding')\n"
            "    c.init(1, key)\n"
            "    out = c.do_final(data)\n",
        )
        (finding,) = result.by_kind(FindingKind.CONSTRAINT)
        assert "instanceof[key, repro.jca.PublicKey]" in finding.message

    def test_reassigned_key_drops_its_declared_type(self, analyzer):
        """Once ``key`` is rebound to a helper's secret key, the
        ``PublicKey`` type of its earlier value no longer applies."""
        result = analyze(
            analyzer,
            "def make_key():\n"
            "    g = KeyGenerator.get_instance('AES')\n"
            "    g.init(128)\n"
            "    k = g.generate_key()\n"
            "    return k\n"
            "def f(data):\n"
            "    g = KeyPairGenerator.get_instance('RSA')\n"
            "    g.initialize(2048)\n"
            "    pair = g.generate_key_pair()\n"
            "    key = pair.get_public()\n"
            "    key = make_key()\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    c.init(1, key)\n"
            "    out = c.do_final(data)\n",
        )
        assert not result.by_kind(FindingKind.CONSTRAINT), result.render()

    def test_unknowns_do_not_fire(self, analyzer):
        """Constraints over values the analysis cannot see stay silent
        (three-valued semantics)."""
        result = analyze(
            analyzer,
            "def f(pwd, salt, iterations):\n"
            "    spec = PBEKeySpec(pwd, salt, iterations, 128)\n"
            "    spec.clear_password()\n",
        )
        assert not result.by_kind(FindingKind.CONSTRAINT)


class TestRequiredPredicates:
    def test_constant_salt_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = b'0123456789abcdef'\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n",
        )
        assert any(
            "randomized" in f.message
            for f in result.by_kind(FindingKind.REQUIRED_PREDICATE)
        )

    def test_zero_buffer_salt_flagged(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"  # allocated but never randomized
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n",
        )
        assert result.by_kind(FindingKind.REQUIRED_PREDICATE)

    def test_randomized_salt_clean(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n",
        )
        assert result.is_secure

    FRESH_SALT = (
        "def fresh_salt():\n"
        "    salt = bytearray(32)\n"
        "    r = SecureRandom.get_instance('HMACDRBG')\n"
        "    r.next_bytes(salt)\n"
        "    return salt\n"
    )

    def test_salt_rebound_to_fresh_salt_clean(self, analyzer):
        """Rebinding drops the old buffer's length fact: the spec sees
        the helper's randomized 32-byte salt, not ``bytearray(8)``."""
        result = analyze(
            analyzer,
            self.FRESH_SALT + "def f(pwd):\n"
            "    salt = bytearray(8)\n"
            "    salt = fresh_salt()\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n",
        )
        messages = [f.message for f in result.findings]
        assert not any("length" in m or "randomized" in m for m in messages)

    def test_salt_rebound_after_the_call_keeps_its_findings(self, analyzer):
        """A salt judged at the call keeps the facts it had there, even
        when the variable is rebound later in the function."""
        result = analyze(
            analyzer,
            self.FRESH_SALT + "def f(pwd):\n"
            "    salt = bytearray(8)\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    salt = fresh_salt()\n",
        )
        kinds = sorted(f.kind.value for f in result.findings)
        assert kinds == [
            "constraint-violation",
            "incomplete-operation",
            "required-predicate",
        ], result.render()
        messages = " ".join(f.message for f in result.findings)
        assert "length[salt] >= 16" in messages
        assert "randomized[salt]" in messages

    def test_predicate_invalidated_by_clear_password(self, analyzer):
        """Using the spec *after* clear_password violates specced_key —
        the NEGATES semantics of Figure 2."""
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n"
            "    skf = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
            "    key = skf.generate_secret(spec)\n",
        )
        assert any(
            "specced_key" in f.message
            for f in result.by_kind(FindingKind.REQUIRED_PREDICATE)
        )

    def test_tainted_producer_does_not_grant(self, analyzer):
        """A PBEKeySpec with a violated constraint must not grant
        specced_key downstream."""
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec = PBEKeySpec(pwd, salt, 5, 128)\n"  # weak iterations
            "    spec.clear_password()\n"
            "    skf = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
            "    key = skf.generate_secret(spec)\n",
        )
        messages = " ".join(f.message for f in result.findings)
        assert "iteration_count" in messages
        assert "specced_key" in messages

    def test_unknown_provenance_waived(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd, stored):\n"
            "    salt = stored[:32]\n"
            "    spec = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec.clear_password()\n",
        )
        assert not result.by_kind(FindingKind.REQUIRED_PREDICATE)


class TestFigure1:
    """The paper's motivating example: all three misuses detected."""

    FIGURE_1 = (
        "def generate_key(pwd):\n"
        "    salt = b'\\x0f\\xf4\\x5e\\x00\\x0c\\x03\\xbf\\x49\\xff\\xac\\xdd'\n"
        "    spec = PBEKeySpec(pwd, salt, 100000, 256)\n"
        "    skf = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
        "    key = skf.generate_secret(spec)\n"
        "    key_material = key.get_encoded()\n"
        "    cipher_key = SecretKeySpec(key_material, 'AES')\n"
        "    return cipher_key\n"
    )

    @pytest.fixture(scope="class")
    def result(self, analyzer):
        return analyze(analyzer, self.FIGURE_1)

    def test_is_insecure(self, result):
        assert not result.is_secure

    def test_constant_salt_detected(self, result):
        assert any(
            "randomized" in f.message or "length[salt]" in f.message
            for f in result.findings
        )

    def test_missing_clear_password_detected(self, result):
        incomplete = result.by_kind(FindingKind.INCOMPLETE_OPERATION)
        assert any("cP" in f.message for f in incomplete)

    def test_misuse_cascade_reaches_downstream(self, result):
        assert any(
            "specced_key" in f.message
            for f in result.by_kind(FindingKind.REQUIRED_PREDICATE)
        )


class TestForbiddenMethods:
    def test_forbidden_signature_detected(self, tmp_path):
        """A custom rule with a FORBIDDEN section fires on exact
        signature matches."""
        from repro.crysl import RuleSet, parse_rule
        from repro.crysl.typecheck import check_rule

        rule = check_rule(
            parse_rule(
                "SPEC repro.jca.MessageDigest\n"
                "OBJECTS\n    str algorithm;\n    bytes input_data;\n    bytes digest;\n"
                "EVENTS\n    g1: this = get_instance(algorithm);\n"
                "    d1: digest = digest(input_data);\n"
                "ORDER\n    g1, d1\n"
                "FORBIDDEN\n    reset() => d1;\n"
            )
        )
        analyzer = ProjectAnalyzer(RuleSet([rule]))
        result = analyze_module(
            analyzer,
            "from repro.jca import MessageDigest\n"
            "def f():\n"
            "    md = MessageDigest.get_instance('SHA-256')\n"
            "    md.reset()\n"
            "    digest = md.digest(b'x')\n",
            "<module>",
        )
        forbidden = result.by_kind(FindingKind.FORBIDDEN_METHOD)
        assert forbidden
        assert "d1" in forbidden[0].message


class TestGeneratedCodeIsClean:
    @pytest.mark.parametrize("number", range(1, 12))
    def test_use_case_clean(self, analyzer, number):
        from repro.usecases import generate_use_case

        module = generate_use_case(number)
        result = analyze_module(analyzer, module.source, f"uc{number}")
        assert result.is_secure, result.render()

    def test_old_gen_output_clean(self, analyzer):
        from repro.oldgen import OldGenerator

        old = OldGenerator()
        for slug in old.supported_slugs():
            result = analyze_module(analyzer, old.generate(slug).source, slug)
            assert result.is_secure, f"{slug}: {result.render()}"


class TestReportRendering:
    def test_clean_render(self, analyzer):
        result = analyze(analyzer, "def f():\n    pass\n")
        assert "no misuses" in result.render()

    def test_finding_render_includes_context(self, analyzer):
        result = analyze(
            analyzer,
            "def f():\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    out = c.do_final(b'x')\n",
        )
        rendered = result.render()
        assert "repro.jca.Cipher" in rendered
        assert "line" in rendered
