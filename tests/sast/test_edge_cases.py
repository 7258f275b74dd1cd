"""Analyzer edge cases: interleaved NEGATES across objects, aliasing
under reassignment, and FORBIDDEN methods with aggregate alternatives."""

from __future__ import annotations

from repro.crysl import RuleSet, parse_rule
from repro.crysl.typecheck import check_rule
from repro.sast import FindingKind, ProjectAnalyzer

PRELUDE = (
    "from repro.jca import Cipher, MessageDigest, PBEKeySpec, "
    "SecretKeyFactory, SecureRandom\n"
)


def analyze(analyzer, body):
    return analyze_module(analyzer, PRELUDE + body, "snippet.py")


def analyze_module(analyzer, source, name="<module>"):
    return analyzer.analyze_sources({name: source}).modules[name]


class TestInterleavedNegates:
    """NEGATES is per object: clearing one PBEKeySpec must not revoke
    (or preserve) the predicate of the *other* one."""

    def test_negation_is_object_local(self, analyzer):
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec_a = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec_b = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec_a.clear_password()\n"  # negates specced_key[spec_a] only
            "    skf = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
            "    key = skf.generate_secret(spec_b)\n"  # spec_b still specced
            "    spec_b.clear_password()\n",
        )
        assert not result.by_kind(FindingKind.REQUIRED_PREDICATE), (
            result.render()
        )

    def test_interleaved_clear_then_use_still_flagged(self, analyzer):
        """The negated object of the pair is still caught when uses of
        both objects interleave."""
        result = analyze(
            analyzer,
            "def f(pwd):\n"
            "    salt = bytearray(32)\n"
            "    r = SecureRandom.get_instance('HMACDRBG')\n"
            "    r.next_bytes(salt)\n"
            "    spec_a = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec_b = PBEKeySpec(pwd, salt, 10000, 128)\n"
            "    spec_a.clear_password()\n"
            "    skf = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
            "    key_b = skf.generate_secret(spec_b)\n"  # fine
            "    skf2 = SecretKeyFactory.get_instance('PBKDF2WithHmacSHA256')\n"
            "    key_a = skf2.generate_secret(spec_a)\n"  # use after negate
            "    spec_b.clear_password()\n",
        )
        offending = [
            f
            for f in result.by_kind(FindingKind.REQUIRED_PREDICATE)
            if "specced_key" in f.message
        ]
        assert len(offending) == 1
        # Attributed to the consuming call, naming the negated argument.
        assert offending[0].variable == "skf2"
        assert "spec_a" in offending[0].message


class TestAliasThenReassign:
    """Aliases bind to the *object*; rebinding one name must neither
    lose the trace nor double-report it."""

    def test_alias_survives_original_rebinding(self, analyzer):
        result = analyze(
            analyzer,
            "def f(key):\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    alias = c\n"
            "    c = 'something else entirely'\n"
            "    alias.init(1, key)\n"
            "    out = alias.do_final(b'data')\n",
        )
        assert result.is_secure, result.render()

    def test_alias_and_original_are_one_object(self, analyzer):
        """Events through either name advance the same typestate."""
        result = analyze(
            analyzer,
            "def f(key):\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    alias = c\n"
            "    c.init(1, key)\n"
            "    out = alias.do_final(b'data')\n",
        )
        assert result.is_secure, result.render()
        assert result.tracked_objects == 1

    def test_rebound_name_starts_a_fresh_object(self, analyzer):
        """After ``c`` is rebound to a *new* Cipher, the old object
        (still reachable via the alias) and the new one are tracked
        separately — the incomplete old object is reported, the
        complete new one is not."""
        result = analyze(
            analyzer,
            "def f(key):\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    alias = c\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    c.init(1, key)\n"
            "    out = c.do_final(b'data')\n",
        )
        incomplete = result.by_kind(FindingKind.INCOMPLETE_OPERATION)
        assert len(incomplete) == 1
        assert incomplete[0].line == 3  # the first get_instance


class TestForbiddenAggregateAlternative:
    """A FORBIDDEN method whose suggested alternative is an aggregate
    ORDER label still fires, and the fix hint names the aggregate."""

    RULE = (
        "SPEC repro.jca.Cipher\n"
        "OBJECTS\n"
        "    str transformation;\n"
        "    int op_mode;\n"
        "    repro.jca.Key key;\n"
        "    bytes input_data;\n"
        "    bytes output_data;\n"
        "EVENTS\n"
        "    g1: this = get_instance(transformation);\n"
        "    i1: init(op_mode, key);\n"
        "    f1: output_data = do_final(input_data);\n"
        "    f2: output_data = do_final();\n"
        "    Finals := f1 | f2;\n"
        "ORDER\n"
        "    g1, i1, Finals\n"
        "FORBIDDEN\n"
        "    update(bytes) => Finals;\n"
    )

    def _analyzer(self):
        return ProjectAnalyzer(RuleSet([check_rule(parse_rule(self.RULE))]))

    def test_forbidden_call_detected(self):
        result = analyze_module(
            self._analyzer(),
            "from repro.jca import Cipher\n"
            "def f(key):\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    c.init(1, key)\n"
            "    c.update(b'data')\n"
            "    out = c.do_final()\n"
        )
        (finding,) = result.by_kind(FindingKind.FORBIDDEN_METHOD)
        assert "update" in finding.message
        assert "Finals" in finding.message  # aggregate named as the fix

    def test_aggregate_members_stay_allowed(self):
        """The aggregate's member events themselves are not forbidden."""
        result = analyze_module(
            self._analyzer(),
            "from repro.jca import Cipher\n"
            "def f(key):\n"
            "    c = Cipher.get_instance('AES/GCM/NoPadding')\n"
            "    c.init(1, key)\n"
            "    out = c.do_final(b'data')\n"
        )
        assert not result.by_kind(FindingKind.FORBIDDEN_METHOD)
        assert result.is_secure, result.render()
