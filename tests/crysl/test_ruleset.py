"""Rule-set loading and lookup."""

from __future__ import annotations

import pytest

from repro.crysl import (
    FrozenRuleSetError,
    RuleSet,
    bundled_ruleset,
    load_rule_file,
    parse_rule,
)
from repro.crysl.errors import RuleNotFoundError
from repro.diagnostics import COMPILED_HITS, COMPILED_MISSES, DFA_BUILDS

EXPECTED_BUNDLED = {
    "repro.jca.Cipher",
    "repro.jca.GCMParameterSpec",
    "repro.jca.IvParameterSpec",
    "repro.jca.KeyGenerator",
    "repro.jca.KeyPair",
    "repro.jca.KeyPairGenerator",
    "repro.jca.KeyStore",
    "repro.jca.Mac",
    "repro.jca.MessageDigest",
    "repro.jca.PBEKeySpec",
    "repro.jca.SecretKey",
    "repro.jca.SecretKeyFactory",
    "repro.jca.SecretKeySpec",
    "repro.jca.SecureRandom",
    "repro.jca.Signature",
}


def test_bundled_contents(ruleset):
    assert set(ruleset.class_names) == EXPECTED_BUNDLED


def test_lookup_by_qualified_name(ruleset):
    assert ruleset.get("repro.jca.Cipher").simple_name == "Cipher"


def test_lookup_by_simple_name(ruleset):
    assert ruleset.get("Cipher").class_name == "repro.jca.Cipher"


def test_contains(ruleset):
    assert "Cipher" in ruleset
    assert "Nonexistent" not in ruleset


def test_unknown_rule_mentions_known(ruleset):
    with pytest.raises(RuleNotFoundError) as excinfo:
        ruleset.get("Unknown")
    assert "repro.jca.Cipher" in str(excinfo.value)


def test_ambiguous_simple_name():
    rules = RuleSet(
        [
            parse_rule("SPEC a.Thing\nEVENTS\n e: m();"),
            parse_rule("SPEC b.Thing\nEVENTS\n e: m();"),
        ]
    )
    assert rules.get("a.Thing").class_name == "a.Thing"
    with pytest.raises(RuleNotFoundError) as excinfo:
        rules.get("Thing")
    assert "ambiguous" in str(excinfo.value)


def test_add_replaces_same_class():
    rules = RuleSet([parse_rule("SPEC a.Thing\nEVENTS\n e: m();")])
    rules.add(parse_rule("SPEC a.Thing\nEVENTS\n f: n();"))
    assert len(rules) == 1
    assert rules.get("Thing").event_labelled("f") is not None


def test_from_directory(tmp_path):
    (tmp_path / "Thing.crysl").write_text("SPEC x.Thing\nEVENTS\n e: m();")
    rules = RuleSet.from_directory(tmp_path)
    assert rules.class_names == ("x.Thing",)


def test_from_missing_directory():
    with pytest.raises(FileNotFoundError):
        RuleSet.from_directory("/nonexistent/rules")


def test_load_rule_file(tmp_path):
    path = tmp_path / "Thing.crysl"
    path.write_text("SPEC x.Thing\nEVENTS\n e: m();")
    assert load_rule_file(path).class_name == "x.Thing"


def test_bundled_is_cached():
    assert bundled_ruleset() is bundled_ruleset()


def test_every_bundled_rule_has_usage_pattern(ruleset):
    for rule in ruleset:
        assert rule.events, rule.class_name
        assert rule.order is not None, rule.class_name


# ---------------------------------------------------------------------------
# freezing and the compiled-rule cache
# ---------------------------------------------------------------------------


def test_bundled_is_frozen():
    shared = bundled_ruleset()
    assert shared.frozen
    with pytest.raises(FrozenRuleSetError):
        shared.add(parse_rule("SPEC evil.Thing\nEVENTS\n e: m();"))
    assert "evil.Thing" not in shared


def test_frozen_error_suggests_copy():
    shared = bundled_ruleset()
    with pytest.raises(FrozenRuleSetError) as excinfo:
        shared.add(parse_rule("SPEC evil.Thing\nEVENTS\n e: m();"))
    assert "copy()" in str(excinfo.value)


def test_copy_is_mutable_and_isolated():
    shared = bundled_ruleset()
    private = shared.copy()
    assert not private.frozen
    private.add(parse_rule("SPEC mine.Thing\nEVENTS\n e: m();"))
    assert "mine.Thing" in private
    assert "mine.Thing" not in shared


def test_two_generators_cannot_contaminate_each_other():
    """Satellite: one generator customising its rules must not leak
    into another generator built from the shared bundled set."""
    from repro.codegen import CrySLBasedCodeGenerator

    first = CrySLBasedCodeGenerator()
    second = CrySLBasedCodeGenerator()
    assert first.ruleset is second.ruleset  # shared on purpose...
    with pytest.raises(FrozenRuleSetError):
        first.ruleset.add(parse_rule("SPEC evil.Thing\nEVENTS\n e: m();"))
    # ...and a generator that wants private rules takes a copy.
    private = first.ruleset.copy()
    private.add(parse_rule("SPEC mine.Thing\nEVENTS\n e: m();"))
    third = CrySLBasedCodeGenerator(private)
    assert "mine.Thing" in third.ruleset
    assert "mine.Thing" not in second.ruleset


def test_compiled_cache_hit_and_invalidation():
    rules = RuleSet([parse_rule("SPEC a.Thing\nEVENTS\n e: m();")])
    rule = rules.get("Thing")
    entry = rules.compiled(rule)
    assert rules.compiled(rule) is entry
    assert rules.compiled("Thing") is entry  # name lookup hits too
    assert rules.diagnostics.counter(COMPILED_HITS) == 2
    assert rules.diagnostics.counter(COMPILED_MISSES) == 1
    # Replacing the rule invalidates its entry.
    rules.add(parse_rule("SPEC a.Thing\nEVENTS\n f: n();"))
    fresh = rules.compiled(rules.get("Thing"))
    assert fresh is not entry
    assert rules.diagnostics.counter(COMPILED_MISSES) == 2


def test_copy_has_cold_cache():
    rules = RuleSet([parse_rule("SPEC a.Thing\nEVENTS\n e: m();")])
    rules.compiled("Thing").kernel
    clone = rules.copy()
    assert clone.diagnostics.counter(COMPILED_MISSES) == 0
    assert clone.diagnostics.counter(DFA_BUILDS) == 0
