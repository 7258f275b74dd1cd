"""Predicate machinery: instances, grants, invalidation, linking."""

from __future__ import annotations

import pytest

from repro.codegen.fluent import ConsideredRule, GenerationRequest
from repro.crysl import parse_rule
from repro.predicates import (
    RuleInstance,
    TemplateBinding,
    compute_links,
    granted_predicates,
    invalidating_events,
    unlinked_instances,
)


def _pbe_instances(ruleset):
    request = GenerationRequest(
        considered=[
            ConsideredRule("repro.jca.SecureRandom"),
            ConsideredRule("repro.jca.PBEKeySpec"),
            ConsideredRule("repro.jca.SecretKeyFactory"),
            ConsideredRule("repro.jca.SecretKey"),
            ConsideredRule("repro.jca.SecretKeySpec"),
        ]
    )
    return request.to_instances(ruleset)


class TestRuleInstance:
    def test_alias_disambiguates_repeats(self, ruleset):
        request = GenerationRequest(
            considered=[
                ConsideredRule("repro.jca.Cipher"),
                ConsideredRule("repro.jca.Cipher"),
            ]
        )
        first, second = request.to_instances(ruleset)
        assert first.alias == "cipher"
        assert second.alias == "cipher_2"

    def test_creation_events(self, ruleset):
        pbe = RuleInstance(ruleset.get("PBEKeySpec"), 0)
        assert [e.label for e in pbe.creation_events()] == ["c1"]
        keypair = RuleInstance(ruleset.get("KeyPair"), 0)
        assert not keypair.has_creation_event()


class TestGrantedPredicates:
    def test_unanchored_always_granted(self, ruleset):
        rule = ruleset.get("SecretKeyFactory")
        granted = granted_predicates(rule, ("g1", "gs1"))
        assert [p.name for p in granted] == ["generated_key"]

    def test_anchored_requires_anchor_on_path(self, ruleset):
        rule = ruleset.get("KeyPair")
        assert [p.name for p in granted_predicates(rule, ("gpub",))] == ["pub_key"]
        assert [p.name for p in granted_predicates(rule, ("gpriv",))] == ["priv_key"]

    def test_aggregate_anchor(self, ruleset):
        rule = ruleset.get("Cipher")
        names = [p.name for p in granted_predicates(rule, ("g1", "i1", "f1"))]
        assert "encrypted" in names
        assert "wrapped_key" not in names


class TestInvalidatingEvents:
    def test_clear_password_deferred(self, ruleset):
        rule = ruleset.get("PBEKeySpec")
        assert invalidating_events(rule, ("c1", "cP")) == ("cP",)

    def test_no_negates_no_invalidation(self, ruleset):
        rule = ruleset.get("Cipher")
        assert invalidating_events(rule, ("g1", "i1", "f1")) == ()

    def test_anchor_itself_not_invalidating(self, ruleset):
        rule = ruleset.get("PBEKeySpec")
        assert invalidating_events(rule, ("c1",)) == ()


class TestLinking:
    def test_pbe_chain_links(self, ruleset):
        links = compute_links(_pbe_instances(ruleset))
        as_tuples = {
            (l.predicate, l.producer, l.producer_object, l.consumer, l.consumer_object)
            for l in links
        }
        assert ("randomized", 0, "out", 1, "salt") in as_tuples
        assert ("specced_key", 1, "this", 2, "key_spec") in as_tuples
        assert ("generated_key", 2, "key", 3, "this") in as_tuples
        assert ("key_material", 3, "key_material", 4, "key_material") in as_tuples

    def test_links_only_point_forward(self, ruleset):
        for link in compute_links(_pbe_instances(ruleset)):
            assert link.producer < link.consumer

    def test_unlinked_detection(self, ruleset):
        instances = [
            RuleInstance(ruleset.get("SecureRandom"), 0),
            RuleInstance(ruleset.get("MessageDigest"), 1),
        ]
        # No link between them; neither has template outputs.
        assert unlinked_instances(instances, []) == [0, 1]

    def test_return_target_counts_as_involved(self, ruleset):
        instances = [
            RuleInstance(ruleset.get("MessageDigest"), 0, return_target="digest"),
        ]
        assert unlinked_instances(instances, []) == []
