"""Path selection and parameter resolution (Figure 6, steps 3–4)."""

from __future__ import annotations

import pytest

import repro.codegen.selector as selector_module
from repro.codegen import (
    CrySLBasedCodeGenerator,
    GenerationContext,
    parse_template_file,
)
from repro.codegen.fluent import ConsideredRule, GenerationRequest
from repro.codegen.selector import (
    GenerationError,
    candidate_paths,
    select,
)
from repro.constraints.model import BindingSource
from repro.diagnostics import COMBOS_EVALUATED, Diagnostics
from repro.predicates import compute_links
from repro.predicates.instances import RuleInstance, TemplateBinding
from repro.usecases import use_case

from .reference import plan_view, reference_select


def _instances(ruleset, *considered):
    return GenerationRequest(considered=list(considered)).to_instances(ruleset)


def _binding(rule_var, expr="x", value=None, type_name=None):
    return TemplateBinding(
        rule_var=rule_var,
        expr=expr,
        value=value,
        is_literal=value is not None,
        type_name=type_name,
    )


def _candidates(ruleset, instance):
    return candidate_paths(instance, ruleset.compiled(instance.rule).paths)


class TestCandidateFilters:
    def test_template_objects_must_appear(self, ruleset):
        """Filter 1 of §3.3: SecureRandom bound on `out` keeps only
        paths containing next_bytes."""
        instance = RuleInstance(
            ruleset.get("SecureRandom"), 0, bindings={"out": _binding("out", "salt")}
        )
        paths = _candidates(ruleset, instance)
        assert paths
        for path in paths:
            assert any(e.label == "n1" for e in path)

    def test_receiver_binding_excludes_creation(self, ruleset):
        instance = RuleInstance(
            ruleset.get("KeyPair"), 0, bindings={"this": _binding("this", "key_pair")}
        )
        for path in _candidates(ruleset, instance):
            assert not any(e.result == "this" or e.is_constructor for e in path)

    def test_output_binding_requires_producing_event(self, ruleset):
        instance = RuleInstance(
            ruleset.get("Cipher"), 0, output_bindings={"iv_out": "iv"}
        )
        for path in _candidates(ruleset, instance):
            assert any(e.result == "iv_out" for e in path)

    def test_return_target_requires_output(self, ruleset):
        instance = RuleInstance(
            ruleset.get("MessageDigest"), 0, return_target="digest"
        )
        assert _candidates(ruleset, instance)


class TestPbeSelection:
    """The paper's running example selects exactly Figure 5's plan."""

    @pytest.fixture(scope="class")
    def plan(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule(
                "repro.jca.SecureRandom",
                [_binding("out", "salt", type_name="bytearray")],
            ),
            ConsideredRule(
                "repro.jca.PBEKeySpec",
                [_binding("password", "pwd", type_name="bytearray")],
            ),
            ConsideredRule("repro.jca.SecretKeyFactory"),
            ConsideredRule("repro.jca.SecretKey"),
            ConsideredRule("repro.jca.SecretKeySpec", [], "encryption_key"),
        )
        return select(instances)

    def test_paths(self, plan):
        assert [p.labels for p in plan.instances] == [
            ("g1", "n1"),
            ("c1", "cP"),
            ("g1", "gs1"),
            ("g1",),
            ("c1",),
        ]

    def test_clear_password_deferred(self, plan):
        assert plan.instances[1].deferred == ("cP",)

    def test_derived_values_match_paper(self, plan):
        pbe_env = plan.instances[1].env
        assert pbe_env.value_of("iteration_count") == 10000
        assert pbe_env.value_of("key_length") == 128
        skf_env = plan.instances[2].env
        assert skf_env.value_of("algorithm") == "PBKDF2WithHmacSHA256"

    def test_nothing_pushed_up(self, plan):
        assert plan.score[0] == 0
        assert all(not p.pushed_up and not p.receiver_pushed for p in plan.instances)

    def test_all_links_active(self, plan):
        assert len(plan.active_links) == 4

    def test_no_drops(self, plan):
        assert plan.dropped == ()


class TestCipherModeSelection:
    def test_wrap_mode_selects_wrap_path(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule("repro.jca.KeyGenerator"),
            ConsideredRule(
                "repro.jca.KeyPair", [_binding("this", "key_pair")]
            ),
            ConsideredRule(
                "repro.jca.Cipher",
                [TemplateBinding("op_mode", "Cipher.WRAP_MODE", 3, True, "int")],
                "wrapped",
            ),
        )
        plan = select(instances)
        assert plan.instances[2].labels == ("g1", "i1", "w1")
        assert plan.instances[1].labels == ("gpub",)

    def test_unwrap_mode_selects_private_key(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule("repro.jca.KeyPair", [_binding("this", "key_pair")]),
            ConsideredRule(
                "repro.jca.Cipher",
                [
                    TemplateBinding("op_mode", "Cipher.UNWRAP_MODE", 4, True, "int"),
                    _binding("wrapped", "wrapped", type_name="bytes"),
                ],
            ),
        )
        plan = select(instances)
        assert plan.instances[0].labels == ("gpriv",)
        assert plan.instances[1].labels == ("g1", "i1", "uw1")
        env = plan.instances[1].env
        assert env.value_of("transformation").startswith("RSA/ECB/OAEP")
        assert env.value_of("wrap_algorithm") == "AES"
        assert env.value_of("wrapped_key_type") == 3

    def test_gcm_decrypt_uses_parameter_spec(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule(
                "repro.jca.GCMParameterSpec", [_binding("iv", "iv", type_name="bytes")]
            ),
            ConsideredRule(
                "repro.jca.Cipher",
                [
                    TemplateBinding("op_mode", "Cipher.DECRYPT_MODE", 2, True, "int"),
                    _binding("key", "key", type_name="SecretKey"),
                    _binding("input_data", "ciphertext", type_name="bytes"),
                ],
                "plaintext",
            ),
        )
        plan = select(instances)
        assert plan.instances[1].labels == ("g1", "i2", "f1")
        assert plan.dropped == ()


class TestSignatureSelection:
    def test_sign_chain(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule("repro.jca.KeyPair", [_binding("this", "key_pair")]),
            ConsideredRule(
                "repro.jca.Signature",
                [_binding("document", "document", type_name="bytes")],
                "signature",
            ),
        )
        plan = select(instances)
        assert plan.instances[0].labels == ("gpriv",)
        assert plan.instances[1].labels == ("g1", "is1", "u1", "s1")

    def test_verify_chain(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule("repro.jca.KeyPair", [_binding("this", "key_pair")]),
            ConsideredRule(
                "repro.jca.Signature",
                [
                    _binding("document", "document", type_name="bytes"),
                    _binding("signature", "signature", type_name="bytes"),
                ],
                "result",
            ),
        )
        plan = select(instances)
        assert plan.instances[0].labels == ("gpub",)
        assert plan.instances[1].labels == ("g1", "iv1", "u1", "v1")


class TestShortestPathPreference:
    def test_message_digest_prefers_one_shot(self, ruleset):
        """d2 (2 calls) beats u1+, d1 (3 calls) — §3.3's shortest rule."""
        instances = _instances(
            ruleset,
            ConsideredRule(
                "repro.jca.MessageDigest",
                [_binding("input_data", "data", type_name="bytes")],
                "digest",
            ),
        )
        plan = select(instances)
        assert plan.instances[0].labels == ("g1", "d2")


class TestPushUpFallback:
    def test_unresolvable_parameter_pushed(self, ruleset):
        """A Mac chain without a key in scope pushes `key` up (§3.3's
        compilability-over-completeness fallback)."""
        instances = _instances(
            ruleset,
            ConsideredRule(
                "repro.jca.Mac",
                [_binding("input_data", "data", type_name="bytes")],
                "tag",
            ),
        )
        plan = select(instances)
        assert "key" in plan.instances[0].pushed_up
        assert plan.score[0] >= 1


class TestAblations:
    """§3.3's design choices, each switched off on a real use case."""

    @staticmethod
    def _pbe_instances(ruleset):
        model = parse_template_file(use_case(3).template_path())
        return model.primary_class.methods[0].chain.to_instances(ruleset)

    def test_ablation_no_predicate_linking(self, ruleset, monkeypatch):
        assert select(self._pbe_instances(ruleset)).score[0] == 0
        monkeypatch.setattr(
            selector_module, "compute_links", lambda instances, **_: []
        )

        plan = select(self._pbe_instances(ruleset))

        # Still generates (compilability over completeness), but the
        # wrapper signature degrades: objects links would supply get
        # pushed up.
        assert plan.score[0] >= 3

    def test_ablation_value_set_order(self, ruleset):
        """§4: the authors re-ordered `in {..}` sets to steer selection —
        first-of-set is semantic. Reversing the KeyGenerator key-size set
        flips the generated key size while staying rule-compliant."""
        from repro.crysl import RuleSet, parse_rule
        from repro.crysl.typecheck import check_rule

        source = use_case(4).template_path().read_text()
        reversed_rule = check_rule(
            parse_rule(
                "SPEC repro.jca.KeyGenerator\n"
                "OBJECTS\n    str algorithm;\n    int key_size;\n"
                "    repro.jca.SecureRandom random;\n    repro.jca.SecretKey key;\n"
                "EVENTS\n    g1: this = get_instance(algorithm);\n"
                "    i1: init(key_size);\n    i2: init(key_size, random);\n"
                "    gk: key = generate_key();\n"
                "ORDER\n    g1, (i1 | i2), gk\n"
                "CONSTRAINTS\n    algorithm in {\"AES\"};\n"
                "    key_size in {256, 192, 128};\n"  # reversed preference
                "ENSURES\n    generated_key[key, algorithm];\n"
            )
        )
        modified = RuleSet(list(ruleset))
        modified.add(reversed_rule)

        module = CrySLBasedCodeGenerator(modified).generate_from_source(
            source, "uc4"
        )
        assert "key_generator.init(256)" in module.source  # was 128
        module.compile_check()


class TestErrors:
    def test_instance_index_must_match_position(self, ruleset):
        """Links address instances by chain position, so an instance
        whose index disagrees with its position is refused up front."""
        instances = _instances(
            ruleset,
            ConsideredRule("repro.jca.SecureRandom"),
            ConsideredRule("repro.jca.PBEKeySpec"),
        )
        instances.reverse()
        with pytest.raises(ValueError, match="chain position 0"):
            select(instances)

    def test_bad_rule_var_reported(self, ruleset):
        instances = _instances(
            ruleset,
            ConsideredRule(
                "repro.jca.SecureRandom", [_binding("no_such_var", "salt")]
            ),
        )
        with pytest.raises(GenerationError, match="no_such_var"):
            select(instances)


class TestExactSearch:
    """The branch-and-bound is exact at any product size."""

    @staticmethod
    def _encrypt_twice(ruleset):
        """Two hybrid ``encrypt`` chains back to back: 16**4 = 65,536
        path combinations."""
        model = parse_template_file(use_case(6).template_path())
        (encrypt,) = [m for m in model.primary_class.methods if m.name == "encrypt"]
        considered = encrypt.chain.considered
        return GenerationRequest(considered=considered + considered).to_instances(
            ruleset
        )

    def test_product_far_past_exhaustive_scan(self, ruleset):
        context = GenerationContext(ruleset)
        instances = self._encrypt_twice(ruleset)
        product = 1
        for instance in instances:
            compiled = context.compiled(instance.rule)
            product *= len(candidate_paths(instance, compiled.paths))
        assert product == 65_536
        diag = Diagnostics()

        plan = select(instances, context=context, diagnostics=diag)

        # The score a per-instance greedy choice reached on this chain;
        # exhaustive scoring of all 65,536 combinations reaches no lower.
        assert plan.score == (0, 0, 0, 22, 20)
        encrypt = [("g1", "i1", "gk"), ("g1", "i1", "gi", "f1"), ("gpub",),
                   ("g1", "i1", "w1")]
        assert [p.labels for p in plan.instances] == encrypt + encrypt
        assert [
            (link.producer, link.consumer, link.consumer_object)
            for link in plan.active_links
        ] == [(0, 1, "key"), (2, 3, "key"), (0, 3, "wrap_key"),
              (4, 5, "key"), (6, 7, "key"), (4, 7, "wrap_key")]
        assert plan.dropped == ()
        assert diag.counter(COMBOS_EVALUATED) < 10
        assert not diag.warnings

    def test_ties_go_to_the_first_combination_in_product_order(self, ruleset):
        """A bare SecureRandom's ``g1, n1`` and ``g1, gs1`` paths score
        the same; the search, like the exhaustive scan, keeps the first."""
        instances = _instances(ruleset, ConsideredRule("repro.jca.SecureRandom"))

        plan = select(instances)

        assert plan.instances[0].labels == ("g1", "n1")
        assert plan_view(plan) == plan_view(reference_select(instances))


class TestCompiledRuleLookups:
    def test_hybrid_looks_up_rules_per_instance_not_per_combination(self, ruleset):
        """The selector resolves each instance's compiled rule once per
        chain, so the combinations it scores cost no extra lookups."""
        assert use_case(6).slug == "hybrid_strings"
        model = parse_template_file(use_case(6).template_path())
        context = GenerationContext(ruleset)
        for method in model.primary_class.methods:
            instances = method.chain.to_instances(ruleset)
            links = compute_links(instances, context=context)
            diag = Diagnostics()

            with Diagnostics().recording() as lookups:
                select(instances, context=context, diagnostics=diag, links=links)

            assert lookups.counter("compiled_rules.hits") + lookups.counter(
                "compiled_rules.misses"
            ) == len(instances)
            assert diag.counter(COMBOS_EVALUATED) >= 1
