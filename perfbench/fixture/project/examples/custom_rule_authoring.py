"""The crypto-API developer's workflow: author a rule, write a template.

RQ4/RQ5 evaluate CogniCryptGEN from the perspective of a domain expert
integrating *new* use cases. This example plays that role end to end:

1. write a CrySL rule for a class the bundled set does not cover
   (the provider's HMAC service keyed by a fresh KeyGenerator key);
2. write a minimal template against it;
3. generate, inspect, and run the result.

    python examples/custom_rule_authoring.py
"""

from __future__ import annotations

import tempfile

from repro.codegen import CrySLBasedCodeGenerator, TargetProject
from repro.crysl import RuleSet, bundled_ruleset, check_rule, parse_rule

# A tightened Mac rule: unlike the bundled one it forbids the one-shot
# do_final(data) form, forcing explicit update() calls — a plausible
# house style an API owner might want to enforce.
CUSTOM_MAC_RULE = """
SPEC repro.jca.Mac

OBJECTS
    str algorithm;
    repro.jca.SecretKey key;
    bytes input_data;
    bytes tag;

EVENTS
    g1: this = get_instance(algorithm);
    i1: init(key);
    u1: update(input_data);
    f2: tag = do_final();

ORDER
    g1, i1, u1+, f2

CONSTRAINTS
    algorithm in {"HmacSHA512", "HmacSHA256"};

REQUIRES
    generated_key[key, _];

ENSURES
    maced[tag, input_data];
"""

TEMPLATE = '''
"""Template: authenticate a message with a fresh MAC key."""
from repro.codegen.fluent import CrySLCodeGenerator


class MessageAuthenticator:
    def authenticate(self, message: bytes):
        tag = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.KeyGenerator")
            .consider_crysl_rule("repro.jca.Mac")
            .add_parameter(message, "input_data")
            .add_return_object(tag)
            .generate())
        return tag
'''


def main() -> None:
    print("=== 1. author and check the rule ===")
    rule = check_rule(parse_rule(CUSTOM_MAC_RULE, "Mac.crysl"))
    print(f"rule for {rule.class_name}: events "
          f"{[event.label for event in rule.events]}, order {rule.order}")

    # Override the bundled Mac rule with the custom one.
    ruleset = RuleSet(list(bundled_ruleset()))
    ruleset.add(rule)

    print("\n=== 2 + 3. generate from the template ===")
    generator = CrySLBasedCodeGenerator(ruleset)
    module = generator.generate_from_source(TEMPLATE, "authenticator_template.py")
    print(module.source)

    # The custom ORDER shows up in the generated code: update then
    # do_final(), never the one-shot form.
    assert ".update(message)" in module.source
    assert ".do_final()" in module.source
    assert ".do_final(message)" not in module.source

    print("=== running it ===")
    with tempfile.TemporaryDirectory() as scratch:
        loaded = TargetProject(scratch).write_and_load(module, "authenticator")
        tag = loaded.MessageAuthenticator().authenticate(b"release 1.0 manifest")
        print(f"MAC tag: {tag.hex()}")
        assert len(tag) in (32, 64)


if __name__ == "__main__":
    main()
