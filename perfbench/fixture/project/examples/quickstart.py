"""Quickstart: the paper's running example, end to end.

Write a code template containing only glue code plus a fluent-API
chain, let CogniCryptGEN generate the security-sensitive statements
from the bundled CrySL rules, and run the result.

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CrySLBasedCodeGenerator, CrySLAnalyzer, TargetProject

# The template — the paper's Figure 4, in Python. Everything
# security-relevant (algorithms, iteration counts, salt handling,
# clearing the password) is *absent*: the rules provide it.
TEMPLATE = '''
"""Template: password-based encryption key derivation."""
from repro.codegen.fluent import CrySLCodeGenerator


class SecureEncryptor:
    def generate_key(self, pwd: bytearray):
        salt = bytearray(32)
        encryption_key = None
        (CrySLCodeGenerator.get_instance()
            .consider_crysl_rule("repro.jca.SecureRandom")
            .add_parameter(salt, "out")
            .consider_crysl_rule("repro.jca.PBEKeySpec")
            .add_parameter(pwd, "password")
            .consider_crysl_rule("repro.jca.SecretKeyFactory")
            .consider_crysl_rule("repro.jca.SecretKey")
            .consider_crysl_rule("repro.jca.SecretKeySpec")
            .add_return_object(encryption_key)
            .generate())
        return encryption_key
'''


def main() -> None:
    generator = CrySLBasedCodeGenerator()

    print("=== generating from the template ===")
    module = generator.generate_from_source(TEMPLATE, "quickstart_template.py")
    print(module.source)
    print(f"(generated in {module.elapsed_seconds * 1000:.1f} ms)\n")

    print("=== validating with the rule-driven analyzer ===")
    report = CrySLAnalyzer().analyze_source(module.source, "generated")
    print(report.render(), "\n")

    print("=== running the generated code ===")
    with tempfile.TemporaryDirectory() as scratch:
        loaded = TargetProject(scratch).write_and_load(module, "secure_encryptor")
        password = bytearray(b"correct horse battery staple")
        key = loaded.SecureEncryptor().generate_key(password)
        print(f"derived key: {key}")
        print(f"key material: {key.get_encoded().hex()}")
        wiped = password == bytearray(len(b"correct horse battery staple"))
        print(f"password wiped after use: {wiped}")


if __name__ == "__main__":
    main()
