"""The other half of the ecosystem: detecting misuses after the fact.

CogniCryptGEN *prevents* misuses; its sibling CogniCrypt_SAST *detects*
them in existing code, using the very same CrySL rules. This example
runs the reproduction's analyzer on the paper's Figure 1 — the
plausible-but-insecure PBE snippet — and then on the generator's output
for the same task.

    python examples/misuse_detection.py
"""

from __future__ import annotations

from repro.sast import ProjectAnalyzer
from repro.usecases import generate_use_case

# The paper's Figure 1, transliterated: runs fine, yet contains a
# constant (and too-short) salt, a never-cleared password spec, and
# therefore a broken rely/guarantee chain.
FIGURE_1 = '''
from repro.jca import PBEKeySpec, SecretKeyFactory, SecretKeySpec


def generate_key(pwd):
    salt = b"\\x0f\\xf4\\x5e\\x00\\x0c\\x03\\xbf\\x49\\xff\\xac\\xdd"
    spec = PBEKeySpec(pwd, salt, 100000, 256)
    skf = SecretKeyFactory.get_instance("PBKDF2WithHmacSHA256")
    key = skf.generate_secret(spec)
    key_material = key.get_encoded()
    cipher_key = SecretKeySpec(key_material, "AES")
    return cipher_key
'''


def main() -> None:
    analyzer = ProjectAnalyzer()

    print("=== analyzing the paper's Figure 1 (hand-written, insecure) ===")
    result = analyzer.analyze_sources({"figure1.py": FIGURE_1})
    result = result.modules["figure1.py"]
    print(result.render())
    assert not result.is_secure

    print("\n=== analyzing CogniCryptGEN's output for the same task ===")
    module = generate_use_case(3)  # PBE on byte arrays
    generated = analyzer.analyze_sources({"generated_pbe.py": module.source})
    generated = generated.modules["generated_pbe.py"]
    print(generated.render())
    assert generated.is_secure

    print("\nThe generator's output is misuse-free by construction; the")
    print("hand-written variant ships", len(result.findings), "misuses.")


if __name__ == "__main__":
    main()
