"""A file vault built on the generated hybrid-encryption use case.

Scenario (the workloads the paper's intro motivates): an application
wants to encrypt files so that only the holder of a private key can
read them. Hybrid encryption — a fresh AES session key per file,
wrapped under RSA — is use case 5 of Table 1; this example generates
that implementation and drives it like an application would.

    python examples/file_vault.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.codegen import TargetProject
from repro.usecases import generate_use_case


def main() -> None:
    print("generating the hybrid file-encryption use case (Table 1, #5)...")
    module = generate_use_case(5)

    with tempfile.TemporaryDirectory() as scratch:
        scratch_path = Path(scratch)
        loaded = TargetProject(scratch_path / "gen").write_and_load(
            module, "hybrid_files"
        )
        vault = loaded.HybridFileEncryptor()

        print("generating the vault's RSA-2048 key pair (pure Python, "
              "takes a few seconds)...")
        key_pair = vault.generate_key_pair()

        documents = {
            "notes.txt": b"meeting notes: rotate the API tokens",
            "numbers.csv": b"q1,q2,q3\n10,20,30\n",
            "binary.dat": bytes(range(256)) * 4,
        }
        vault_dir = scratch_path / "vault"
        vault_dir.mkdir()

        for name, content in documents.items():
            source = scratch_path / name
            source.write_bytes(content)
            sealed = vault_dir / f"{name}.sealed"
            vault.encrypt_file(key_pair, str(source), str(sealed))
            print(f"sealed {name}: {len(content)} bytes -> {sealed.stat().st_size}")

        print("\nopening the vault with the private key...")
        for name, content in documents.items():
            sealed = vault_dir / f"{name}.sealed"
            restored = scratch_path / f"restored_{name}"
            vault.decrypt_file(key_pair, str(sealed), str(restored))
            ok = restored.read_bytes() == content
            print(f"restored {name}: {'OK' if ok else 'CORRUPTED'}")
            assert ok


if __name__ == "__main__":
    main()
