"""Release signing with the generated digital-signature use case.

A maintainer signs release artifacts; consumers verify them against the
maintainer's public key (Table 1, #10 — RSA-PSS under the rules).

    python examples/signed_releases.py
"""

from __future__ import annotations

import hashlib
import tempfile

from repro.codegen import TargetProject
from repro.usecases import generate_use_case


def main() -> None:
    print("generating the digital-signing use case (Table 1, #10)...")
    module = generate_use_case(10)

    with tempfile.TemporaryDirectory() as scratch:
        loaded = TargetProject(scratch).write_and_load(module, "signer")
        signer = loaded.DocumentSigner()

        print("creating the maintainer key pair (RSA-2048, pure Python)...")
        maintainer_keys = signer.generate_key_pair()

        releases = {
            "tool-1.0.tar.gz": b"pretend tarball contents v1",
            "tool-1.1.tar.gz": b"pretend tarball contents v2",
        }
        manifest: dict[str, str] = {}
        for name, content in releases.items():
            digest = hashlib.sha256(content).hexdigest()
            manifest[name] = signer.sign(maintainer_keys, digest)
            print(f"signed {name} (sha256 {digest[:16]}...)")

        print("\nconsumer verifies downloads:")
        for name, content in releases.items():
            digest = hashlib.sha256(content).hexdigest()
            ok = signer.verify(maintainer_keys, digest, manifest[name])
            print(f"  {name}: {'valid' if ok else 'INVALID'}")
            assert ok

        print("\nconsumer verifies a tampered download:")
        tampered = hashlib.sha256(b"evil payload").hexdigest()
        ok = signer.verify(maintainer_keys, tampered, manifest["tool-1.0.tar.gz"])
        print(f"  tool-1.0.tar.gz (tampered): {'valid' if ok else 'REJECTED'}")
        assert not ok


if __name__ == "__main__":
    main()
