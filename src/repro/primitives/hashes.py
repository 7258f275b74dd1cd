"""Hash functions: JCA digest names over ``hashlib``.

Every digest comes from ``hashlib``, the same trade-off the paper's
artefact makes by reusing the JDK's digests. This module only maps the
JCA spellings (``SHA-256``) onto hashlib's (``sha256``).
"""

from __future__ import annotations

import hashlib

#: Digest sizes for every hash the provider stack recognises, by JCA
#: name. The hashlib name is the JCA one without dashes, lower-cased.
DIGEST_SIZES = {
    "SHA-256": 32,
    "SHA-384": 48,
    "SHA-512": 64,
    "SHA-224": 28,
    "SHA-1": 20,
    "MD5": 16,
}

#: Digests that are acceptable per the CrySL rule set shipped in
#: :mod:`repro.rules`. SHA-1 and MD5 are modelled so the SAST checker has
#: something to flag, but are never selected by the generator.
SECURE_DIGESTS = ("SHA-256", "SHA-384", "SHA-512")


def canonical_name(algorithm: str) -> str:
    """Normalise ``sha256``/``SHA256``/``SHA-256`` to the JCA spelling."""
    upper = algorithm.upper().replace("_", "-")
    if upper in DIGEST_SIZES:
        return upper
    no_dash = upper.replace("-", "")
    for name in DIGEST_SIZES:
        if name.replace("-", "") == no_dash:
            return name
    raise ValueError(f"unknown digest algorithm: {algorithm!r}")


def hashlib_name(algorithm: str) -> str:
    """The ``hashlib``/``hmac`` spelling of a JCA digest name."""
    return canonical_name(algorithm).replace("-", "").lower()


def new_hash(algorithm: str):
    """An incremental ``hashlib`` object for a JCA-style algorithm name."""
    return hashlib.new(hashlib_name(algorithm))


def hash_bytes(algorithm: str, data: bytes) -> bytes:
    """One-shot digest of ``data``."""
    return hashlib.new(hashlib_name(algorithm), data).digest()
