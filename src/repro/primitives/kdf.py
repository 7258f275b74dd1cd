"""Key derivation: PBKDF2-HMAC (RFC 8018) through ``hashlib``.

The JCA exposes PBKDF2 through ``SecretKeyFactory.getInstance(
"PBKDF2WithHmacSHA256")``; the provider in :mod:`repro.jca` parses those
transformation strings and calls down into this module.
"""

from __future__ import annotations

import hashlib

from .errors import ParameterError
from .hashes import hashlib_name


def pbkdf2(
    password: bytes,
    salt: bytes,
    iterations: int,
    key_length: int,
    algorithm: str = "SHA-256",
) -> bytes:
    """Derive ``key_length`` bytes from ``password`` via PBKDF2-HMAC.

    ``iterations`` must be positive; the CrySL layer separately enforces
    the security floor of 10,000, so this primitive only validates
    functional correctness.
    """
    if iterations < 1:
        raise ParameterError(f"PBKDF2 iteration count must be >= 1, got {iterations}")
    if key_length < 1:
        raise ParameterError(f"PBKDF2 key length must be >= 1, got {key_length}")
    return hashlib.pbkdf2_hmac(
        hashlib_name(algorithm), password, salt, iterations, key_length
    )
