"""HMAC (RFC 2104 / FIPS 198-1): the stdlib ``hmac`` keyed through the
JCA digest names of :mod:`repro.primitives.hashes`.
"""

from __future__ import annotations

import hmac

from .hashes import hashlib_name


def new_hmac(key: bytes, algorithm: str = "SHA-256") -> hmac.HMAC:
    """An incremental HMAC keyed with ``key`` over ``algorithm``.

    >>> mac = new_hmac(b"key", "SHA-256")
    >>> mac.update(b"msg")
    >>> mac.hexdigest()[:8]
    '2d93cbc1'
    """
    return hmac.new(key, digestmod=hashlib_name(algorithm))


def hmac_digest(key: bytes, data: bytes, algorithm: str = "SHA-256") -> bytes:
    """One-shot HMAC."""
    return hmac.digest(key, data, hashlib_name(algorithm))
