"""Hashes: NIST SHA-256 vectors on the production path, registry behaviour."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.jca import MessageDigest
from repro.primitives.hashes import (
    DIGEST_SIZES,
    SECURE_DIGESTS,
    canonical_name,
    hash_bytes,
    new_hash,
)

_NIST_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


def _sha256_hex(message: bytes) -> tuple[str, str]:
    """SHA-256 of ``message`` through ``new_hash`` and ``MessageDigest``."""
    hasher = new_hash("SHA-256")
    hasher.update(message)
    md = MessageDigest.get_instance("SHA-256")
    md.update(message)
    return hasher.hexdigest(), md.digest().hex()


@pytest.mark.parametrize("message,expected", _NIST_VECTORS)
def test_nist_vectors(message, expected):
    assert _sha256_hex(message) == (expected, expected)


def test_million_a():
    expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    assert _sha256_hex(b"a" * 1_000_000) == (expected, expected)


@given(chunks=st.lists(st.binary(max_size=100), max_size=10))
def test_incremental_equals_oneshot(chunks):
    md = MessageDigest.get_instance("SHA-256")
    for chunk in chunks:
        md.update(chunk)
    assert md.digest() == hash_bytes("SHA-256", b"".join(chunks))


def test_digest_does_not_consume_state():
    hasher = new_hash("SHA-256")
    hasher.update(b"abc")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b"def")
    assert hasher.digest() == hash_bytes("SHA-256", b"abcdef")


def test_boundary_lengths():
    """Messages around the 64-byte block, fed to ``MessageDigest`` split
    at the block edge, digest as one-shot hashlib does."""
    for size in (55, 56, 63, 64, 65, 119, 120):
        data = bytes(range(size))
        md = MessageDigest.get_instance("SHA-256")
        md.update(data[:64])
        md.update(data[64:])
        assert md.digest() == hashlib.sha256(data).digest()


@pytest.mark.parametrize(
    "spelling,expected",
    [
        ("sha256", "SHA-256"),
        ("SHA-256", "SHA-256"),
        ("SHA256", "SHA-256"),
        ("sha_512", "SHA-512"),
        ("md5", "MD5"),
    ],
)
def test_canonical_names(spelling, expected):
    assert canonical_name(spelling) == expected


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        canonical_name("SHA-3-256")


@pytest.mark.parametrize("name", list(DIGEST_SIZES))
def test_registry_digest_sizes(name):
    assert len(hash_bytes(name, b"test")) == DIGEST_SIZES[name]


def test_new_hash_dispatch():
    """Every name, SHA-256 included, is a hashlib object."""
    for name in DIGEST_SIZES:
        hasher = new_hash(name)
        assert type(hasher) is type(hashlib.sha256())
        assert hasher.digest_size == DIGEST_SIZES[name]
    assert new_hash("SHA-512").digest() == hashlib.sha512(b"").digest()


def test_secure_digests_exclude_legacy():
    assert "SHA-1" not in SECURE_DIGESTS
    assert "MD5" not in SECURE_DIGESTS
