"""PBKDF2: RFC 7914 vectors through ``pbkdf2`` and ``SecretKeyFactory``."""

from __future__ import annotations

import hashlib

import pytest

from repro.jca import PBEKeySpec, SecretKeyFactory
from repro.primitives.errors import ParameterError
from repro.primitives.kdf import pbkdf2

# RFC 7914 section 11: PBKDF2-HMAC-SHA256 test vectors.
_RFC7914 = [
    (
        b"passwd",
        b"salt",
        1,
        "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
        "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783",
    ),
    (
        b"Password",
        b"NaCl",
        80000,
        "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
        "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d",
    ),
]


class TestPbkdf2:
    @pytest.mark.parametrize("password,salt,iterations,expected", _RFC7914)
    def test_rfc7914_vectors(self, password, salt, iterations, expected):
        assert pbkdf2(password, salt, iterations, 64).hex() == expected
        spec = PBEKeySpec(bytearray(password), salt, iterations, 512)
        factory = SecretKeyFactory.get_instance("PBKDF2WithHmacSHA256")
        assert factory.generate_secret(spec).get_encoded().hex() == expected

    def test_matches_hashlib_sha256(self):
        ours = pbkdf2(b"password", b"salt", 4096, 32)
        reference = hashlib.pbkdf2_hmac("sha256", b"password", b"salt", 4096, 32)
        assert ours == reference

    def test_matches_hashlib_multiblock(self):
        """Output longer than one digest exercises block iteration."""
        ours = pbkdf2(b"passwordPASSWORD", b"saltSALT", 100, 100, "SHA-512")
        reference = hashlib.pbkdf2_hmac(
            "sha512", b"passwordPASSWORD", b"saltSALT", 100, 100
        )
        assert ours == reference

    def test_iteration_sensitivity(self):
        assert pbkdf2(b"p", b"s", 100, 16) != pbkdf2(b"p", b"s", 101, 16)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_rejects_nonpositive_iterations(self, iterations):
        with pytest.raises(ParameterError):
            pbkdf2(b"p", b"s", iterations, 16)

    def test_rejects_zero_length(self):
        with pytest.raises(ParameterError):
            pbkdf2(b"p", b"s", 10, 0)
