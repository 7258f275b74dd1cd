"""HMAC: RFC 4231 vectors through ``hmac_digest`` and the ``Mac`` service."""

from __future__ import annotations

import pytest

from repro.jca import Mac, SecretKeySpec
from repro.primitives.mac import hmac_digest, new_hmac

# RFC 4231 test case 1 and 2 (SHA-256/384/512).
_RFC4231 = [
    (
        bytes.fromhex("0b" * 20),
        b"Hi There",
        {
            "SHA-256": "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            "SHA-384": (
                "afd03944d84895626b0825f4ab46907f15f9dadbe4101ec682aa034c7cebc59c"
                "faea9ea9076ede7f4af152e8b2fa9cb6"
            ),
            "SHA-512": (
                "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
                "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
            ),
        },
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        {
            "SHA-256": "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        },
    ),
]


def _service_tag(key: bytes, message: bytes, algorithm: str) -> bytes:
    """The tag the JCA ``Mac`` service computes, fed in two chunks."""
    mac = Mac.get_instance("Hmac" + algorithm.replace("-", ""))
    mac.init(SecretKeySpec(key, mac.algorithm))
    mac.update(message[:5])
    return mac.do_final(message[5:])


@pytest.mark.parametrize("key,message,digests", _RFC4231)
def test_rfc4231_vectors(key, message, digests):
    for algorithm, expected in digests.items():
        assert hmac_digest(key, message, algorithm).hex() == expected
        assert _service_tag(key, message, algorithm).hex() == expected


def test_long_key_is_hashed_first():
    """Keys longer than the block size are pre-hashed (RFC 4231 case 6)."""
    key = bytes.fromhex("aa" * 131)
    message = b"Test Using Larger Than Block-Size Key - Hash Key First"
    expected = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    assert hmac_digest(key, message).hex() == expected
    assert _service_tag(key, message, "SHA-256").hex() == expected


def test_incremental_equals_oneshot():
    mac = new_hmac(b"key", "SHA-256")
    mac.update(b"part one, ")
    mac.update(b"part two")
    assert mac.digest() == hmac_digest(b"key", b"part one, part two")


def test_digest_is_repeatable():
    mac = new_hmac(b"key")
    mac.update(b"data")
    assert mac.digest() == mac.digest()


def test_service_reset_discards_input():
    mac = Mac.get_instance("HmacSHA256")
    mac.init(SecretKeySpec(b"key", "HmacSHA256"))
    mac.update(b"discarded")
    mac.reset()
    assert mac.do_final(b"data") == hmac_digest(b"key", b"data")


def test_different_keys_different_tags():
    assert hmac_digest(b"key-a", b"m") != hmac_digest(b"key-b", b"m")
