"""RSA from scratch: key generation, OAEP encryption and PSS signatures
(RFC 8017), with CRT-accelerated private-key operations.

The asymmetric half of the JCA-style provider (``KeyPairGenerator``,
``Cipher`` with ``RSA/ECB/OAEPWithSHA-256AndMGF1Padding``, ``Signature``
with ``SHA256withRSA/PSS``) is built on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ct import constant_time_equals
from .errors import (
    InvalidPadding,
    MessageTooLong,
    ParameterError,
)
from .hashes import DIGEST_SIZES, canonical_name, hash_bytes
from .numbers import generate_prime, i2osp, modinv, os2ip

_PUBLIC_EXPONENT = 65537

#: Modulus sizes the CrySL rule set accepts.
SECURE_MODULUS_BITS = (2048, 3072, 4096)


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def bit_length(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def bit_length(self) -> int:
        return self.n.bit_length()

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


def generate_keypair(
    bits: int = 2048, rand_bytes: Callable[[int], bytes] | None = None
) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA key pair with a public exponent of 65537.

    ``bits`` below 512 are rejected outright; insecure-but-legal sizes
    (e.g. 1024) are permitted here because the security floor is the
    CrySL layer's job, and the SAST checker needs weak keys to flag.
    """
    if bits < 512:
        raise ParameterError(f"RSA modulus of {bits} bits is not supported")
    if bits % 2 != 0:
        raise ParameterError("RSA modulus size must be even")
    half = bits // 2
    while True:
        p = generate_prime(half, rand_bytes)
        q = generate_prime(half, rand_bytes)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = (p - 1) * (q - 1)
        if lam % _PUBLIC_EXPONENT == 0:
            continue
        d = modinv(_PUBLIC_EXPONENT, lam)
        return RsaPublicKey(n, _PUBLIC_EXPONENT), RsaPrivateKey(n, _PUBLIC_EXPONENT, d, p, q)


def _rsa_public(key: RsaPublicKey, m: int) -> int:
    if not 0 <= m < key.n:
        raise ParameterError("message representative out of range")
    return pow(m, key.e, key.n)


def _rsa_private(key: RsaPrivateKey, c: int) -> int:
    if not 0 <= c < key.n:
        raise ParameterError("ciphertext representative out of range")
    # CRT: m = CRT(c^d mod p, c^d mod q).
    dp = key.d % (key.p - 1)
    dq = key.d % (key.q - 1)
    qinv = modinv(key.q, key.p)
    m1 = pow(c % key.p, dp, key.p)
    m2 = pow(c % key.q, dq, key.q)
    h = (qinv * (m1 - m2)) % key.p
    return m2 + h * key.q


def mgf1(seed: bytes, length: int, algorithm: str = "SHA-256") -> bytes:
    """Mask generation function MGF1 (RFC 8017 appendix B.2.1)."""
    algorithm = canonical_name(algorithm)
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hash_bytes(algorithm, seed + i2osp(counter, 4)))
        counter += 1
    return bytes(out[:length])


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def oaep_encrypt(
    key: RsaPublicKey,
    message: bytes,
    rand_bytes: Callable[[int], bytes],
    algorithm: str = "SHA-256",
    label: bytes = b"",
) -> bytes:
    """RSAES-OAEP encryption."""
    algorithm = canonical_name(algorithm)
    h_len = DIGEST_SIZES[algorithm]
    k = key.byte_length
    max_message = k - 2 * h_len - 2
    if len(message) > max_message:
        raise MessageTooLong(
            f"OAEP with a {key.bit_length}-bit key and {algorithm} carries at most "
            f"{max_message} bytes, got {len(message)}"
        )
    l_hash = hash_bytes(algorithm, label)
    padding_string = bytes(k - len(message) - 2 * h_len - 2)
    data_block = l_hash + padding_string + b"\x01" + message
    seed = rand_bytes(h_len)
    masked_db = _xor(data_block, mgf1(seed, k - h_len - 1, algorithm))
    masked_seed = _xor(seed, mgf1(masked_db, h_len, algorithm))
    em = b"\x00" + masked_seed + masked_db
    return i2osp(_rsa_public(key, os2ip(em)), k)


def oaep_decrypt(
    key: RsaPrivateKey,
    ciphertext: bytes,
    algorithm: str = "SHA-256",
    label: bytes = b"",
) -> bytes:
    """RSAES-OAEP decryption; raises :class:`InvalidPadding` uniformly."""
    algorithm = canonical_name(algorithm)
    h_len = DIGEST_SIZES[algorithm]
    k = key.byte_length
    if len(ciphertext) != k or k < 2 * h_len + 2:
        raise InvalidPadding("decryption error")
    em = i2osp(_rsa_private(key, os2ip(ciphertext)), k)
    y, masked_seed, masked_db = em[0], em[1 : 1 + h_len], em[1 + h_len :]
    seed = _xor(masked_seed, mgf1(masked_db, h_len, algorithm))
    data_block = _xor(masked_db, mgf1(seed, k - h_len - 1, algorithm))
    l_hash = hash_bytes(algorithm, label)
    # Single uniform failure: collect all error conditions first.
    bad = y != 0
    bad |= not constant_time_equals(data_block[:h_len], l_hash)
    separator = -1
    for i in range(h_len, len(data_block)):
        if data_block[i] == 1 and separator < 0:
            separator = i
        elif data_block[i] != 0 and separator < 0:
            bad = True
            break
    if separator < 0:
        bad = True
    if bad:
        raise InvalidPadding("decryption error")
    return data_block[separator + 1 :]


def _pss_encode(
    message: bytes,
    em_bits: int,
    rand_bytes: Callable[[int], bytes],
    algorithm: str,
    salt_length: int,
) -> bytes:
    h_len = DIGEST_SIZES[algorithm]
    em_len = -(-em_bits // 8)
    if em_len < h_len + salt_length + 2:
        raise ParameterError("encoding error: modulus too small for PSS")
    m_hash = hash_bytes(algorithm, message)
    salt = rand_bytes(salt_length) if salt_length else b""
    m_prime = bytes(8) + m_hash + salt
    h = hash_bytes(algorithm, m_prime)
    padding_string = bytes(em_len - salt_length - h_len - 2)
    data_block = padding_string + b"\x01" + salt
    masked_db = _xor(data_block, mgf1(h, em_len - h_len - 1, algorithm))
    # Clear the leftmost 8*em_len - em_bits bits.
    clear_bits = 8 * em_len - em_bits
    masked_db = bytes([masked_db[0] & (0xFF >> clear_bits)]) + masked_db[1:]
    return masked_db + h + b"\xbc"


def _pss_verify_encoding(
    message: bytes, em: bytes, em_bits: int, algorithm: str, salt_length: int
) -> bool:
    h_len = DIGEST_SIZES[algorithm]
    em_len = -(-em_bits // 8)
    if em_len < h_len + salt_length + 2:
        return False
    if em[-1] != 0xBC:
        return False
    masked_db, h = em[: em_len - h_len - 1], em[em_len - h_len - 1 : -1]
    clear_bits = 8 * em_len - em_bits
    if masked_db[0] & ~(0xFF >> clear_bits) & 0xFF:
        return False
    data_block = _xor(masked_db, mgf1(h, em_len - h_len - 1, algorithm))
    data_block = bytes([data_block[0] & (0xFF >> clear_bits)]) + data_block[1:]
    pad_end = em_len - h_len - salt_length - 2
    if any(data_block[:pad_end]):
        return False
    if data_block[pad_end] != 0x01:
        return False
    salt = data_block[pad_end + 1 :]
    m_hash = hash_bytes(algorithm, message)
    m_prime = bytes(8) + m_hash + salt
    return constant_time_equals(hash_bytes(algorithm, m_prime), h)


def pss_sign(
    key: RsaPrivateKey,
    message: bytes,
    rand_bytes: Callable[[int], bytes],
    algorithm: str = "SHA-256",
    salt_length: int | None = None,
) -> bytes:
    """RSASSA-PSS signature generation."""
    algorithm = canonical_name(algorithm)
    if salt_length is None:
        salt_length = DIGEST_SIZES[algorithm]
    em_bits = key.bit_length - 1
    em = _pss_encode(message, em_bits, rand_bytes, algorithm, salt_length)
    return i2osp(_rsa_private(key, os2ip(em)), key.byte_length)


def pss_verify(
    key: RsaPublicKey,
    message: bytes,
    signature: bytes,
    algorithm: str = "SHA-256",
    salt_length: int | None = None,
) -> bool:
    """RSASSA-PSS verification: returns True/False, never raises on a
    merely-invalid signature (matching ``Signature.verify`` in the JCA)."""
    algorithm = canonical_name(algorithm)
    if salt_length is None:
        salt_length = DIGEST_SIZES[algorithm]
    if len(signature) != key.byte_length:
        return False
    em_bits = key.bit_length - 1
    em_len = -(-em_bits // 8)
    try:
        em = i2osp(_rsa_public(key, os2ip(signature)), key.byte_length)
    except ParameterError:
        return False
    em = em[-em_len:]
    return _pss_verify_encoding(message, em, em_bits, algorithm, salt_length)


def pkcs1v15_sign(key: RsaPrivateKey, message: bytes, algorithm: str = "SHA-256") -> bytes:
    """RSASSA-PKCS1-v1_5 signature generation (for legacy comparisons)."""
    algorithm = canonical_name(algorithm)
    em = _pkcs1v15_encode(message, key.byte_length, algorithm)
    return i2osp(_rsa_private(key, os2ip(em)), key.byte_length)


def pkcs1v15_verify(
    key: RsaPublicKey, message: bytes, signature: bytes, algorithm: str = "SHA-256"
) -> bool:
    """RSASSA-PKCS1-v1_5 verification by re-encoding."""
    algorithm = canonical_name(algorithm)
    if len(signature) != key.byte_length:
        return False
    try:
        em = i2osp(_rsa_public(key, os2ip(signature)), key.byte_length)
        expected = _pkcs1v15_encode(message, key.byte_length, algorithm)
    except (ParameterError, MessageTooLong):
        return False
    return constant_time_equals(em, expected)


# DigestInfo prefixes (RFC 8017 section 9.2 note 1).
_DIGEST_INFO = {
    "SHA-256": bytes.fromhex("3031300d060960864801650304020105000420"),
    "SHA-384": bytes.fromhex("3041300d060960864801650304020205000430"),
    "SHA-512": bytes.fromhex("3051300d060960864801650304020305000440"),
    "SHA-1": bytes.fromhex("3021300906052b0e03021a05000414"),
}


def _pkcs1v15_encode(message: bytes, em_len: int, algorithm: str) -> bytes:
    if algorithm not in _DIGEST_INFO:
        raise ParameterError(f"PKCS#1 v1.5 has no DigestInfo for {algorithm}")
    t = _DIGEST_INFO[algorithm] + hash_bytes(algorithm, message)
    if em_len < len(t) + 11:
        raise MessageTooLong("intended encoded message length too short")
    return b"\x00\x01" + b"\xff" * (em_len - len(t) - 3) + b"\x00" + t

