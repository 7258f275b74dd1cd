"""Cryptographic primitives backing the JCA-style provider.

This package is the bottom layer of the reproduction stack:

================  ====================================================
Module            Provides
================  ====================================================
``aes``           AES-128/192/256 block cipher (FIPS 197)
``modes``         CBC (PKCS#7), CTR and GCM over the AES block
``gf128``         GF(2^128) arithmetic and GHASH for GCM
``padding``       PKCS#7 pad/unpad
``hashes``        JCA digest names over ``hashlib``
``mac``           HMAC (FIPS 198-1) over the stdlib ``hmac``
``kdf``           PBKDF2-HMAC over ``hashlib.pbkdf2_hmac``
``rsa``           RSA keygen, OAEP, PSS, PKCS#1 v1.5
``numbers``       Miller–Rabin, prime generation, modular arithmetic
``random``        OS entropy source and HMAC-DRBG (SP 800-90A)
``ct``            constant-time-shaped comparisons
================  ====================================================

SHA, HMAC and PBKDF2 come from the standard library; AES, GCM, RSA and
the DRBG are pure Python by design, so the cipher stack stays auditable.
Nothing in here knows about CrySL or code generation; the provider in
:mod:`repro.jca` is the only consumer.
"""

from .aes import AES, BLOCK_SIZE
from .ct import constant_time_equals
from .errors import (
    CryptoError,
    InvalidBlockSize,
    InvalidKeyLength,
    InvalidPadding,
    InvalidSignature,
    InvalidTag,
    MessageTooLong,
    ParameterError,
)
from .gf128 import GHASH, gf_mult
from .hashes import SECURE_DIGESTS, hash_bytes, new_hash
from .kdf import pbkdf2
from .mac import hmac_digest, new_hmac
from .modes import cbc_decrypt, cbc_encrypt, ctr_transform, gcm_decrypt, gcm_encrypt
from .numbers import generate_prime, is_probable_prime, modinv
from .padding import pad, unpad
from .random import HmacDrbg, OsRandomSource
from .rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    oaep_decrypt,
    oaep_encrypt,
    pkcs1v15_sign,
    pkcs1v15_verify,
    pss_sign,
    pss_verify,
)

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "GHASH",
    "HmacDrbg",
    "OsRandomSource",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SECURE_DIGESTS",
    "CryptoError",
    "InvalidBlockSize",
    "InvalidKeyLength",
    "InvalidPadding",
    "InvalidSignature",
    "InvalidTag",
    "MessageTooLong",
    "ParameterError",
    "cbc_decrypt",
    "cbc_encrypt",
    "constant_time_equals",
    "ctr_transform",
    "gcm_decrypt",
    "gcm_encrypt",
    "generate_keypair",
    "generate_prime",
    "gf_mult",
    "hash_bytes",
    "hmac_digest",
    "is_probable_prime",
    "modinv",
    "new_hash",
    "new_hmac",
    "oaep_decrypt",
    "oaep_encrypt",
    "pad",
    "pbkdf2",
    "pkcs1v15_sign",
    "pkcs1v15_verify",
    "pss_sign",
    "pss_verify",
    "unpad",
]
