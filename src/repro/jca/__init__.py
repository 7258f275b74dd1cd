"""A JCA-style cryptographic provider implemented in Python.

This package plays the role of the Java Cryptography Architecture in the
reproduction: the CrySL rules in :mod:`repro.rules` specify *these*
classes, the code generator emits calls against *this* API, and the
generated code actually runs on the primitives underneath (hashlib/hmac
digests, pure-Python ciphers).

The API mirrors the JCA's shape (``get_instance`` factories, explicit
init/update/do_final typestates, parameter-spec objects) with snake_case
Python naming. See :mod:`repro.jca.pyca_mapping` for the correspondence
to pyca/`cryptography`.
"""

from .cipher import Cipher
from .digest import MessageDigest
from .exceptions import (
    BadPaddingError,
    DestroyFailedError,
    GeneralSecurityError,
    IllegalBlockSizeError,
    IllegalStateError,
    InvalidAlgorithmParameterError,
    InvalidKeyError,
    InvalidKeySpecError,
    NoSuchAlgorithmError,
    NoSuchPaddingError,
    SignatureError,
)
from .key_generator import KeyGenerator, KeyPairGenerator
from .key_store import KeyStore, KeyStoreError
from .keys import Key, KeyPair, PrivateKey, PublicKey, SecretKey, SecretKeySpec
from .mac import Mac
from .registry import (
    AES_KEY_SIZES,
    CIPHER_TRANSFORMATIONS,
    DIGEST_ALGORITHMS,
    KDF_ALGORITHMS,
    MAC_ALGORITHMS,
    RSA_KEY_SIZES,
    SIGNATURE_ALGORITHMS,
    Transformation,
    parse_transformation,
)
from .secret_key_factory import SecretKeyFactory
from .secure_random import SecureRandom
from .spec import GCMParameterSpec, IvParameterSpec, PBEKeySpec

__all__ = [
    "AES_KEY_SIZES",
    "BadPaddingError",
    "CIPHER_TRANSFORMATIONS",
    "Cipher",
    "DIGEST_ALGORITHMS",
    "DestroyFailedError",
    "GCMParameterSpec",
    "GeneralSecurityError",
    "IllegalBlockSizeError",
    "IllegalStateError",
    "InvalidAlgorithmParameterError",
    "InvalidKeyError",
    "InvalidKeySpecError",
    "IvParameterSpec",
    "KDF_ALGORITHMS",
    "Key",
    "KeyGenerator",
    "KeyPair",
    "KeyPairGenerator",
    "KeyStore",
    "KeyStoreError",
    "MAC_ALGORITHMS",
    "Mac",
    "MessageDigest",
    "NoSuchAlgorithmError",
    "NoSuchPaddingError",
    "PBEKeySpec",
    "PrivateKey",
    "PublicKey",
    "RSA_KEY_SIZES",
    "SIGNATURE_ALGORITHMS",
    "SecretKey",
    "SecretKeyFactory",
    "SecretKeySpec",
    "SecureRandom",
    "Signature",
    "SignatureError",
    "Transformation",
    "parse_transformation",
]

from .signature import Signature  # noqa: E402  (placed after __all__ for clarity)
