"""``Mac``: the provider's message-authentication service."""

from __future__ import annotations

import hmac

from ..primitives.hashes import DIGEST_SIZES
from ..primitives.mac import new_hmac
from .exceptions import IllegalStateError, InvalidKeyError, NoSuchAlgorithmError
from .keys import SecretKey
from .registry import MAC_ALGORITHMS, parse_mac


class Mac:
    """HMAC service with the JCA's init/update/do_final typestate.

    >>> from repro.jca.keys import SecretKeySpec
    >>> mac = Mac.get_instance("HmacSHA256")
    >>> mac.init(SecretKeySpec(bytes(32), "HmacSHA256"))
    >>> tag = mac.do_final(b"message")
    >>> len(tag)
    32
    """

    def __init__(self, algorithm: str):
        if algorithm not in MAC_ALGORITHMS:
            raise NoSuchAlgorithmError(algorithm, MAC_ALGORITHMS)
        self.algorithm = algorithm
        self._digest = parse_mac(algorithm)
        self._key: bytes | None = None
        self._hmac: hmac.HMAC | None = None

    @classmethod
    def get_instance(cls, algorithm: str) -> "Mac":
        return cls(algorithm)

    def init(self, key: SecretKey) -> None:
        """Key the MAC. Must be called before update/do_final."""
        if not isinstance(key, SecretKey):
            raise InvalidKeyError(f"Mac requires a SecretKey, got {type(key).__name__}")
        self._key = key.get_encoded()
        self._hmac = new_hmac(self._key, self._digest)

    def update(self, data: bytes | bytearray) -> None:
        """Absorb more input."""
        if self._hmac is None:
            raise IllegalStateError("Mac not initialized; call init(key) first")
        self._hmac.update(bytes(data))

    def do_final(self, data: bytes | bytearray | None = None) -> bytes:
        """Finish the MAC (optionally absorbing a final chunk) and reset."""
        if self._hmac is None or self._key is None:
            raise IllegalStateError("Mac not initialized; call init(key) first")
        if data is not None:
            self.update(data)
        tag = self._hmac.digest()
        self._hmac = new_hmac(self._key, self._digest)
        return tag

    def reset(self) -> None:
        """Discard absorbed input, keep the key."""
        if self._key is not None:
            self._hmac = new_hmac(self._key, self._digest)

    def get_mac_length(self) -> int:
        """Output length in bytes."""
        return DIGEST_SIZES[self._digest]
