"""A cipher used before it is initialised."""

from repro.jca import Cipher


def seal(data: bytes) -> bytes:
    c = Cipher.get_instance("AES/GCM/NoPadding")
    out = c.do_final(data)
    return out
