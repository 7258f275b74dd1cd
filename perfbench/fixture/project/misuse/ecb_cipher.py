"""Block encryption in ECB mode."""

from repro.jca import Cipher, SecretKey


def encrypt_block(key: SecretKey, data: bytes) -> bytes:
    cipher = Cipher.get_instance("AES/ECB/PKCS5Padding")
    cipher.init(1, key)
    out = cipher.do_final(data)
    return out
