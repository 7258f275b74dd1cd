"""The paper's Figure 1, transliterated: plausible PBE key derivation
that runs fine yet misuses the API."""

from repro.jca import PBEKeySpec, SecretKeyFactory, SecretKeySpec


def generate_key(pwd):
    salt = b"\x0f\xf4\x5e\x00\x0c\x03\xbf\x49\xff\xac\xdd"
    spec = PBEKeySpec(pwd, salt, 100000, 256)
    skf = SecretKeyFactory.get_instance("PBKDF2WithHmacSHA256")
    key = skf.generate_secret(spec)
    key_material = key.get_encoded()
    cipher_key = SecretKeySpec(key_material, "AES")
    return cipher_key
