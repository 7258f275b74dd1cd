"""An RSA key pair too short for current guidance, plus a key
generator that is initialised and then abandoned."""

from repro.jca import KeyGenerator, KeyPairGenerator


def make_signing_pair():
    generator = KeyPairGenerator.get_instance("RSA")
    generator.initialize(1024)
    pair = generator.generate_key_pair()
    return pair


def abandoned_key():
    g = KeyGenerator.get_instance("AES")
    g.init(128)
