"""A password fingerprint built on MD5."""

from repro.jca import MessageDigest


def fingerprint(password: bytes) -> bytes:
    md = MessageDigest.get_instance("MD5")
    digest = md.digest(password)
    return digest
