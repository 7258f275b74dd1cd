"""The type registry: resolution and subtype queries."""

from __future__ import annotations

from repro.constraints.types import TypeRegistry, default_registry
from repro.jca import SecretKey, SecretKeySpec


def test_primitive_resolution():
    registry = TypeRegistry()
    assert registry.resolve("int") is int
    assert registry.resolve("bytearray") is bytearray


def test_qualified_resolution():
    registry = TypeRegistry()
    assert registry.resolve("repro.jca.SecretKey") is SecretKey


def test_bare_name_resolves_against_provider_namespace():
    registry = TypeRegistry()
    assert registry.resolve("SecretKeySpec") is SecretKeySpec


def test_unknown_type_is_none():
    registry = TypeRegistry()
    assert registry.resolve("no.such.Type") is None
    assert registry.resolve("NoSuchClass") is None


def test_subtype_positive():
    registry = TypeRegistry()
    assert registry.is_subtype("repro.jca.SecretKeySpec", "repro.jca.SecretKey") is True
    assert registry.is_subtype("repro.jca.SecretKey", "repro.jca.Key") is True


def test_subtype_reflexive_without_resolution():
    registry = TypeRegistry()
    assert registry.is_subtype("whatever.Type", "whatever.Type") is True


def test_subtype_negative():
    registry = TypeRegistry()
    assert registry.is_subtype("repro.jca.PublicKey", "repro.jca.SecretKey") is False


def test_subtype_unknown_is_none():
    registry = TypeRegistry()
    assert registry.is_subtype("no.such.Type", "repro.jca.SecretKey") is None


def test_default_registry_is_cached():
    assert default_registry() is default_registry()


def test_resolution_is_cached():
    registry = TypeRegistry()
    first = registry.resolve("repro.jca.Cipher")
    assert registry.resolve("repro.jca.Cipher") is first
