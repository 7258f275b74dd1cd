"""Shared fixtures: rule sets, engines, and a scratch target project."""

from __future__ import annotations

import pytest

from repro.codegen import CrySLBasedCodeGenerator, TargetProject
from repro.crysl import bundled_ruleset
from repro.sast import CrySLAnalyzer


@pytest.fixture(scope="session")
def ruleset():
    """The bundled JCA rule set (parsed once per session)."""
    return bundled_ruleset()


@pytest.fixture(scope="session")
def generator(ruleset):
    """A generator over the bundled rules."""
    return CrySLBasedCodeGenerator(ruleset)


@pytest.fixture(scope="session")
def analyzer(ruleset):
    """The rule-driven static analyzer."""
    return CrySLAnalyzer(ruleset)


@pytest.fixture(scope="session")
def use_case_project():
    """All eleven generated Table-1 use cases, as one project's sources."""
    from repro.usecases import USE_CASES, generate_use_case

    return {
        f"{case.slug}.py": generate_use_case(case.number).source
        for case in USE_CASES
    }


@pytest.fixture()
def project(tmp_path):
    """A fresh target project directory."""
    return TargetProject(tmp_path / "target")


@pytest.fixture(scope="session")
def rsa_keypair_1024():
    """A small RSA key pair shared across tests (pure-Python keygen of
    2048-bit keys is too slow to repeat per test)."""
    from repro.primitives.rsa import generate_keypair

    return generate_keypair(1024)


@pytest.fixture(scope="session")
def jca_keypair_1024():
    """A provider-level KeyPair built on the shared 1024-bit RSA key."""
    from repro.jca.keys import KeyPair, PrivateKey, PublicKey

    def _build():
        from repro.primitives.rsa import generate_keypair

        public, private = generate_keypair(1024)
        return KeyPair(PublicKey(public), PrivateKey(private))

    return _build()
