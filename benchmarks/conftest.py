"""Shared fixtures for the benchmark harness."""

from __future__ import annotations

import pytest

from repro.codegen import CrySLBasedCodeGenerator
from repro.crysl import bundled_ruleset
from repro.sast import ProjectAnalyzer, SummaryCache


@pytest.fixture(scope="session")
def ruleset():
    return bundled_ruleset()


@pytest.fixture(scope="session")
def generator(ruleset):
    return CrySLBasedCodeGenerator(ruleset)


@pytest.fixture(scope="session")
def analyzer(ruleset):
    # No summary cache: a warm cache would replay every function and
    # the analysis benchmark would stop running the per-function engine.
    return ProjectAnalyzer(ruleset, summary_cache=SummaryCache(capacity=0))
