"""Whole-project analysis cost, and the disk-cache reuse guarantee.

The acceptance bar for the interprocedural engine: a ProjectAnalyzer
over a *primed* persistent rule cache performs **zero** DFA builds —
all automata load from the artefact store the generator already wrote.
"""

from __future__ import annotations

import pytest

from repro.cache import DiskRuleCache
from repro.crysl import RuleSet
from repro.sast import ProjectAnalyzer
from repro.usecases import USE_CASES, generate_use_case


@pytest.fixture(scope="module")
def project_sources():
    """All eleven generated use cases, as one project."""
    return {
        f"{case.slug}.py": generate_use_case(case.number).source
        for case in USE_CASES
    }


@pytest.fixture(scope="module")
def primed_cache_dir(tmp_path_factory):
    """A disk cache primed by compiling every bundled rule once."""
    cache_dir = tmp_path_factory.mktemp("rule-cache")
    ruleset = RuleSet.bundled().freeze()
    ruleset.attach_disk_cache(DiskRuleCache(cache_dir))
    for rule in ruleset:
        compiled = ruleset.compiled(rule)
        compiled.kernel  # force the expensive artefacts so they persist
        compiled.paths
    assert ruleset.flush_disk_cache() > 0
    return cache_dir


def _warm_analyzer(cache_dir) -> tuple[ProjectAnalyzer, RuleSet]:
    """A fresh analyzer whose (fresh) rule set loads from the store."""
    ruleset = RuleSet.bundled().freeze()
    ruleset.attach_disk_cache(DiskRuleCache(cache_dir))
    return ProjectAnalyzer(ruleset), ruleset


def test_warm_project_analysis_rebuilds_no_dfa(
    primed_cache_dir, project_sources
):
    analyzer, ruleset = _warm_analyzer(primed_cache_dir)
    result = analyzer.analyze_sources(project_sources)
    assert result.is_secure, result.render()
    stats = ruleset.compile_stats
    assert stats.dfa_builds == 0, (
        f"warm analysis rebuilt {stats.dfa_builds} DFAs"
    )
    assert stats.path_enumerations == 0
    assert stats.disk_hits > 0


def test_project_analysis_warm(benchmark, primed_cache_dir, project_sources):
    """Wall-clock of one whole-project pass over the eleven use cases
    with every rule artefact coming from the disk store."""
    analyzer, _ = _warm_analyzer(primed_cache_dir)

    result = benchmark(analyzer.analyze_sources, project_sources)
    assert result.is_secure


def test_project_analysis_cold(benchmark, project_sources):
    """The cache-less baseline (compiles rules on first use)."""

    def run():
        return ProjectAnalyzer(RuleSet.bundled()).analyze_sources(
            project_sources
        )

    result = benchmark(run)
    assert result.is_secure
