"""GenerationContext: compiled-rule caching, diagnostics, warm batches."""

from __future__ import annotations

import pytest

from repro.codegen import CrySLBasedCodeGenerator, GenerationContext
from repro.crysl.ruleset import RuleSet
from repro.diagnostics import (
    COMPILED_HITS,
    COMPILED_MISSES,
    DFA_BUILDS,
    PATH_ENUMERATIONS,
    STAGES,
)
from repro.usecases import USE_CASES


@pytest.fixture
def cold_context() -> GenerationContext:
    # A private, unfrozen rule set: its compiled cache starts cold no
    # matter what the process-wide bundled_ruleset() has already built.
    return GenerationContext(ruleset=RuleSet.bundled())


def test_compiled_artifacts_are_cached(cold_context):
    rule = next(iter(cold_context.ruleset))
    first = cold_context.compiled(rule)
    assert cold_context.compiled(rule) is first
    kernel = first.kernel
    assert first.kernel is kernel
    paths = first.paths
    assert first.paths is paths
    stats = cold_context.ruleset.diagnostics
    assert stats.counter(COMPILED_MISSES) == 1
    assert stats.counter(COMPILED_HITS) >= 1
    assert stats.counter(DFA_BUILDS) == 1
    assert stats.counter(PATH_ENUMERATIONS) == 1


def test_run_records_cache_deltas(cold_context):
    with cold_context.run() as diag:
        rule = next(iter(cold_context.ruleset))
        cold_context.compiled(rule).paths
    assert diag.counter(COMPILED_MISSES) == 1
    assert diag.counter(DFA_BUILDS) == 1
    assert diag.counter(PATH_ENUMERATIONS) == 1
    # A second run touching the same rule is all hits.
    with cold_context.run() as diag2:
        cold_context.compiled(rule).paths
    assert diag2.counter(COMPILED_MISSES) == 0
    assert diag2.counter(COMPILED_HITS) == 1
    assert diag2.counter(DFA_BUILDS) == 0
    assert cold_context.runs == 2


def test_warm_batch_rebuilds_nothing(cold_context):
    """Acceptance: a warm-cache batch over all Table-1 use cases rebuilds
    no DFA and re-enumerates no paths."""
    generator = CrySLBasedCodeGenerator(context=cold_context)
    templates = [case.template_path() for case in USE_CASES]

    cold = [generator.generate_from_file(t) for t in templates]
    assert len(cold) == len(USE_CASES)
    cold_builds = sum(m.diagnostics.counter(DFA_BUILDS) for m in cold)
    assert cold_builds > 0  # the cold pass really did compile rules
    assert sum(m.diagnostics.counter(PATH_ENUMERATIONS) for m in cold) > 0

    warm = [generator.generate_from_file(t) for t in templates]
    for module in warm:
        assert module.diagnostics.counter(DFA_BUILDS) == 0
        assert module.diagnostics.counter(PATH_ENUMERATIONS) == 0
        assert module.diagnostics.counter(COMPILED_MISSES) == 0
        assert module.diagnostics.counter(COMPILED_HITS) > 0

    # Warm output is byte-identical to cold output (cache is semantically
    # invisible).
    for before, after in zip(cold, warm):
        assert before.source == after.source


def test_generated_module_report_dict(cold_context):
    generator = CrySLBasedCodeGenerator(context=cold_context)
    module = generator.generate_from_file(USE_CASES[0].template_path())
    report = module.report_dict()
    assert report["template_class"] == module.template_class
    assert report["chains"]
    for chain in report["chains"]:
        assert chain["statements"] > 0
    diagnostics = report["diagnostics"]
    assert set(diagnostics["stages"]) <= set(STAGES)
    assert diagnostics["counters"]["chains"] == len(module.reports)
    # Every mandatory stage of the pipeline actually ran ("verify" only
    # runs when the generate→verify gate is enabled).
    assert set(diagnostics["stages"]) == set(STAGES) - {"verify"}


def test_generator_rejects_conflicting_ruleset_and_context(cold_context):
    other = RuleSet.bundled()
    with pytest.raises(ValueError):
        CrySLBasedCodeGenerator(other, context=cold_context)
    # Passing the context's own rule set is fine.
    generator = CrySLBasedCodeGenerator(cold_context.ruleset, context=cold_context)
    assert generator.context is cold_context


def test_shared_context_across_generators(cold_context):
    first = CrySLBasedCodeGenerator(context=cold_context)
    first.generate_from_file(USE_CASES[0].template_path())
    second = CrySLBasedCodeGenerator(context=cold_context)
    module = second.generate_from_file(USE_CASES[0].template_path())
    assert module.diagnostics.counter(DFA_BUILDS) == 0
    assert cold_context.runs == 2
