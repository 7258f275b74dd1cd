"""The one batch API: ``generate_many`` at ``jobs=2`` gives the ``jobs=1``
result, and a pooled batch keeps every per-request step — the result
cache, the breakers and the DFA-build accounting."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro.usecases
from repro.crysl import RuleSet
from repro.diagnostics import DFA_BUILDS
from repro.engine import BreakerConfig, CryptoGenEngine
from repro.usecases import use_case

BUNDLED = sorted(
    str(path)
    for path in (Path(repro.usecases.__file__).parent / "templates").glob(
        "[!_]*.py"
    )
)


@pytest.fixture
def bad_templates(tmp_path):
    """A template without a fluent chain, one that is not Python, and a
    path that does not exist."""
    no_chain = tmp_path / "no_chain.py"
    no_chain.write_text("class Empty:\n    pass\n")
    syntax = tmp_path / "syn.py"
    syntax.write_text("class Broken(:\n")
    return [str(no_chain), str(syntax), str(tmp_path / "missing.py")]


def _outcome(result):
    error = result.error
    return (
        result.ok,
        error.type if error else None,
        error.message if error else None,
        result.module.source if result.module else None,
    )


def _matrix(templates):
    """``(jobs=1 results, jobs=2 results)``, each from a fresh engine."""
    runs = []
    for jobs in (1, 2):
        with CryptoGenEngine() as engine:
            runs.append(engine.generate_many(templates, jobs=jobs))
    return runs


def test_bundled_and_bad_templates_match_at_every_index(bad_templates):
    assert len(BUNDLED) == 13
    templates = BUNDLED + bad_templates
    serial, parallel = _matrix(templates)
    assert len(serial) == len(parallel) == len(templates)
    assert [r.ok for r in serial] == [True] * 13 + [False] * 3
    assert [_outcome(r) for r in parallel] == [_outcome(r) for r in serial]


def test_error_messages_match_serial(bad_templates):
    no_chain, _, missing = bad_templates
    serial, parallel = _matrix([no_chain, BUNDLED[0], missing])
    assert [_outcome(r) for r in parallel] == [_outcome(r) for r in serial]
    assert serial[0].error.type == "TemplateError"
    assert serial[2].error.type == "FileNotFoundError"


def test_cold_pool_batch_credits_every_dfa_build():
    templates = [str(use_case(n).template_path()) for n in (1, 11)]
    with CryptoGenEngine(ruleset=RuleSet.bundled()) as engine:
        before = engine.diagnostics.counter(DFA_BUILDS)
        results = engine.generate_many(templates, jobs=2)
        rise = engine.diagnostics.counter(DFA_BUILDS) - before
    assert all(r.ok for r in results)
    builds = sum(r.dfa_builds for r in results)
    assert builds > 0
    assert builds == rise


def test_pool_batch_consults_the_result_cache():
    templates = [str(use_case(n).template_path()) for n in (1, 11)]
    with CryptoGenEngine() as engine:
        first = engine.generate_many(templates, jobs=2)
        batches = engine.pool(2).to_dict()["batches"]
        second = engine.generate_many(templates, jobs=2)
        assert engine.pool(2).to_dict()["batches"] == batches
    assert not any(r.cached for r in first)
    assert all(r.cached and r.dfa_builds == 0 for r in second)
    assert [r.module.source for r in second] == [
        r.module.source for r in first
    ]


def test_pool_batch_trips_and_honours_breakers(bad_templates):
    no_chain = bad_templates[0]
    good = str(use_case(11).template_path())
    config = BreakerConfig(failure_threshold=2, cooldown_seconds=60.0)
    with CryptoGenEngine(breaker_config=config) as engine:
        for _ in range(2):
            results = engine.generate_many([no_chain, good], jobs=2)
            assert results[0].error.type == "TemplateError"
        results = engine.generate_many([no_chain, good], jobs=2)
    assert results[0].error.type == "CircuitOpenError"
    assert results[0].error.retryable
    assert results[1].ok


def test_pool_batch_results_share_the_batch_trace():
    templates = [str(use_case(n).template_path()) for n in (1, 11)]
    with CryptoGenEngine() as engine:
        results = engine.generate_many(templates, jobs=2)
    batch_id = results[0].trace.request_id
    assert [r.request_id for r in results] == [
        f"{batch_id}.0",
        f"{batch_id}.1",
    ]
    assert results[1].trace is results[0].trace


def test_pool_is_clamped_to_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with CryptoGenEngine() as engine:
        # Building the pool object starts no worker process.
        assert engine.pool(64).jobs == 2
