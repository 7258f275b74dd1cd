"""Differential suite: the memoised selector vs. the reference evaluator.

:func:`repro.codegen.selector.select` solves each instance term once per
call and shares it between every combination with the same key. The
reference in :mod:`tests.codegen.reference` re-solves every instance of
every combination from scratch. Both must choose the same plan — the
same paths, score, active links and drops, and per instance the same
bindings in the same order, push-ups, deferrals and receiver push — on
every chain of every bundled template, on chains composed from them,
and through the greedy fallback as well as the exhaustive search.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.codegen.selector as selector_module
import repro.usecases
from repro.codegen import (
    ConsideredRule,
    GenerationContext,
    GenerationRequest,
    parse_template_source,
)
from repro.codegen.selector import GenerationError, select
from repro.crysl import bundled_ruleset

from ..integration.test_generation_properties import (
    _distinct_names,
    _encrypt_template,
    _hash_template,
    _pbe_template,
)
from .reference import plan_view, reference_select

TEMPLATES_DIR = Path(repro.usecases.__file__).parent / "templates"
_CONTEXT = GenerationContext(bundled_ruleset())


def _chains_of(source: str, name: str) -> list[tuple[str, GenerationRequest]]:
    model = parse_template_source(source, name)
    return [
        (method.name, method.chain)
        for method in model.primary_class.methods
        if method.chain is not None
    ]


TEMPLATE_CHAINS = [
    (f"{path.stem}.{method}", chain)
    for path in sorted(TEMPLATES_DIR.glob("[!_]*.py"))
    for method, chain in _chains_of(path.read_text(encoding="utf-8"), path.name)
]


def _outcome(search, request: GenerationRequest, context, **kwargs):
    instances = request.to_instances(_CONTEXT.ruleset)
    try:
        return plan_view(search(instances, context=context, **kwargs))
    except GenerationError:
        return GenerationError


def _assert_same_choice(request, monkeypatch, *, greedy=False, context=_CONTEXT):
    if greedy:
        monkeypatch.setattr(selector_module, "MAX_COMBINATIONS", 0)
        expected = _outcome(
            reference_select, request, context=context, max_combinations=0
        )
    else:
        expected = _outcome(reference_select, request, context=context)
    assert _outcome(select, request, context=context) == expected


def test_every_template_chain_is_covered():
    assert {name.split(".")[0] for name, _ in TEMPLATE_CHAINS} == {
        path.stem for path in TEMPLATES_DIR.glob("[!_]*.py")
    }


@pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
@pytest.mark.parametrize(
    "request_", [chain for _, chain in TEMPLATE_CHAINS],
    ids=[name for name, _ in TEMPLATE_CHAINS],
)
def test_template_chain_matches_reference(request_, greedy, monkeypatch):
    _assert_same_choice(request_, monkeypatch, greedy=greedy)


@pytest.mark.parametrize("greedy", [False, True], ids=["exhaustive", "greedy"])
def test_without_context_matches_reference(greedy, monkeypatch):
    """Without a generation context every rule is enumerated and checked
    through the uncompiled helpers; the memo must not depend on it."""
    for _, chain in TEMPLATE_CHAINS[:6]:
        _assert_same_choice(chain, monkeypatch, greedy=greedy, context=None)


@st.composite
def _composed_requests(draw):
    """An ordered sub-chain of a bundled template's chain, each kept rule
    with a subset of its template bindings: links, waivers and template
    objects come and go, so drops, push-ups and unsatisfied REQUIRES
    all show up."""
    _, chain = draw(st.sampled_from(TEMPLATE_CHAINS))
    keep = draw(
        st.lists(st.booleans(), min_size=len(chain.considered),
                 max_size=len(chain.considered)).filter(any)
    )
    considered = []
    for kept, rule in zip(keep, chain.considered):
        if not kept:
            continue
        bindings = [b for b in rule.bindings if draw(st.booleans())]
        considered.append(
            ConsideredRule(
                rule.rule_name,
                bindings,
                rule.return_target if draw(st.booleans()) else None,
                dict(rule.output_bindings),
            )
        )
    return GenerationRequest(considered=considered)


@settings(max_examples=40, deadline=None)
@given(request_=_composed_requests(), greedy=st.booleans())
def test_composed_chain_matches_reference(request_, greedy):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_choice(request_, monkeypatch, greedy=greedy)


@pytest.mark.parametrize(
    "builder", [_hash_template, _pbe_template, _encrypt_template]
)
@settings(max_examples=5, deadline=None)
@given(names=_distinct_names)
def test_property_shapes_match_reference(builder, names):
    for _, chain in _chains_of(builder(names), "fuzz.py"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_same_choice(chain, monkeypatch)
