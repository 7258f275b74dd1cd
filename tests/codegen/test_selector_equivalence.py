"""Differential suite: the memoised selector vs. the reference evaluator.

:func:`repro.codegen.selector.select` solves each instance term once per
call, shares it between every combination with the same key and prunes
the combinations that cannot beat its best plan. The reference in
:mod:`tests.codegen.reference` scores every combination, re-solving
every instance from scratch. Both must choose the same plan — the same
paths, score, active links and drops, and per instance the same
bindings in the same order, push-ups, deferrals and receiver push — on
every chain of every bundled template and on chains composed from them.
Above the product the reference can score in test time, the search must
still find the exhaustive optimum (:mod:`tests.codegen.test_selector`).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.usecases
from repro.codegen import (
    ConsideredRule,
    GenerationContext,
    GenerationRequest,
    parse_template_source,
)
from repro.codegen.selector import GenerationError, candidate_paths, select
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


def _outcome(search, request: GenerationRequest, context):
    instances = request.to_instances(_CONTEXT.ruleset)
    try:
        return plan_view(search(instances, context=context))
    except GenerationError:
        return GenerationError


def _assert_same_choice(request, oracle=reference_select, *, context=_CONTEXT):
    expected = _outcome(oracle, request, context=context)
    assert _outcome(select, request, context=context) == expected


#: The one oracle: every combination scored. Its id names the search
#: the program must agree with.
_EXHAUSTIVE = pytest.mark.parametrize(
    "oracle", [reference_select], ids=["exhaustive"]
)


def test_every_template_chain_is_covered():
    assert {name.split(".")[0] for name, _ in TEMPLATE_CHAINS} == {
        path.stem for path in TEMPLATES_DIR.glob("[!_]*.py")
    }


@_EXHAUSTIVE
@pytest.mark.parametrize(
    "request_", [chain for _, chain in TEMPLATE_CHAINS],
    ids=[name for name, _ in TEMPLATE_CHAINS],
)
def test_template_chain_matches_reference(request_, oracle):
    _assert_same_choice(request_, oracle)


@_EXHAUSTIVE
def test_without_context_matches_reference(oracle):
    """Without a generation context the selector compiles each rule
    afresh while the reference goes through the uncompiled helpers;
    the plan must not depend on it."""
    for _, chain in TEMPLATE_CHAINS[:6]:
        _assert_same_choice(chain, oracle, context=None)


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
@given(request_=_composed_requests())
def test_composed_chain_matches_reference(request_):
    _assert_same_choice(request_)


def _combinations(request: GenerationRequest) -> int:
    product = 1
    for instance in request.to_instances(_CONTEXT.ruleset):
        compiled = _CONTEXT.compiled(instance.rule)
        product *= len(candidate_paths(instance, compiled.paths))
    return product


def _concatenation(first: GenerationRequest, second: GenerationRequest):
    return GenerationRequest(considered=first.considered + second.considered)


@st.composite
def _concatenated_requests(draw):
    """Two template chains back to back: a longer chain whose second
    half can link to the first, as chains over more rules do."""
    _, first = draw(st.sampled_from(TEMPLATE_CHAINS))
    _, second = draw(st.sampled_from(TEMPLATE_CHAINS))
    return _concatenation(first, second)


@settings(max_examples=40, deadline=None)
@given(
    request_=_concatenated_requests().filter(
        # keeps the exhaustive oracle fast
        lambda request: _combinations(request) <= 2_000
    )
)
@example(
    # The best plan is not the first one found, and a bound that
    # overestimates the rest of the chain prunes it.
    request_=_concatenation(
        dict(TEMPLATE_CHAINS)["key_storage.create"],
        dict(TEMPLATE_CHAINS)["pbe_bytes.decrypt"],
    )
)
def test_concatenated_chains_match_reference(request_):
    _assert_same_choice(request_)


@pytest.mark.parametrize(
    "builder", [_hash_template, _pbe_template, _encrypt_template]
)
@settings(max_examples=5, deadline=None)
@given(names=_distinct_names)
def test_property_shapes_match_reference(builder, names):
    for _, chain in _chains_of(builder(names), "fuzz.py"):
        _assert_same_choice(chain)
