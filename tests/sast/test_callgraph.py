"""Call-graph SCC condensation, ordering and invalidation cones.

These exercise the Tarjan edge cases the incremental layer leans on:
self-recursion, mutually recursive pairs, cross-module cycles — and the
two derived views, callees-first ``order()`` and the invalidation cone
an edit re-keys in the summary cache.
"""

from __future__ import annotations

import pytest

from repro.pysource import parse
from repro.sast.callgraph import CallGraph, FunctionRef
from repro.sast.ir import FunctionIR, lift_module
from repro.sast.summary_cache import compute_summary_keys


def graph_of(edges: dict[str, list[str]]) -> CallGraph:
    """A CallGraph from ``"module:qualname" -> callees`` edge specs."""
    graph = CallGraph()

    def ref(spec: str) -> FunctionRef:
        module, _, qualname = spec.partition(":")
        return FunctionRef(module, qualname)

    nodes = set(edges)
    for callees in edges.values():
        nodes.update(callees)
    for spec in nodes:
        r = ref(spec)
        graph.functions[r] = FunctionIR(
            name=r.qualname, qualname=r.qualname, module=r.module, line=1
        )
        graph.edges.setdefault(r, set())
        graph.reverse_edges.setdefault(r, set())
    for caller, callees in edges.items():
        for callee in callees:
            graph.edges[ref(caller)].add(ref(callee))
            graph.reverse_edges[ref(callee)].add(ref(caller))
    return graph


def names(refs) -> list[str]:
    return [str(r) for r in refs]


class TestCondensation:
    def test_self_recursive_function_is_its_own_component(self):
        graph = graph_of({"m:f": ["m:f", "m:g"], "m:g": []})
        components = graph.condensation()
        assert [names(c) for c in components] == [["m:g"], ["m:f"]]

    def test_mutually_recursive_pair_condenses_to_one_component(self):
        graph = graph_of({"m:even": ["m:odd"], "m:odd": ["m:even"]})
        (component,) = graph.condensation()
        assert names(component) == ["m:even", "m:odd"]

    def test_cross_module_cycle_is_one_component(self):
        graph = graph_of(
            {
                "a:ping": ["b:pong"],
                "b:pong": ["a:ping"],
                "c:outside": ["a:ping"],
            }
        )
        components = graph.condensation()
        assert [names(c) for c in components] == [
            ["a:ping", "b:pong"],  # the cycle, callees-first
            ["c:outside"],
        ]

    def test_members_within_a_component_come_back_name_sorted(self):
        graph = graph_of(
            {"m:zulu": ["m:alpha"], "m:alpha": ["m:mike"], "m:mike": ["m:zulu"]}
        )
        (component,) = graph.condensation()
        assert names(component) == ["m:alpha", "m:mike", "m:zulu"]

    def test_condensation_is_deterministic(self):
        edges = {
            "m:a": ["m:b", "m:c"],
            "m:b": ["m:d"],
            "m:c": ["m:d"],
            "m:d": [],
        }
        first = [names(c) for c in graph_of(edges).condensation()]
        second = [names(c) for c in graph_of(edges).condensation()]
        assert first == second


class TestOrder:
    def test_callees_appear_before_callers(self):
        graph = graph_of(
            {
                "m:top": ["m:mid1", "m:mid2"],
                "m:mid1": ["m:leaf"],
                "m:mid2": ["m:leaf"],
                "m:leaf": [],
            }
        )
        order = names(graph.order())
        assert order.index("m:leaf") < order.index("m:mid1")
        assert order.index("m:leaf") < order.index("m:mid2")
        assert order.index("m:mid1") < order.index("m:top")
        assert order.index("m:mid2") < order.index("m:top")

    def test_order_covers_every_function_once(self):
        graph = graph_of(
            {"m:a": ["m:b"], "m:b": ["m:a"], "m:c": ["m:a"], "m:d": []}
        )
        order = names(graph.order())
        assert sorted(order) == ["m:a", "m:b", "m:c", "m:d"]

    def test_cycle_members_are_adjacent_after_their_callees(self):
        graph = graph_of(
            {"m:x": ["m:y", "m:leaf"], "m:y": ["m:x"], "m:leaf": []}
        )
        assert names(graph.order()) == ["m:leaf", "m:x", "m:y"]


def rekeyed(analyzer, sources, edited) -> list[str]:
    """The invalidation cone of an edit, as the summary cache sees it:
    every function whose summary key changes when ``sources`` become
    ``edited``."""

    def keys(texts):
        functions = []
        for key, text in texts.items():
            functions.extend(
                lift_module(
                    parse(text, key),
                    analyzer.analyzer.tracked_classes,
                    analyzer.analyzer.result_classes,
                    module_name=key,
                    file=key,
                )
            )
        return compute_summary_keys(CallGraph.build(functions), texts, "fp")

    before, after = keys(sources), keys(edited)
    return sorted(str(ref) for ref in before if after.get(ref) != before[ref])


CHAIN = {
    "m.py": (
        "def leaf():\n"
        "    return 1\n"
        "def helper():\n"
        "    x = leaf()\n"
        "    return x\n"
        "def main():\n"
        "    y = helper()\n"
        "    return y\n"
        "def unrelated():\n"
        "    return 2\n"
    )
}


class TestInvalidationCone:
    def test_cone_is_changed_plus_transitive_callers(self, analyzer):
        edited = {"m.py": CHAIN["m.py"].replace("return 1", "return 3")}
        assert rekeyed(analyzer, CHAIN, edited) == [
            "m.py:helper", "m.py:leaf", "m.py:main"
        ]

    def test_change_to_a_root_only_touches_the_root(self, analyzer):
        edited = {"m.py": CHAIN["m.py"].replace("return y", "return 0")}
        assert rekeyed(analyzer, CHAIN, edited) == ["m.py:main"]

    def test_cycle_member_pulls_in_the_whole_cycle(self, analyzer):
        sources = {
            "a.py": "def ping(n):\n    r = pong(n)\n    return r\n",
            "b.py": "def pong(n):\n    r = ping(n)\n    return r\n",
            "c.py": (
                "def caller():\n"
                "    r = ping(1)\n"
                "    return r\n"
                "def bystander():\n"
                "    return 1\n"
            ),
        }
        edited = {**sources, "b.py": sources["b.py"].replace("r = ", "s = ")}
        assert rekeyed(analyzer, sources, edited) == [
            "a.py:ping", "b.py:pong", "c.py:caller"
        ]

    def test_cone_over_real_cross_module_sources(self, analyzer):
        """The end-to-end shape: lift real sources, change the helper
        module, and check the cone stays inside helper + its callers."""
        sources = {
            "helpers.py": (
                "def make_iv():\n"
                "    return b'0' * 16\n"
            ),
            "app.py": (
                "from helpers import make_iv\n"
                "def run():\n"
                "    iv = make_iv()\n"
                "    return iv\n"
            ),
            "other.py": (
                "def standalone():\n"
                "    return 1\n"
            ),
        }
        edited = {**sources, "helpers.py": "def make_iv():\n    return b''\n"}
        cone = rekeyed(analyzer, sources, edited)
        assert "app.py:run" in cone
        assert "other.py:standalone" not in cone
