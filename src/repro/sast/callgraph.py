"""A call graph over the lifted functions of a project.

Resolution is name-based and deliberately conservative, mirroring the
shapes the generator emits: ``self.method(...)`` inside a class,
``instance.method(...)`` on a project-defined class (wrapper objects,
including ones instantiated in a *different* module — class names are
resolved project-wide), and bare ``helper(...)`` calls to module-level
functions. Anything that cannot be resolved to exactly one project
function stays unresolved, and the analyzer treats the call as opaque
glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import FunctionIR, HelperCall


@dataclass(frozen=True)
class FunctionRef:
    """A stable key for one project function."""

    module: str
    qualname: str

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


def ref_of(ir: FunctionIR) -> FunctionRef:
    return FunctionRef(ir.module, ir.qualname)


@dataclass
class CallGraph:
    """Functions, resolved call edges, and a callees-first order."""

    functions: dict[FunctionRef, FunctionIR] = field(default_factory=dict)
    #: caller -> set of resolved callees
    edges: dict[FunctionRef, set[FunctionRef]] = field(default_factory=dict)
    #: callee -> set of callers
    reverse_edges: dict[FunctionRef, set[FunctionRef]] = field(default_factory=dict)

    @classmethod
    def build(cls, functions: list[FunctionIR]) -> "CallGraph":
        graph = cls()
        methods: dict[tuple[str, str], FunctionRef] = {}
        module_functions: dict[tuple[str, str], FunctionRef] = {}
        #: bare function name -> refs across all modules (for cross-file
        #: imports of helpers, accepted only when unambiguous)
        global_functions: dict[str, list[FunctionRef]] = {}
        for ir in functions:
            ref = ref_of(ir)
            graph.functions[ref] = ir
            graph.edges[ref] = set()
            graph.reverse_edges.setdefault(ref, set())
            if ir.owner_class is not None:
                methods[(ir.owner_class, ir.name)] = ref
            else:
                module_functions[(ir.module, ir.name)] = ref
                global_functions.setdefault(ir.name, []).append(ref)

        graph._methods = methods
        graph._module_functions = module_functions
        graph._global_functions = global_functions

        for ir in functions:
            caller = ref_of(ir)
            for call in ir.helper_calls:
                callee = graph.resolve(ir, call)
                if callee is None:
                    continue
                graph.edges[caller].add(callee)
                graph.reverse_edges.setdefault(callee, set()).add(caller)
        return graph

    def resolve(self, ir: FunctionIR, call: HelperCall) -> FunctionRef | None:
        """The unique project function a helper call targets, if any."""
        if call.receiver_class is not None:
            return self._methods.get((call.receiver_class, call.callee))
        if call.receiver is not None:
            return None  # method on a receiver of unknown class
        local = self._module_functions.get((ir.module, call.callee))
        if local is not None:
            return local
        candidates = self._global_functions.get(call.callee, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def has_callers(self, ref: FunctionRef) -> bool:
        return bool(self.reverse_edges.get(ref))

    def condensation(self) -> list[list[FunctionRef]]:
        """Strongly connected components in callees-first order.

        Each component's members come back in name order; components
        are ordered so every (inter-component) callee appears before
        its callers. This is the unit of incremental invalidation: a
        cycle's members summarize each other, so the summary cache
        keys a whole component together (:mod:`repro.sast.
        summary_cache`).
        """
        sccs = self._tarjan()
        # Map each ref to its component id, then topologically sort the
        # condensation with callees first.
        component_of = {}
        for index, component in enumerate(sccs):
            for ref in component:
                component_of[ref] = index
        component_edges: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
        for caller, callees in self.edges.items():
            for callee in callees:
                a, b = component_of[caller], component_of[callee]
                if a != b:
                    component_edges[a].add(b)
        # Kahn's algorithm on the condensation, emitting components with
        # no unprocessed callees first; ties broken by smallest member
        # name for determinism.
        remaining = {i: set(deps) for i, deps in component_edges.items()}
        key_of = {i: min(str(ref) for ref in sccs[i]) for i in remaining}
        out: list[list[FunctionRef]] = []
        emitted: set[int] = set()
        while remaining:
            ready = sorted(
                (i for i, deps in remaining.items() if not deps),
                key=key_of.__getitem__,
            )
            if not ready:  # pragma: no cover - tarjan guarantees acyclic
                ready = sorted(remaining, key=key_of.__getitem__)[:1]
            for i in ready:
                out.append(sorted(sccs[i], key=str))
                emitted.add(i)
                del remaining[i]
            for deps in remaining.values():
                deps -= emitted
        return out

    def order(self) -> list[FunctionRef]:
        """Callees-first (reverse topological) order, deterministic.

        Strongly connected components are condensed first; members of a
        cycle appear adjacently in name order. Within the analysis,
        calls *into* an unfinished component simply find no summary and
        stay opaque — the same conservative treatment every unresolved
        call gets.
        """
        return [ref for component in self.condensation() for ref in component]

    def _tarjan(self) -> list[list[FunctionRef]]:
        """Tarjan's SCC algorithm, iterative, deterministic order."""
        index_counter = 0
        indexes: dict[FunctionRef, int] = {}
        lowlinks: dict[FunctionRef, int] = {}
        on_stack: set[FunctionRef] = set()
        stack: list[FunctionRef] = []
        components: list[list[FunctionRef]] = []

        for root in sorted(self.functions, key=str):
            if root in indexes:
                continue
            work = [(root, iter(sorted(self.edges.get(root, ()), key=str)))]
            indexes[root] = lowlinks[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in indexes:
                        indexes[succ] = lowlinks[succ] = index_counter
                        index_counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(self.edges.get(succ, ()), key=str)))
                        )
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlinks[node] = min(lowlinks[node], indexes[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indexes[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        return components
