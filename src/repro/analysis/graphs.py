"""Dependency graphs of grounded programs (Section 5.4) and of programs.

For a polynomial system ``f`` the graph ``G_f`` has the variables as
nodes and an edge ``x_i → x_j`` when ``f_j`` depends on ``x_i``.  A
variable is **recursive** when it lies on a cycle or is reachable from
one; Proposition 5.16 shows recursive variables can never escape the
core semiring ``P⊕⊥``, which is why convergence is governed by the
core's stability while non-recursive variables stabilize in at most
(number of non-recursive variables) extra steps.

At the predicate level the same construction yields the classical
dependency graph used for stratification checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

from ..core.polynomial import PolynomialSystem, VarId
from ..core.rules import Program

Node = Hashable


@dataclass
class DiGraph:
    """A minimal directed graph with the reachability helpers we need."""

    nodes: Set[Node]
    edges: Set[Tuple[Node, Node]]

    @staticmethod
    def from_edges(edges: Iterable[Tuple[Node, Node]], nodes: Iterable[Node] = ()) -> "DiGraph":
        edge_set = set(edges)
        node_set = set(nodes)
        for a, b in edge_set:
            node_set.add(a)
            node_set.add(b)
        return DiGraph(nodes=node_set, edges=edge_set)

    def successors(self, node: Node) -> List[Node]:
        return [b for a, b in self.edges if a == node]

    def reachable_from(self, sources: Iterable[Node]) -> Set[Node]:
        """All nodes reachable from ``sources`` (including them)."""
        out: Dict[Node, List[Node]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
        seen: Set[Node] = set()
        stack = list(sources)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(out.get(node, ()))
        return seen

    def strongly_connected_components(self) -> List[Set[Node]]:
        """Tarjan's SCC algorithm (iterative)."""
        out: Dict[Node, List[Node]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            out[a].append(b)
        index: Dict[Node, int] = {}
        low: Dict[Node, int] = {}
        on_stack: Set[Node] = set()
        stack: List[Node] = []
        counter = [0]
        components: List[Set[Node]] = []

        for root in self.nodes:
            if root in index:
                continue
            work: List[Tuple[Node, int]] = [(root, 0)]
            while work:
                node, child_idx = work.pop()
                if child_idx == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = out[node]
                for i in range(child_idx, len(succs)):
                    succ = succs[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if recurse:
                    continue
                if low[node] == index[node]:
                    comp: Set[Node] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == node:
                            break
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components

    def cyclic_nodes(self) -> Set[Node]:
        """Nodes on a cycle: non-trivial SCCs plus self-loops."""
        cyclic: Set[Node] = set()
        for comp in self.strongly_connected_components():
            if len(comp) > 1:
                cyclic.update(comp)
        for a, b in self.edges:
            if a == b:
                cyclic.add(a)
        return cyclic


def system_graph(system: PolynomialSystem) -> DiGraph:
    """Return ``G_f`` of a grounded system (Section 5.4)."""
    return DiGraph.from_edges(system.dependency_edges(), nodes=system.order)


def recursive_variables(system: PolynomialSystem) -> FrozenSet[VarId]:
    """Variables on a cycle, or reachable from one (Section 5.4)."""
    graph = system_graph(system)
    return frozenset(graph.reachable_from(graph.cyclic_nodes()))


def split_recursive(
    system: PolynomialSystem,
) -> Tuple[FrozenSet[VarId], FrozenSet[VarId]]:
    """Partition variables into (recursive, non-recursive) (§5.4)."""
    rec = recursive_variables(system)
    non = frozenset(v for v in system.order if v not in rec)
    return rec, non


def predicate_graph(program: Program) -> DiGraph:
    """Predicate-level dependency graph: body IDB → head IDB edges.

    An IDB read in a condition is an edge too: the condition reads the
    key set of its finished fixpoint, so its component must come first.
    """
    idbs = program.idb_names()
    edges: Set[Tuple[Node, Node]] = set()
    for rule in program.rules:
        for body in rule.bodies:
            reads = [atom.relation for atom, _ in body.atoms()]
            reads += [atom.relation for atom, _ in body.bool_reads()]
            for relation in reads:
                if relation in idbs:
                    edges.add((relation, rule.head_relation))
    return DiGraph.from_edges(edges, nodes=idbs)


def recursive_predicates(program: Program) -> FrozenSet[str]:
    """IDB predicates involved in (or downstream of) recursion."""
    graph = predicate_graph(program)
    return frozenset(graph.reachable_from(graph.cyclic_nodes()))


def is_recursive(program: Program) -> bool:
    """Whether the program has any recursive predicate."""
    return bool(predicate_graph(program).cyclic_nodes())


@dataclass
class Condensation:
    """The predicate dependency graph condensed to its SCC DAG.

    ``components`` lists the SCCs in a topological order of the
    condensation (every predicate a component reads from lives in an
    earlier component); ``recursive`` flags, per component, whether it
    actually contains a cycle (a multi-predicate SCC or a self-loop).
    Non-recursive components reach their fixpoint after a single ICO
    application, which is what the stratum scheduler exploits.

    Both lists are deterministic: components are emitted in Kahn order
    with ties broken by the lexicographically least member name, so
    schedules (and their work counters) are reproducible across runs.

    ``dependencies[i]`` holds the indexes (into ``components``) of the
    components component ``i`` reads from — what the scheduler follows
    to prune the condensation to a query's reachable strata.
    """

    components: List[Tuple[str, ...]]
    recursive: List[bool]
    dependencies: List[FrozenSet[int]]

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(zip(self.components, self.recursive))


def condensation(program: Program) -> Condensation:
    """Condense the predicate graph into topologically ordered SCCs."""
    graph = predicate_graph(program)
    comps = graph.strongly_connected_components()
    comp_of: Dict[Node, int] = {}
    for i, comp in enumerate(comps):
        for node in comp:
            comp_of[node] = i
    succs: Dict[int, Set[int]] = {i: set() for i in range(len(comps))}
    indeg = {i: 0 for i in range(len(comps))}
    for a, b in graph.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb and cb not in succs[ca]:
            succs[ca].add(cb)
            indeg[cb] += 1
    self_loops = {a for a, b in graph.edges if a == b}
    preds: Dict[int, Set[int]] = {i: set() for i in range(len(comps))}
    for i, targets in succs.items():
        for j in targets:
            preds[j].add(i)
    names = {i: min(map(str, comp)) for i, comp in enumerate(comps)}
    ready = sorted(
        (i for i, d in indeg.items() if d == 0), key=names.__getitem__
    )
    ordered: List[Tuple[str, ...]] = []
    recursive: List[bool] = []
    dependencies: List[FrozenSet[int]] = []
    emitted_at: Dict[int, int] = {}
    while ready:
        i = ready.pop(0)
        comp = comps[i]
        emitted_at[i] = len(ordered)
        ordered.append(tuple(sorted(map(str, comp))))
        recursive.append(len(comp) > 1 or bool(comp & self_loops))
        # Kahn order guarantees every predecessor was emitted already.
        dependencies.append(frozenset(emitted_at[j] for j in preds[i]))
        freed = []
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                freed.append(j)
        if freed:
            ready.extend(freed)
            ready.sort(key=names.__getitem__)
    return Condensation(
        components=ordered, recursive=recursive, dependencies=dependencies
    )


def strata(program: Program) -> List[Set[str]]:
    """Topologically ordered SCC strata of the predicate graph.

    For stratified multi-space programs (Section 4.5) each stratum can
    be evaluated to fixpoint before the next begins.  The set-valued
    view of :func:`condensation` (which additionally flags recursive
    components for the stratum scheduler).
    """
    return [set(comp) for comp in condensation(program).components]
