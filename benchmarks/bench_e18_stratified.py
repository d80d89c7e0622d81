"""E18 (extension) — stratified datalog° with negation-as-failure.

Section 7 recalls stratified negation as the practical workhorse; we
evaluate a reach/unreached program (``Unreached`` negates ``Reach``, so
``solve()``'s SCC scheduler puts them in two strata) at growing sizes,
asserting agreement with the well-founded model (which is total on
stratifiable programs).
"""

from __future__ import annotations

from conftest import emit_table

from repro import workloads
from repro.core import (
    BoolAtom,
    Database,
    Indicator,
    Not,
    Program,
    RelAtom,
    Rule,
    SumProduct,
    solve,
    terms,
)
from repro.negation import (
    GroundNormalProgram,
    NormalRule,
    alternating_fixpoint,
)
from repro.semirings import BOOL


def reach_unreached():
    reach = Rule(
        "Reach",
        terms(["X"]),
        (
            SumProduct(
                (Indicator(BoolAtom("Src", terms(["X"]))),),
                condition=BoolAtom("Node", terms(["X"])),
            ),
            SumProduct(
                (RelAtom("Reach", terms(["Z"])),),
                condition=BoolAtom("E", terms(["Z", "X"])),
            ),
        ),
    )
    unreached = Rule(
        "Unreached",
        terms(["X"]),
        (
            SumProduct(
                (Indicator(BoolAtom("Node", terms(["X"]))),),
                condition=BoolAtom("Node", terms(["X"]))
                & Not(BoolAtom("Reach", terms(["X"]))),
            ),
        ),
    )
    return Program(
        rules=[reach, unreached], bool_edbs={"Src": 1, "Node": 1, "E": 2}
    )


def run_instance(n: int, p: float, seed: int):
    edges = set(workloads.random_weighted_digraph(n, p, seed=seed))
    nodes = set(range(n))
    db = Database(
        pops=BOOL,
        bool_relations={
            "E": edges,
            "Node": {(x,) for x in nodes},
            "Src": {(0,)},
        },
    )
    return edges, nodes, solve(reach_unreached(), db)


def test_e18_agrees_with_well_founded(benchmark):
    def sweep():
        rows = []
        for n, p in ((10, 0.15), (20, 0.1), (40, 0.05)):
            edges, nodes, result = run_instance(n, p, seed=n)
            rules = [NormalRule(head=("Reach", 0))]
            for x, y in edges:
                rules.append(
                    NormalRule(head=("Reach", y), positive=(("Reach", x),))
                )
            for x in nodes:
                rules.append(
                    NormalRule(head=("Unreached", x), negative=(("Reach", x),))
                )
            wf = alternating_fixpoint(GroundNormalProgram(rules=rules))
            assert not wf.undefined_atoms  # stratifiable ⇒ total
            mismatches = 0
            for x in nodes:
                strat_reach = result.instance.get("Reach", (x,)) is True
                if strat_reach != (wf.value(("Reach", x)) == "true"):
                    mismatches += 1
                strat_un = result.instance.get("Unreached", (x,)) is True
                if strat_un != (wf.value(("Unreached", x)) == "true"):
                    mismatches += 1
            reached = len(result.instance.support("Reach"))
            rows.append((n, reached, n - reached, mismatches))
        return rows

    rows = benchmark(sweep)
    emit_table(
        "E18: stratified vs well-founded on reach/unreached",
        ("nodes", "reached", "unreached", "mismatches"),
        rows,
    )
    assert all(m == 0 for *_, m in rows)


def test_e18_stratified_runtime(benchmark):
    benchmark(lambda: run_instance(30, 0.08, seed=77))
