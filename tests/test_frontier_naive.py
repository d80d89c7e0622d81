"""Frontier naïve rounds: Algorithm 1's iterates, recomputing only the
heads whose body reads an atom the last round changed.

The interpreted engine always runs plain Algorithm 1, so it is the
oracle: over Trop+_p with canonical float weights the compiled engines
must reach the same iterates (``repr`` for ``repr``), the same step
count and the same budget partials with fewer ⊗-products; wherever the
licence fails they must run plain Algorithm 1 and say why.  Int and
``-0.0`` weights enter in the canonical form ``1 ⊗ v`` and take the
rounds too.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import programs
from repro.core import Database, NaiveEvaluator, solve
from repro.core.ast import terms
from repro.core.guardrails import BudgetExceeded
from repro.core.incremental import IncrementalInstance, Mutation, fingerprint
from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.core.rules import FuncFactor, Program, RelAtom, Rule, SumProduct
from repro.semirings import TROP, TropicalPSemiring
from repro.semirings.base import FunctionRegistry

INF = math.inf
COMPILED = ("compiled", "codegen", "batched")
FLOATS = (0.0, 1.0, 1.5, 2.5, 4.0, 7.0)


def bag(pops, weight):
    return (weight,) + (INF,) * pops.p


def cyclic_graph(seed, nodes=7, edges=14, weights=FLOATS):
    rng = random.Random(seed)
    out = {(f"n{i}", f"n{(i + 1) % nodes}"): rng.choice(weights) for i in range(nodes)}
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        out[(f"n{a}", f"n{b}")] = rng.choice(weights)
    return out


def database(pops, edges):
    return Database(pops=pops, relations={"E": {k: bag(pops, w) for k, w in edges.items()}})


def layered_ring(layers, width, seed=1):
    """Every node of a layer has an edge to every node of the next; the
    last layer closes the ring."""
    rng = random.Random(seed)
    name = lambda layer, i: f"v{layer}_{i}"  # noqa: E731
    return {
        (name(layer, i), name((layer + 1) % layers, j)): float(rng.randint(1, 9))
        for layer in range(layers)
        for i in range(width)
        for j in range(width)
    }


PROGRAMS = {
    "tc": programs.transitive_closure(),
    "tc2": programs.quadratic_transitive_closure(),
    "sssp": programs.sssp("n0"),
    "layered": parse_program(
        "S(X) :- [X = n0].\n"
        "L(X) :- S(X) | L(Z) * E(Z, X).\n"
        "Best(X) :- L(X).\n"
    ),
}


def algorithm1(program, db, engine="auto", start=None, functions=None):
    """Plain Algorithm 1 through the per-iteration entry point: a bare
    :meth:`NaiveEvaluator.ico` loop never takes frontier rounds."""
    evaluator = NaiveEvaluator(program, db, functions=functions, engine=engine)
    current = start if start is not None else Instance(db.pops)
    while True:
        nxt = evaluator.ico(current)
        if nxt.equals(current):
            return current, evaluator.stats.snapshot()
        current = nxt


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestSameIterates:
    def test_trace_fingerprints_and_steps(self, p, seed, name):
        pops = TropicalPSemiring(p)
        db = database(pops, cyclic_graph(seed))
        program = PROGRAMS[name]
        oracle = solve(program, db, engine="interpreted", capture_trace=True)
        for engine in COMPILED:
            result = solve(program, db, engine=engine, capture_trace=True)
            assert "frontier_refusal" not in result.stats
            assert result.steps == oracle.steps
            assert [fingerprint(j) for j in result.trace] == [
                fingerprint(j) for j in oracle.trace
            ]
            assert fingerprint(result.instance) == fingerprint(oracle.instance)

    def test_scheduled_fixpoint_and_fewer_heads(self, p, seed, name):
        pops = TropicalPSemiring(p)
        db = database(pops, cyclic_graph(seed))
        program = PROGRAMS[name]
        oracle = solve(program, db, engine="interpreted")
        for engine in COMPILED:
            result = solve(program, db, engine=engine)
            assert fingerprint(result.instance) == fingerprint(oracle.instance)
            assert result.steps == oracle.steps
            assert result.stats["heads_recomputed"] <= oracle.stats["heads_recomputed"]


@pytest.mark.parametrize("engine", COMPILED)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_budget_partial_is_algorithm_1s(engine, k):
    pops = TropicalPSemiring(2)
    db = database(pops, cyclic_graph(4, nodes=9, edges=20))
    program = programs.transitive_closure()

    def partial(engine):
        with pytest.raises(BudgetExceeded) as info:
            solve(program, db, engine=engine, max_iterations=k, capture_trace=True)
        got = info.value.partial
        return got.steps, fingerprint(got.instance), [fingerprint(j) for j in got.trace]

    assert partial(engine) == partial("interpreted")


class TestLicence:
    """Every refusal runs plain Algorithm 1 and names its reason."""

    def test_refused_run_is_algorithm_1(self):
        pops = TropicalPSemiring(2)
        db = database(pops, cyclic_graph(5))
        program = programs.transitive_closure()
        result = solve(program, db, engine="interpreted", schedule="monolithic")
        assert result.stats["frontier_refusal"] == "the interpreted engine"
        instance, stats = algorithm1(program, db, "interpreted")
        assert fingerprint(result.instance) == fingerprint(instance)
        for counter in ("products", "valuations", "heads_recomputed"):
            assert result.stats[counter] == stats[counter], counter

    @pytest.mark.parametrize("weights", [(1, 2, 3, 4), (-0.0, 1.5, 2.5)])
    def test_int_and_signed_zero_weights_take_frontier_rounds(self, weights):
        pops = TropicalPSemiring(2)
        edges = cyclic_graph(5, weights=weights)
        db = database(pops, edges)
        assert {repr(db.value("E", k)) for k in edges} <= {
            repr(bag(pops, float(w) + 0.0)) for w in weights
        }
        program = programs.transitive_closure()
        oracle = solve(program, db, engine="interpreted", schedule="monolithic")
        for engine in COMPILED:
            result = solve(program, db, engine=engine, schedule="monolithic")
            assert "frontier_refusal" not in result.stats
            assert fingerprint(result.instance) == fingerprint(oracle.instance)
            assert result.steps == oracle.steps
            assert result.stats["products"] < oracle.stats["products"]

    def test_func_factor_is_refused(self):
        pops = TropicalPSemiring(1)
        db = database(pops, cyclic_graph(6))
        atom = lambda rel, *args: RelAtom(rel, terms(list(args)))  # noqa: E731
        program = Program(
            rules=[Rule("F", terms(["X", "Y"]), (
                SumProduct((atom("E", "X", "Y"),)),
                SumProduct((FuncFactor("ident", (atom("E", "X", "Z"),)),
                            atom("F", "Z", "Y"))),
            ))],
            edbs={"E": 2},
        )
        functions = FunctionRegistry()
        functions.register("ident", lambda v: v)
        result = solve(program, db, functions=functions, schedule="monolithic")
        assert result.stats["frontier_refusal"] == "a FuncFactor: ident(E(X, Z))"
        instance, stats = algorithm1(program, db, functions=functions)
        assert fingerprint(result.instance) == fingerprint(instance)
        assert result.stats["products"] == stats["products"]

    def test_space_with_minus_is_refused(self):
        db = Database(pops=TROP, relations={"E": cyclic_graph(1)})
        result = solve(programs.transitive_closure(), db, method="naive")
        assert result.stats["frontier_refusal"] == "the space has ⊖"
        # Semi-naïve's bootstrap is one naïve round, not a chain.
        result = solve(programs.transitive_closure(), db, method="seminaive")
        assert "frontier_refusal" not in result.stats

    def test_int_warm_start_takes_frontier_rounds(self):
        pops = TropicalPSemiring(1)
        db = database(pops, cyclic_graph(2))
        program = programs.transitive_closure()
        start = Instance(pops, {"T": {("n0", "n1"): (3, INF)}})

        def run(engine):
            return NaiveEvaluator(program, db, engine=engine).run(start=start)

        oracle = run("interpreted")
        for engine in COMPILED:
            result = run(engine)
            assert "frontier_refusal" not in result.stats
            assert fingerprint(result.instance) == fingerprint(oracle.instance)
            assert result.steps == oracle.steps
        assert repr(start.get("T", ("n0", "n1"))) == "(3, inf)"  # not written


@pytest.mark.parametrize("engine", COMPILED)
def test_incremental_insert_matches_scratch(engine):
    pops = TropicalPSemiring(2)
    edges = cyclic_graph(3, nodes=8, edges=16)
    db = database(pops, edges)
    program = programs.transitive_closure()
    inc = IncrementalInstance(program, db, engine=engine)
    batch = [
        Mutation("insert", "E", ("n7", "n2"), bag(pops, 0.5)),
        Mutation("insert", "E", ("n1", "n5"), bag(pops, 2.5)),
    ]
    inc.apply(batch)
    grown = {**edges, ("n7", "n2"): 0.5, ("n1", "n5"): 2.5}
    scratch = solve(program, database(pops, grown), engine="interpreted")
    assert fingerprint(inc.instance) == fingerprint(scratch.instance)


@pytest.mark.parametrize("engine", COMPILED)
class TestSeededRound:
    """An insert batch seeds round 1's frontier with its grown ``E``
    atoms: the warm chain is Algorithm 1's from the old fixpoint
    (iterates and steps of the interpreted engine's full first round),
    ends at a cold solve's fixpoint, and recomputes fewer heads than a
    warm run whose round 1 is full.  A new constant keeps round 1 full
    where a body enumerates the active domain; a range-restricted
    program's fixpoint does not depend on the domain, so it is seeded."""

    PROGRAM = programs.transitive_closure()
    #: TC plus a body with a variable no guard binds (``Y``).
    READS_DOMAIN = parse_program(
        "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y)."
        " U(X, Y) :- { T(X, Z) if Y != Z }."
    )

    def _apply(self, engine, key, program=PROGRAM):
        pops = TropicalPSemiring(2)
        db = database(pops, cyclic_graph(3, nodes=8, edges=16))
        inc = IncrementalInstance(program, db, engine=engine)
        start = inc.instance
        summary = inc.apply([Mutation("insert", "E", key, bag(pops, 0.5))])
        assert summary.path == "warm-naive"
        scratch = solve(program, inc.database, engine="interpreted")
        assert fingerprint(inc.instance) == fingerprint(scratch.instance)
        return inc, start, summary

    def _run(self, inc, engine, start, changed=None):
        evaluator = NaiveEvaluator(inc.program, inc.database, engine=engine)
        return evaluator.run(start=start, changed=changed, capture_trace=True)

    def test_insert_recomputes_only_affected_heads(self, engine):
        key = ("n2", "n5")
        inc, start, summary = self._apply(engine, key)
        oracle = self._run(inc, "interpreted", start)
        seeded = self._run(inc, engine, start, changed={"E": [key]})
        full = self._run(inc, engine, start)
        assert summary.steps == seeded.steps == oracle.steps
        assert [fingerprint(j) for j in seeded.trace] == [
            fingerprint(j) for j in oracle.trace
        ]
        assert summary.products == seeded.stats["products"]
        assert seeded.stats["heads_recomputed"] < full.stats["heads_recomputed"]
        assert seeded.stats["products"] < full.stats["products"]

    def test_new_constant_keeps_round_one_full(self, engine):
        inc, start, summary = self._apply(engine, ("n7", "z"), self.READS_DOMAIN)
        assert summary.products == self._run(inc, engine, start).stats["products"]

    def test_new_constant_seeds_a_range_restricted_program(self, engine):
        key = ("n7", "z")
        inc, start, summary = self._apply(engine, key)
        seeded = self._run(inc, engine, start, changed={"E": [key]})
        assert summary.products == seeded.stats["products"]
        assert seeded.stats["products"] < self._run(inc, engine, start).stats["products"]


def test_layered_ring_products_drop():
    pops = TropicalPSemiring(2)
    db = database(pops, layered_ring(10, 5))
    program = programs.apsp()
    result = solve(program, db, method="naive", engine="codegen")
    instance, stats = algorithm1(program, db, "codegen")
    assert fingerprint(result.instance) == fingerprint(instance)
    assert result.stats["iterations"] == 12
    assert result.stats["products"] <= 0.3 * stats["products"]
