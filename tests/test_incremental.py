"""Incremental maintenance (`core/incremental.py`): the DRed engine.

The load-bearing invariant, hypothesis-tested across TROP/BOOL/THREE and
(over several program shapes) BOTTLENECK/VITERBI: for any mutation
sequence, the maintained fixpoint is byte-identical (via
:func:`fingerprint`) to ``solve()``-from-scratch on the final EDB.

``DATALOGO_ENGINE`` restricts the shape differential, the DRed marking
pins (``dred_marked``/``dred_rounds``) and the batch-proportionality
pins to one engine (the CI matrix leg).
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import core, programs, workloads
from repro.core import VALID_ENGINES, parse_program, solve
from repro.core.incremental import (
    IncrementalInstance,
    Mutation,
    fingerprint,
)
from repro.semirings import BOOL, BOTTLENECK, THREE, TROP, VITERBI, TropicalPSemiring
from repro.semirings.base import FunctionRegistry

ENGINES = [
    e
    for e in VALID_ENGINES
    if e != "auto" and os.environ.get("DATALOGO_ENGINE", e) == e
]


def trop_db():
    return core.Database(
        pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
    )


def bool_db():
    edges = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")}
    return core.Database(
        pops=BOOL, relations={"E": {e: True for e in edges}}
    )


def three_db():
    edges = {("a", "b"): True, ("b", "c"): True, ("c", "a"): False}
    return core.Database(pops=THREE, relations={"E": dict(edges)})


NODES = ["a", "b", "c", "d", "x"]


def mutation_strategy(value_strategy):
    key = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
    insert = st.builds(
        lambda k, v: Mutation("insert", "E", k, v), key, value_strategy
    )
    delete = st.builds(lambda k: Mutation("delete", "E", k, None), key)
    return st.one_of(insert, delete)


class TestDifferentialInvariant:
    """Maintained fixpoint ≡ solve()-from-scratch, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            mutation_strategy(st.floats(0.5, 9.5, width=16)),
            min_size=1,
            max_size=6,
        )
    )
    def test_trop(self, muts):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        for m in muts:
            inc.apply([m])
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            mutation_strategy(st.just(True)), min_size=1, max_size=6
        )
    )
    def test_bool(self, muts):
        inc = IncrementalInstance(programs.transitive_closure(), bool_db())
        for m in muts:
            inc.apply([m])
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            mutation_strategy(st.sampled_from([True, False])),
            min_size=1,
            max_size=5,
        )
    )
    def test_three(self, muts):
        # THREE is not naturally ordered: every shrink degrades to a
        # full re-solve, but the invariant must still hold exactly.
        inc = IncrementalInstance(programs.transitive_closure(), three_db())
        for m in muts:
            inc.apply([m])
        ref = solve(inc.program, inc.database, method="naive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.lists(
                mutation_strategy(st.floats(0.5, 9.5, width=16)),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_trop_batched(self, batches):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        for batch in batches:
            inc.apply(batch)
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)


class TestMaintenancePaths:
    def test_insert_rides_seminaive_delta(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        summary = inc.apply(
            [Mutation("insert", "E", ("a", "d"), 0.5)]
        )
        assert summary.path == "seminaive"
        assert inc.stats["incremental_fallbacks"] == 0
        assert inc.query("L", ("d",)) == 0.5

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pure_dred_deletion_no_full_resolve(self, engine):
        """The acceptance-criteria path: a deletion maintained entirely
        by over-delete/re-derive, with zero full re-solves after warmup.
        Every engine's finder marks the same atoms in as many rounds."""
        inc = IncrementalInstance(programs.sssp("a"), trop_db(), engine=engine)
        solves_before = inc.stats["full_solves"]
        summary = inc.apply([Mutation("delete", "E", ("a", "b"), None)])
        assert summary.path in ("seminaive", "warm-naive")
        assert (summary.dred_marked, summary.dred_rounds) == (4, 4)
        assert inc.stats["full_solves"] == solves_before
        assert inc.stats["incremental_fallbacks"] == 0
        assert inc.stats["dred_deletions"] > 0
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    def test_bool_support_counts_prune_overdeletion(self):
        # ("a","c") is doubly derived (direct edge + via "b"): plain
        # over-deletion erases it with the path through "b", and
        # re-derivation must restore it from the direct edge.
        inc = IncrementalInstance(programs.transitive_closure(), bool_db())
        inc.apply([Mutation("delete", "E", ("a", "b"), None)])
        assert inc.query("T", ("a", "c")) is True
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cyclic_self_support_does_not_survive_deletion(self, engine):
        """Regression: with a self-loop E(a,a), T(b,a) supports itself
        via T(b,a) ⊗ E(a,a).  A maintainer that counts that cyclic
        derivation as a survivor skips the over-delete and leaves
        T(b,a)/T(b,b) stale."""
        inc = IncrementalInstance(
            programs.transitive_closure(), bool_db(), engine=engine
        )
        inc.apply([Mutation("insert", "E", ("a", "a"), True)])
        inc.apply([Mutation("insert", "E", ("b", "a"), True)])
        summary = inc.apply([Mutation("delete", "E", ("b", "a"), None)])
        assert (summary.dred_marked, summary.dred_rounds) == (8, 4)
        assert not inc.query("T", ("b", "a"))
        assert not inc.query("T", ("b", "b"))
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    def test_three_falls_back_to_resolve(self):
        inc = IncrementalInstance(programs.transitive_closure(), three_db())
        summary = inc.apply([Mutation("delete", "E", ("a", "b"), None)])
        assert summary.path == "resolve"
        assert inc.stats["incremental_fallbacks"] == 1

    def test_dred_cap_degrades_to_resolve(self):
        inc = IncrementalInstance(
            programs.sssp("a"), trop_db(), dred_cap=0
        )
        summary = inc.apply([Mutation("delete", "E", ("a", "b"), None)])
        assert summary.path == "resolve"
        assert inc.stats["incremental_fallbacks"] == 1
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_without_delta_reports_no_steps(self, engine):
        """A batch whose continuation finds no change ran no chain: its
        ``steps`` is 0, not the count of the batch before it."""
        db = core.Database(pops=TROP, relations={"E": {
            ("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("a", "c"): 5.0,
        }})
        inc = IncrementalInstance(programs.apsp(), db, engine=engine)
        steps = [
            inc.apply([Mutation("insert", "E", key, value)]).steps
            for key, value in ((("d", "a"), 1.0), (("a", "c"), 4.0), (("a", "c"), 3.5))
        ]
        assert steps == [4, 0, 0]
        assert inc.steps == 0
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    def test_noop_batch(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        before = fingerprint(inc.instance)
        summary = inc.apply([Mutation("delete", "E", ("x", "x"), None)])
        assert summary.path == "noop"
        assert fingerprint(inc.instance) == before


class TestNetEffect:
    """A batch is classified by each key's last write against the
    pre-batch value: a key written and then restored is a no-op."""

    def test_trop_restored_value(self):
        db = core.Database(
            pops=TROP, relations={"E": {("a", "b"): 5.0, ("b", "c"): 1.0}}
        )
        expected = fingerprint(solve(programs.apsp(), db).instance)
        inc = IncrementalInstance(programs.apsp(), db)
        summary = inc.apply([
            Mutation("insert", "E", ("a", "b"), 3.0),
            Mutation("insert", "E", ("a", "b"), 5.0),
        ])
        assert summary.path == "noop"
        assert inc.query("E", ("a", "b")) == 5.0
        assert inc.query("T", ("a", "b")) == 5.0
        assert fingerprint(inc.instance) == expected

    def test_trop_last_write_wins(self):
        db = core.Database(
            pops=TROP, relations={"E": {("a", "b"): 5.0, ("b", "c"): 1.0}}
        )
        inc = IncrementalInstance(programs.apsp(), db)
        inc.apply([
            Mutation("insert", "E", ("a", "b"), 3.0),
            Mutation("delete", "E", ("a", "b"), None),
            Mutation("insert", "E", ("a", "b"), 7.0),
        ])
        assert inc.query("E", ("a", "b")) == 7.0
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    def test_trop_p_value_equal_in_canonical_form(self):
        """Over Trop+_p a written bag is compared in the stored form
        ``1 ⊗ v``: ints and an unsorted bag equal to the stored value
        are no-ops, and a new int bag is stored as floats."""
        pops = TropicalPSemiring(2)
        db = core.Database(
            pops=pops, relations={"E": {("a", "b"): (1.0, 2.0, math.inf)}}
        )
        inc = IncrementalInstance(programs.apsp(), db)
        for same in [(1, 2, math.inf), (2.0, 1.0, math.inf)]:
            summary = inc.apply([Mutation("insert", "E", ("a", "b"), same)])
            assert summary.path == "noop", same
        inc.apply([Mutation("insert", "E", ("b", "c"), (3, math.inf, math.inf))])
        assert repr(inc.query("E", ("b", "c"))) == "(3.0, inf, inf)"
        ref = solve(inc.program, inc.database, engine="interpreted")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)

    def test_bool_restored_fact(self):
        program = parse_program("T(X, Y) :- { E(X, Y) if B(X) }.")
        db = core.Database(
            pops=TROP,
            relations={"E": {("a", "b"): 2.0, ("c", "d"): 1.0}},
            bool_relations={"B": {("a",)}},
        )
        expected = fingerprint(solve(program, db).instance)
        inc = IncrementalInstance(program, db)
        summary = inc.apply([
            Mutation("insert", "B", ("c",), None),
            Mutation("delete", "B", ("c",), None),
        ])
        assert summary.path == "noop"
        assert not inc.query("B", ("c",))
        assert inc.query("T", ("c", "d")) == TROP.zero
        assert fingerprint(inc.instance) == expected


class TestApiSurface:
    def test_versions_bump_per_relation(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        v_e = inc.versions.get("E", 0)
        v_l = inc.versions.get("L", 0)
        inc.apply([Mutation("insert", "E", ("a", "d"), 0.5)])
        assert inc.versions["E"] > v_e
        assert inc.versions["L"] > v_l

    def test_validate_rejects_idb_and_unknown(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        with pytest.raises(ValueError, match="IDB"):
            inc.validate([Mutation("insert", "L", ("a",), 1.0)])
        with pytest.raises(ValueError):
            inc.validate([Mutation("insert", "Nope", ("a",), 1.0)])
        # validation never mutates state
        assert inc.stats["incremental_applies"] == 0

    def test_mutation_round_trips_through_dicts(self):
        m = Mutation("insert", "E", ("a", "b"), 2.5)
        assert Mutation.from_dict(m.as_dict()) == m
        d = Mutation("delete", "E", ("a", "b"), None)
        assert Mutation.from_dict(d.as_dict()) == d

    def test_stats_snapshot_keys(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        for key in (
            "incremental_fallbacks",
            "dred_deletions",
            "full_solves",
        ):
            assert key in inc.stats


class TestFunctionFactorOverdeletion:
    """DRed must mark through an atom under an interpreted function: a
    shrunk ``E`` fact shrinks ``scale(E(…))``, so the heads it derived
    are stale until erased and re-derived."""

    PROGRAM = "T(X, Y) :- scale(E(X, Y)) | T(X, Z) * E(Z, Y)."

    @pytest.mark.parametrize("engine", ENGINES)
    def test_shrink_under_function_is_maintained(self, engine):
        functions = FunctionRegistry()
        functions.register("scale", lambda v: 2 * v)
        db = core.Database(
            pops=TROP,
            relations={
                "E": {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 5.0}
            },
        )
        inc = IncrementalInstance(
            parse_program(self.PROGRAM), db, functions=functions, engine=engine
        )
        for mutation, want, marked in (
            (Mutation("insert", "E", ("a", "b"), 0.5), 1.0, (0, 0)),
            (Mutation("insert", "E", ("a", "b"), 3.0), 6.0, (2, 3)),
            (Mutation("delete", "E", ("a", "b"), None), math.inf, (2, 3)),
        ):
            summary = inc.apply([mutation])
            assert summary.path == "seminaive"
            assert (summary.dred_marked, summary.dred_rounds) == marked
            assert inc.query("T", ("a", "b")) == want
            ref = solve(
                inc.program, inc.database, method="seminaive",
                functions=functions,
            )
            assert fingerprint(inc.instance) == fingerprint(ref.instance)


class TestNonLinearOverdeletion:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_round_pair_is_marked(self, engine):
        """``T(x,y)``'s only derivation joins ``T(x,z)`` and ``T(z,y)``,
        both erased in the same marking round: the next round must still
        find it through the pair."""
        program = parse_program("T(X, Y) :- E(X, Y) | T(X, Z) * T(Z, Y).")
        edges = [("x", "z"), ("z", "y"), ("q", "x"), ("q", "z"), ("q", "y")]
        inc = IncrementalInstance(
            program,
            core.Database(pops=BOOL, relations={"E": dict.fromkeys(edges, True)}),
            engine=engine,
        )
        summary = inc.apply(
            [Mutation("delete", "E", ("x", "z")),
             Mutation("delete", "E", ("z", "y"))]
        )
        assert summary.path == "seminaive"
        assert (summary.dred_marked, summary.dred_rounds) == (5, 3)
        assert not inc.query("T", ("x", "y"))
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)


class TestErasedRelation:
    def test_fully_erased_relation_is_gone(self):
        """Over-deleting a relation's last atom drops the relation, as
        ``solve()`` never creates it: the instance lists, fingerprints
        and serializes exactly what a from-scratch solve does."""
        from repro.core.io import instance_to_dict

        program = parse_program(
            "S(Y) :- E(a, Y) | S(Z) * E(Z, Y).\n"
            "T(X, Y) :- E(X, Y) * S(X) | T(X, Z) * E(Z, Y)."
        )
        inc = IncrementalInstance(
            program,
            core.Database(
                pops=TROP, relations={"E": {("a", "b"): 1.0, ("b", "a"): 1.0}}
            ),
        )
        assert {"S", "T"} <= set(inc.instance.relations())
        summary = inc.apply([Mutation("delete", "E", ("a", "b"))])
        assert summary.path == "seminaive"
        assert set(inc.instance.relations()) == set()
        assert instance_to_dict(inc.instance) == {}
        ref = solve(inc.program, inc.database, method="seminaive")
        assert fingerprint(inc.instance) == fingerprint(ref.instance)


#: Program shapes for the differential, beyond the one-rule APSP: two
#: occurrences of the mutated relation in one body, the relation under
#: a function, a body constant, a second EDB relation, and a non-linear
#: body whose re-derivation reads ``J⁻`` twice.
SHAPES = {
    "two-occurrences": (
        "T(X, Y) :- E(X, Y) | E(X, Z) * E(Z, Y) | T(X, Z) * E(Z, Y).",
        ("E",),
    ),
    "under-function": (
        "T(X, Y) :- scale(E(X, Y)) | T(X, Z) * E(Z, Y).",
        ("E",),
    ),
    "body-constant": (
        "S(Y) :- E(a, Y) | S(Z) * E(Z, Y).\n"
        "T(X, Y) :- E(X, Y) * S(X) | T(X, Z) * E(Z, Y).",
        ("E",),
    ),
    "second-edb": (
        "T(X, Y) :- E(X, Y) | T(X, Z) * F(Z, Y).",
        ("E", "F"),
    ),
    "non-linear": (
        "T(X, Y) :- E(X, Y) | T(X, Z) * T(Z, Y).",
        ("E",),
    ),
}

#: Per value space: fact values (±0.0 on the float spaces, where ``-0.0``
#: is a distinct byte pattern and, on BOTTLENECK/VITERBI, reads ``0``)
#: and a monotone ``scale``.
SPACES = {
    "trop": (TROP, [0.0, -0.0, 1.0, 2.0, 3.5], lambda v: min(2 * v, 7.0)),
    "bool": (BOOL, [True], lambda v: v),
    "bottleneck": (BOTTLENECK, [-0.0, 1.0, 2.5, math.inf], lambda v: min(v, 3.0)),
    "viterbi": (VITERBI, [-0.0, 0.25, 0.5, 1.0], lambda v: v / 2),
}

SHAPE_NODES = ["a", "b", "c", "d"]


@st.composite
def shape_case(draw, values, relations):
    key = st.tuples(st.sampled_from(SHAPE_NODES), st.sampled_from(SHAPE_NODES))
    fact = st.tuples(st.sampled_from(relations), key)
    initial = draw(st.dictionaries(fact, st.sampled_from(values), max_size=8))
    mutation = st.one_of(
        st.builds(
            lambda f, v: Mutation("insert", f[0], f[1], v),
            fact, st.sampled_from(values),
        ),
        st.builds(lambda f: Mutation("delete", f[0], f[1], None), fact),
    )
    batches = draw(
        st.lists(st.lists(mutation, min_size=1, max_size=4), min_size=1, max_size=5)
    )
    return initial, batches


class TestShapeDifferential:
    """Mixed batches (growing and shrinking one relation at once) over
    several program shapes and value spaces: the maintained fixpoint
    matches ``solve()`` from scratch after every batch."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_solve_after_every_batch(self, shape, space, engine):
        source, relations = SHAPES[shape]
        pops, values, scale = SPACES[space]
        program = parse_program(source)
        functions = FunctionRegistry()
        functions.register("scale", scale)

        @settings(max_examples=10, deadline=None, derandomize=True)
        @given(shape_case(values, relations))
        def check(case):
            initial, batches = case
            stores = {rel: {} for rel in relations}
            for (rel, key), value in initial.items():
                stores[rel][key] = value
            inc = IncrementalInstance(
                program, core.Database(pops=pops, relations=stores),
                functions=functions, engine=engine,
            )
            for batch in batches:
                inc.apply(batch)
                ref = solve(
                    program, inc.database, method="seminaive",
                    functions=functions, engine=engine,
                )
                assert fingerprint(inc.instance) == fingerprint(ref.instance)

        check()


def _copies(k: int) -> core.Database:
    """``k`` disjoint copies of one small weighted DAG."""
    edges = {}
    for c in range(k):
        for (u, v), w in (
            (("s", "a"), 1.0), (("a", "b"), 2.0), (("b", "t"), 1.0),
            (("s", "c"), 4.0), (("c", "t"), 1.0), (("a", "c"), 5.0),
        ):
            edges[(f"{u}{c}", f"{v}{c}")] = w
    return core.Database(pops=TROP, relations={"E": edges})


class TestBatchProportional:
    """An apply's work is the size of its footprint, not of ``|J|``: a
    batch inside one component of ``k`` disjoint copies computes the
    same products for every ``k``, and an insert examines the same keys.
    An erasure makes its component unlike the others, which moves the
    cost-based join order a little: there the keys examined only must
    not grow with ``k``."""

    PROGRAM = "T(X, Y) :- E(X, Y) | T(X, Z) * E(Z, Y)."

    def _work(self, batch, engine, k):
        inc = IncrementalInstance(
            parse_program(self.PROGRAM), _copies(k), engine=engine
        )
        summary = inc.apply(batch)
        assert summary.path == "seminaive"
        assert summary.products > 0
        assert inc.stats["incremental_products"] == summary.products
        return summary

    @pytest.mark.parametrize("engine", ENGINES)
    def test_insert_work_is_independent_of_copies(self, engine):
        batch = [Mutation("insert", "E", ("s0", "b0"), 1.0)]
        one, four = (self._work(batch, engine, k) for k in (1, 4))
        assert (one.products, one.keys_examined, one.steps) == (
            four.products, four.keys_examined, four.steps,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "batch",
        [
            [Mutation("delete", "E", ("a0", "b0"))],
            [Mutation("insert", "E", ("a0", "c0"), 1.0),
             Mutation("delete", "E", ("s0", "a0"))],
        ],
        ids=["delete", "mixed"],
    )
    def test_shrink_work_does_not_grow_with_copies(self, batch, engine):
        one, eight = (self._work(batch, engine, k) for k in (1, 8))
        assert (one.products, one.steps) == (eight.products, eight.steps)
        assert eight.keys_examined <= 1.5 * one.keys_examined
