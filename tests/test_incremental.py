"""Incremental maintenance (`core/incremental.py`): the DRed engine.

The load-bearing invariant, hypothesis-tested across TROP/BOOL/THREE:
for any mutation sequence, the maintained fixpoint is byte-identical
(via :func:`fingerprint`) to ``solve()``-from-scratch on the final EDB.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import core, programs, workloads
from repro.core import solve
from repro.core.incremental import (
    IncrementalInstance,
    Mutation,
    fingerprint,
)
from repro.semirings import BOOL, THREE, TROP


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

    def test_pure_dred_deletion_no_full_resolve(self):
        """The acceptance-criteria path: a deletion maintained entirely
        by over-delete/re-derive, with zero full re-solves after warmup."""
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        solves_before = inc.stats["full_solves"]
        summary = inc.apply([Mutation("delete", "E", ("a", "b"), None)])
        assert summary.path in ("seminaive", "warm-naive")
        assert summary.dred_marked > 0
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

    def test_cyclic_self_support_does_not_survive_deletion(self):
        """Regression: with a self-loop E(a,a), T(b,a) supports itself
        via T(b,a) ⊗ E(a,a).  A maintainer that counts that cyclic
        derivation as a survivor skips the over-delete and leaves
        T(b,a)/T(b,b) stale."""
        inc = IncrementalInstance(programs.transitive_closure(), bool_db())
        inc.apply([Mutation("insert", "E", ("a", "a"), True)])
        inc.apply([Mutation("insert", "E", ("b", "a"), True)])
        inc.apply([Mutation("delete", "E", ("b", "a"), None)])
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

    def test_noop_batch(self):
        inc = IncrementalInstance(programs.sssp("a"), trop_db())
        before = fingerprint(inc.instance)
        summary = inc.apply([Mutation("delete", "E", ("x", "x"), None)])
        assert summary.path == "noop"
        assert fingerprint(inc.instance) == before


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
