"""The indexed join subsystem: indexes, planner, and plan equivalence.

Covers the three layers added for indexed join planning:

* :mod:`repro.core.indexes` — mask-keyed hash indexes with incremental
  maintenance and the versioned :class:`IndexManager` cache;
* :mod:`repro.core.planner` — selectivity ordering and probe-join
  execution, including the ``itertools.product`` fallback for
  variables no guard covers;
* plan equivalence — hypothesis-style differential tests asserting the
  ``indexed`` and ``naive`` plans compute identical fixpoints across
  engines and semirings, with the indexed plan never examining more
  keys.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import Database, Instance, NaiveEvaluator, solve
from repro.core.ast import Compare, Constant, TrueCond, terms, var
from repro.core.indexes import IndexManager, JoinStats, KeyIndex
from repro.core.plan_ir import build_body_plan
from repro.core.planner import build_plan, execute_ir
from repro.core.rules import RelAtom, SumProduct
from repro.core.seminaive import SemiNaiveEvaluator
from repro.core.valuations import Guard, enumerate_valuations
from repro.semirings import BOOL, LIFTED_REAL, TROP


class TestKeyIndex:
    def test_probe_returns_matching_bucket(self):
        index = KeyIndex([("a", "b"), ("a", "c"), ("x", "y")])
        assert list(index.probe((0,), ("a",))) == [("a", "b"), ("a", "c")]
        assert list(index.probe((0,), ("missing",))) == []
        assert list(index.probe((0, 1), ("x", "y"))) == [("x", "y")]

    def test_empty_mask_probe_is_scan(self):
        keys = [("a",), ("b",)]
        index = KeyIndex(keys)
        assert list(index.probe((), ())) == keys

    def test_duplicates_dropped(self):
        index = KeyIndex([("a",), ("a",)])
        assert len(index) == 1
        assert index.add(("a",)) is False
        assert index.add(("b",)) is True
        assert len(index) == 2

    def test_add_maintains_built_masks_incrementally(self):
        stats = JoinStats()
        index = KeyIndex([("a", 1)], stats=stats)
        assert list(index.probe((0,), ("a",))) == [("a", 1)]
        builds = stats.index_builds
        index.add(("a", 2))
        # No rebuild: the existing mask map was extended in place.
        assert stats.index_builds == builds
        assert list(index.probe((0,), ("a",))) == [("a", 1), ("a", 2)]

    def test_arity_mismatched_keys_survive_scans_not_probes(self):
        index = KeyIndex([("a",), ("a", "b")])
        assert len(index.keys()) == 2
        # Mask position 1 does not exist on the 1-tuple.
        assert list(index.probe((1,), ("b",))) == [("a", "b")]

    def test_estimate_prefers_bound_masks(self):
        index = KeyIndex([(i % 4, i) for i in range(16)])
        assert index.estimate(()) == 16.0
        # Small indexes get the exact distinct projection count even
        # before the mask map is built: 4 groups of 4.
        assert index.estimate((0,)) == 4.0
        # Once built, the estimate is the true average bucket size.
        index.probe((1,), (0,))
        assert index.estimate((1,)) == 1.0

    def test_estimate_sees_through_constant_columns(self):
        # Every key shares column 0: probing it returns everything,
        # and the exact count says so (the old static guess claimed 4×).
        index = KeyIndex([("a", i) for i in range(16)])
        assert index.estimate((0,)) == 16.0
        assert index.estimate((1,)) == 1.0


class TestIndexManager:
    def test_get_caches_until_version_changes(self):
        manager = IndexManager()
        first = manager.get("r", [("a",)], version=1)
        again = manager.get("r", [("a",), ("b",)], version=1)
        assert again is first  # same version: keys argument ignored
        rebuilt = manager.get("r", [("a",), ("b",)], version=2)
        assert rebuilt is not first
        assert len(rebuilt) == 2

    def test_late_bound_keys_callable(self):
        source = [("a",)]
        manager = IndexManager()
        index = manager.get("r", lambda: source, version=0)
        assert len(index) == 1

    def test_extend_maintains_without_rebuild(self):
        manager = IndexManager()
        index = manager.get("r", [("a",)], version="live")
        assert manager.extend("r", [("b",), ("a",)]) == 1
        assert manager.get("r", [], version="live") is index
        assert len(index) == 2

    def test_extend_unknown_name_raises(self):
        with pytest.raises(KeyError):
            IndexManager().extend("never-built", [("a",)])

    def test_peek_and_invalidate(self):
        manager = IndexManager()
        assert manager.peek("r") is None
        manager.get("r", [("a",)])
        assert manager.peek("r") is not None
        manager.invalidate("r")
        assert manager.peek("r") is None


class TestPlanner:
    def test_small_guard_goes_first(self):
        big = Guard(
            args=terms(["X", "Y"]),
            keys=lambda: [("a", i) for i in range(50)],
        )
        small = Guard(args=terms(["Y", "Z"]), keys=lambda: [(0, "z")])
        plan = build_plan([big, small])
        assert plan.steps[0].guard is small
        # After binding Y, the big guard probes on its bound column.
        assert plan.steps[1].mask == (1,)

    def test_constants_always_in_mask(self):
        guard = Guard(
            args=(Constant("a"), var("Y")), keys=lambda: [("a", "b")]
        )
        plan = build_plan([guard])
        assert plan.steps[0].mask == (0,)

    def test_base_bindings_bound_in_mask(self):
        guard = Guard(args=terms(["X", "Y"]), keys=lambda: [("a", "b")])
        plan = build_plan([guard], bound={"X"})
        assert plan.steps[0].mask == (0,)

    def test_execute_probes_instead_of_scans(self):
        stats = JoinStats()
        edges = [(i, i + 1) for i in range(30)]
        outer = Guard(args=terms(["X"]), keys=lambda: [(0,), (5,)])
        inner = Guard(args=terms(["X", "Y"]), keys=lambda: edges)
        guards = [outer, inner]
        ir, indexes = build_body_plan(guards, ["X", "Y"], TrueCond(), stats=stats)
        vals = [
            valuation
            for valuation, _slots in execute_ir(
                ir, guards, indexes, [], lambda r, k: False, stats=stats
            )
        ]
        assert sorted(v["Y"] for v in vals) == [1, 6]
        # One scan of the outer guard; one probe per outer candidate.
        assert stats.scans == 1
        assert stats.probes == 2
        # Far fewer keys examined than the 2 * 30 a scan join touches.
        assert stats.keys_examined == 2 + 2

    def test_repeated_variable_guard(self):
        loop = Guard(
            args=terms(["X", "X"]), keys=lambda: [("a", "a"), ("a", "b")]
        )
        for plan_kind in ("indexed", "naive"):
            vals = list(
                enumerate_valuations(
                    ["X"], [loop], [], TrueCond(), lambda r, k: False,
                    plan=plan_kind,
                )
            )
            assert vals == [{"X": "a"}]


class TestFallbackPath:
    """Variables no guard covers range over the fallback domain."""

    @pytest.mark.parametrize("plan", ["indexed", "naive"])
    def test_unguarded_variables_use_fallback_domain(self, plan):
        stats = JoinStats()
        guard = Guard(args=terms(["X"]), keys=lambda: [("a",), ("b",)])
        vals = list(
            enumerate_valuations(
                ["X", "Y"], [guard], ["u", "v"], TrueCond(),
                lambda r, k: False, plan=plan, stats=stats,
            )
        )
        assert len(vals) == 4
        assert {(v["X"], v["Y"]) for v in vals} == {
            ("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"),
        }
        assert stats.fallback_candidates == 4

    @pytest.mark.parametrize("plan", ["indexed", "naive"])
    def test_fallback_respects_condition(self, plan):
        cond = Compare("!=", var("X"), var("Y"))
        vals = list(
            enumerate_valuations(
                ["X", "Y"], [], ["a", "b"], cond, lambda r, k: False,
                plan=plan,
            )
        )
        assert sorted((v["X"], v["Y"]) for v in vals) == [
            ("a", "b"), ("b", "a"),
        ]

    @pytest.mark.parametrize("plan", ["indexed", "naive"])
    def test_lifted_reals_fall_back_end_to_end(self, plan):
        """LIFTED_REAL is not naturally ordered: no guard is eligible,
        so the whole enumeration runs through the fallback product."""
        from repro.core.rules import Program, Rule

        rule = Rule("T", terms(["X"]), (SumProduct((RelAtom("C", terms(["X"])),)),))
        prog = Program(rules=[rule], edbs={"C": 1})
        db = Database(
            pops=LIFTED_REAL, relations={"C": {("a",): 2.0, ("b",): 3.0}}
        )
        result = solve(prog, db, plan=plan)
        assert result.instance.get("T", ("a",)) == 2.0
        assert result.instance.get("T", ("b",)) == 3.0
        assert result.stats["fallback_candidates"] > 0
        assert result.stats["probes"] == 0
        assert result.stats["scans"] == 0


def _solve_pair(prog, db, method, **kwargs):
    indexed = solve(prog, db, method=method, plan="indexed", **kwargs)
    naive = solve(prog, db, method=method, plan="naive", **kwargs)
    assert indexed.instance.equals(naive.instance)
    assert indexed.steps == naive.steps
    return indexed, naive


class TestPlanEquivalence:
    """Differential: both plans compute identical fixpoints, and the
    indexed plan never examines more keys than the scan join."""

    edge_sets = st.sets(
        st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=10,
    )

    @settings(max_examples=25, deadline=None)
    @given(edge_sets)
    def test_boolean_tc(self, edges):
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        indexed, naive = _solve_pair(programs.transitive_closure(), db, "naive")
        assert indexed.stats["keys_examined"] <= naive.stats["keys_examined"]

    @settings(max_examples=25, deadline=None)
    @given(edge_sets)
    def test_tropical_apsp_seminaive(self, edges):
        db = Database(pops=TROP, relations={"E": {e: 1.0 for e in edges}})
        indexed, naive = _solve_pair(programs.apsp(), db, "seminaive")
        assert indexed.stats["keys_examined"] <= naive.stats["keys_examined"]

    @settings(max_examples=15, deadline=None)
    @given(edge_sets)
    def test_quadratic_tc_seminaive(self, edges):
        """Two IDB occurrences per body (Example 6.6): exercises the
        delta/new/old store triple with shared incremental indexes."""
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        _solve_pair(programs.quadratic_transitive_closure(), db, "seminaive")

    @settings(max_examples=10, deadline=None)
    @given(edge_sets)
    def test_grounded_agrees(self, edges):
        db = Database(pops=TROP, relations={"E": {e: 1.0 for e in edges}})
        _solve_pair(programs.apsp(), db, "grounded")

    def test_sssp_line_against_dijkstra(self):
        edges = workloads.line_edges(15)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        expected = workloads.dijkstra(edges, 0)
        for plan in ("indexed", "naive"):
            for method in ("naive", "seminaive"):
                result = solve(programs.sssp(0), db, method=method, plan=plan)
                got = {
                    k[0]: v
                    for k, v in result.instance.support("L").items()
                }
                assert got == expected, (plan, method)

    def test_unknown_plan_rejected(self):
        db = Database(pops=TROP, relations={"E": {("a", "b"): 1.0}})
        evaluator = NaiveEvaluator(programs.apsp(), db, plan="bogus")
        with pytest.raises(ValueError, match="unknown join plan"):
            evaluator.run()


class TestSemiNaiveIndexMaintenance:
    def test_new_store_index_grows_incrementally(self):
        # Non-linear: the ``new``/``old`` occurrences of T really probe
        # the index over J, so it is built and fed every delta.
        edges = workloads.line_edges(8)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        evaluator = SemiNaiveEvaluator(
            programs.quadratic_transitive_closure(), db
        )
        result = evaluator.run()
        index = evaluator.indexes.peek(("sn-new", "T"))
        assert index is not None
        # The maintained index covers exactly the fixpoint support,
        # and the carried values are the store's.
        support = result.instance.support("T")
        assert sorted(index.keys()) == sorted(support.keys())
        assert {key: value for key, value in index.entries()} == dict(support)

    def test_linear_program_builds_no_new_store_index(self):
        # No variant of a linear program probes J, so no index over it
        # is ever built (nor its mask tables).
        edges = workloads.line_edges(8)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        sssp = SemiNaiveEvaluator(programs.sssp(0), db)
        sssp.run()
        assert sssp.indexes.peek(("sn-new", "L")) is None
        linear = SemiNaiveEvaluator(programs.transitive_closure(), db)
        quadratic = SemiNaiveEvaluator(
            programs.quadratic_transitive_closure(), db
        )
        assert linear.run().instance.equals(quadratic.run().instance)
        assert linear.indexes.peek(("sn-new", "T")) is None
        assert (
            linear.stats.join.index_builds < quadratic.stats.join.index_builds
        )

    def test_stats_shared_between_engines(self):
        edges = workloads.line_edges(8)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        result = solve(programs.sssp(0), db, method="seminaive")
        # Bootstrap (naïve) counters are folded into the final snapshot.
        assert result.stats["keys_examined"] > 0
        assert result.stats["probes"] > 0


class TestInstanceSupportKeys:
    def test_support_keys_feed_indexes(self):
        instance = Instance(TROP)
        instance.set("T", ("a",), 1.0)
        instance.set("T", ("b",), 2.0)
        assert sorted(instance.support_keys("T")) == [("a",), ("b",)]
        assert list(instance.support_keys("missing")) == []

    def test_copy_preserves_support_keys(self):
        instance = Instance(TROP)
        instance.set("T", ("a",), 1.0)
        snap = instance.copy()
        instance.set("T", ("b",), 2.0)
        assert list(snap.support_keys("T")) == [("a",)]
