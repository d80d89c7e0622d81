"""Solve-time guardrails: pre-flight verdicts, budgets, partial results.

The robustness contract (ISSUE 8): every solve gets a structured
convergence prediction up front, enforceable resource budgets during,
and — when a budget trips — a :class:`BudgetExceeded` carrying the last
consistent fixpoint prefix instead of losing all work.  The hypothesis
block at the bottom asserts the soundness property that makes partial
results *usable*: a budget-interrupted prefix is ``⊑`` the true least
fixpoint pointwise, across TROP / BOOL / THREE and both iterative
methods.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import programs, workloads
from repro.core import (
    Budget,
    BudgetExceeded,
    Database,
    FaultPlan,
    PartialResult,
    PreflightVerdict,
    preflight,
    solve,
)
from repro.core.guardrails import FaultSpec, payload_checksum
from repro.fixpoint import DivergenceError
from repro.semirings import BOOL, NAT, THREE, TROP, TropicalPSemiring


def _trop_db(n=8, p=0.4, seed=1):
    edges = workloads.random_weighted_digraph(n, p, seed=seed)
    return Database(pops=TROP, relations={"E": dict(edges)})


def _nat_cycle_db():
    """Fig. 2(b)'s cyclic bill-of-material over ℕ — the canonical
    case-(i) diverger (no stability, values grow without bound)."""
    edges, costs = workloads.fig_2b_bom()
    return Database(
        pops=NAT,
        relations={"C": {(k,): int(v) for k, v in costs.items()}},
        bool_relations={"E": set(edges)},
    )


# ---------------------------------------------------------------------------
# pre-flight verdicts
# ---------------------------------------------------------------------------


class TestPreflight:
    def test_zero_stable_core_is_bounded(self):
        verdict = preflight(programs.apsp(), _trop_db())
        assert verdict.status == "bounded"
        assert verdict.bound is not None
        assert verdict.describe() == f"bounded-by-{verdict.bound}"
        assert verdict.report is not None

    def test_bool_tc_is_bounded(self):
        db = Database(
            pops=BOOL, relations={"E": {("a", "b"): True, ("b", "c"): True}}
        )
        verdict = preflight(programs.transitive_closure(), db)
        assert verdict.status == "bounded"

    def test_nat_cycle_may_diverge(self):
        verdict = preflight(programs.bill_of_material(), _nat_cycle_db())
        assert verdict.status == "may-diverge"
        assert verdict.describe().startswith("may-diverge: ")
        assert verdict.bound is None

    def test_as_dict_shape(self):
        verdict = preflight(programs.apsp(), _trop_db())
        payload = verdict.as_dict()
        assert payload["status"] == "bounded"
        assert payload["verdict"] == verdict.describe()
        assert payload["bound"] == verdict.bound
        assert payload["taxonomy_case"] == verdict.report.taxonomy_case

    def test_never_raises_on_analysis_failure(self):
        verdict = preflight(programs.apsp(), object())
        assert verdict.status == "may-diverge"
        assert "pre-flight analysis failed" in verdict.reason

    def test_large_instance_takes_coarse_path(self, monkeypatch):
        """Above the N cap the bignum Theorem 5.12 bounds are skipped:
        a 0-stable core still reads ``bounded`` with the N fallback."""
        from repro.core import guardrails

        monkeypatch.setattr(guardrails, "_BOUND_N_CAP", 1)
        verdict = preflight(programs.apsp(), _trop_db())
        assert verdict.status == "bounded"
        assert verdict.report is None  # classify() never ran
        # For a 0-stable core the coarse bound (Corollary 5.19's N)
        # agrees with the exact path's zero-stable bound.
        exact = preflight(programs.apsp(), _trop_db())
        assert verdict.bound == exact.bound

    def test_coarse_path_stable_core_converges(self, monkeypatch):
        """A p-stable (p>0) core above the cap: convergence guaranteed
        but the explicit bound is omitted rather than materialized."""
        from repro.core import guardrails

        monkeypatch.setattr(guardrails, "_BOUND_N_CAP", 1)
        tp1 = TropicalPSemiring(1)
        db = Database(
            pops=tp1,
            relations={"E": {("a", "b"): tp1.singleton(1.0)}},
        )
        verdict = preflight(programs.apsp(), db)
        assert verdict.status == "converges"
        assert verdict.bound is None

    def test_solve_attaches_verdict(self):
        result = solve(programs.apsp(), _trop_db())
        assert isinstance(result.verdict, PreflightVerdict)
        assert result.verdict.status == "bounded"

    def test_preflight_off_means_no_verdict(self):
        result = solve(programs.apsp(), _trop_db(), preflight="off")
        assert result.verdict is None

    def test_bad_preflight_knob_rejected(self):
        with pytest.raises(ValueError, match="preflight"):
            solve(programs.apsp(), _trop_db(), preflight="maybe")


# ---------------------------------------------------------------------------
# budget mechanics
# ---------------------------------------------------------------------------


class TestBudget:
    def test_unarmed_budget_is_free(self):
        budget = Budget()
        assert budget.wall_hook() is None
        budget.charge_size(10**9)  # no limits armed → no trip
        budget.poll()

    def test_tuple_budget_trips_with_committed_spend(self):
        budget = Budget(max_tuples=10)
        budget.commit_tuples(7)
        budget.charge_size(3)  # exactly at the limit is fine
        with pytest.raises(BudgetExceeded) as err:
            budget.charge_size(4)
        assert err.value.resource == "tuples"
        assert err.value.limit == 10
        assert err.value.spent == 11

    def test_wall_budget_polls(self):
        budget = Budget(max_wall_s=0.0)
        assert budget.wall_hook() is not None
        with pytest.raises(BudgetExceeded) as err:
            budget.poll()
        assert err.value.resource == "wall_s"

    def test_budget_exceeded_is_divergence_error(self):
        # Pre-guardrail callers catching DivergenceError keep working.
        assert issubclass(BudgetExceeded, DivergenceError)

    def test_attach_partial_innermost_wins(self):
        from repro.core.guardrails import attach_partial

        exc = BudgetExceeded(resource="tuples", limit=1, spent=2)
        inner = PartialResult(instance=object(), steps=3)
        outer = PartialResult(instance=object(), steps=9)
        attach_partial(exc, inner)
        attach_partial(exc, outer)
        assert exc.partial is inner


class TestBudgetsThroughSolve:
    def test_may_diverge_under_iteration_budget(self):
        """The ISSUE acceptance criterion: a known-divergent program
        under ``max_iterations`` raises a *structured* BudgetExceeded
        carrying a non-empty partial and the pre-flight verdict."""
        with pytest.raises(BudgetExceeded) as err:
            solve(
                programs.bill_of_material(),
                _nat_cycle_db(),
                max_iterations=5,
            )
        exc = err.value
        assert exc.resource == "iterations"
        assert exc.limit == 5
        assert exc.verdict is not None
        assert exc.verdict.status == "may-diverge"
        assert exc.partial is not None
        assert exc.partial.steps == 5
        assert len(exc.partial.instance.support("T")) > 0

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_tuple_budget_carries_partial(self, method):
        with pytest.raises(BudgetExceeded) as err:
            solve(programs.apsp(), _trop_db(), method=method, max_tuples=5)
        exc = err.value
        assert exc.resource == "tuples"
        assert exc.partial is not None
        assert exc.partial.instance.size() > 0
        if method == "seminaive":
            assert exc.partial.delta is not None

    def test_wall_budget_interrupts_inside_iteration(self):
        with pytest.raises(BudgetExceeded) as err:
            solve(
                programs.apsp(),
                _trop_db(10, 0.5, seed=2),
                max_wall_s=0.0,
            )
        assert err.value.resource == "wall_s"

    def test_exhaustion_message_is_preserved(self):
        # The pre-guardrail DivergenceError text survives verbatim, so
        # message-matching callers are unbroken.
        with pytest.raises(DivergenceError, match="did not converge"):
            solve(
                programs.bill_of_material(),
                _nat_cycle_db(),
                max_iterations=5,
            )

    @pytest.mark.parametrize("method", ["grounded", "linear"])
    def test_one_shot_methods_reject_iterative_budgets(self, method):
        db = Database(
            pops=TROP, relations={"E": {("a", "b"): 1.0, ("b", "c"): 2.0}}
        )
        with pytest.raises(ValueError, match="budget"):
            solve(programs.apsp(), db, method=method, max_wall_s=1.0)
        # …but the pre-flight verdict still rides along.
        extra = {"stability_p": 0} if method == "linear" else {}
        result = solve(programs.apsp(), db, method=method, **extra)
        assert result.verdict is not None

    def test_scheduler_partial_keeps_completed_strata(self):
        """A budget tripping in a later stratum keeps the frozen
        earlier strata in the partial instance."""
        program = programs.layered_sssp("a")
        edges = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 1.0}
        db = Database(pops=TROP, relations={"E": dict(edges)})
        full = solve(program, db, schedule="scc")
        budget = full.instance.size() - 1
        with pytest.raises(BudgetExceeded) as err:
            solve(program, db, schedule="scc", max_tuples=budget)
        partial = err.value.partial
        assert partial is not None
        # Whatever it kept agrees with the fixpoint exactly.
        for rel in partial.instance.relations():
            for key, value in partial.instance.support(rel).items():
                assert TROP.eq(value, full.instance.get(rel, key))


# ---------------------------------------------------------------------------
# fault plans (DATALOGO_FAULT)
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_single(self):
        plan = FaultPlan.parse("crash@2:1")
        assert plan.specs == (FaultSpec("crash", 2, 1, 0),)
        assert bool(plan)

    def test_parse_defaults_and_generation(self):
        assert FaultPlan.parse("stall@3").specs == (
            FaultSpec("stall", 3, 0, 0),
        )
        assert FaultPlan.parse("corrupt@2:1:4").specs == (
            FaultSpec("corrupt", 2, 1, 4),
        )
        assert FaultPlan.parse("crash@2:0:*").specs == (
            FaultSpec("crash", 2, 0, None),
        )

    def test_parse_multi_clause(self):
        plan = FaultPlan.parse("crash@2:0, corrupt@3:1")
        assert [s.kind for s in plan.specs] == ["crash", "corrupt"]

    @pytest.mark.parametrize(
        "raw",
        # ``crash@journal:3`` is the retired named-site grammar.
        ["explode@2:0", "crash", "crash@x:0", "crash@2:0:y", "crash@journal:3"],
    )
    def test_parse_rejects_malformed(self, raw):
        with pytest.raises(ValueError, match="DATALOGO_FAULT"):
            FaultPlan.parse(raw)

    def test_empty_env_is_falsy(self):
        plan = FaultPlan.from_env({})
        assert not plan
        assert not plan.should("crash", 2, 0, 0)

    def test_from_env_reads_mapping(self):
        plan = FaultPlan.from_env({"DATALOGO_FAULT": "stall@1:0"})
        assert plan.should("stall", 1, 0, 0)

    def test_pinned_generation_fires_once(self):
        plan = FaultPlan.parse("crash@2:1")
        assert not plan.should("crash", 1, 1, 0)  # wrong step
        assert not plan.should("crash", 2, 0, 0)  # wrong worker
        assert not plan.should("stall", 2, 1, 0)  # wrong kind
        assert not plan.should("crash", 2, 1, 1)  # wrong generation
        assert plan.should("crash", 2, 1, 0)
        assert not plan.should("crash", 2, 1, 0)  # consumed

    def test_wildcard_fires_once_per_generation(self):
        plan = FaultPlan.parse("crash@2:0:*")
        for generation in (0, 1, 2):
            assert plan.should("crash", 2, 0, generation)
            assert not plan.should("crash", 2, 0, generation)

    def test_payload_checksum_detects_mutation(self):
        payload = [("T", [(("a", "b"), 1.0), (("b", "c"), 2.0)])]
        crc = payload_checksum(payload)
        assert crc == payload_checksum(
            [("T", [(("a", "b"), 1.0), (("b", "c"), 2.0)])]
        )
        assert crc != payload_checksum(
            [("T", [(("a", "b"), 1.0), (("b", "c"), 2.5)])]
        )


# ---------------------------------------------------------------------------
# partial ⊑ fixpoint soundness (hypothesis)
# ---------------------------------------------------------------------------

_SPACES = ["trop", "bool", "three"]


def _tc_database(space: str, n: int, seed: int) -> Database:
    """The same random digraph shape read over three value spaces."""
    edges = workloads.random_weighted_digraph(n, 0.35, seed=seed)
    if space == "trop":
        return Database(pops=TROP, relations={"E": dict(edges)})
    pops = BOOL if space == "bool" else THREE
    return Database(
        pops=pops, relations={"E": {key: True for key in edges}}
    )


class TestPartialSoundness:
    """Budget-interrupted prefixes are ``⊑`` the true least fixpoint.

    The Kleene iterates form an ascending chain in the POPS order, and
    a :class:`PartialResult` is always a fully applied iterate — so
    every value it holds must be ``⊑`` the converged value, pointwise,
    under any budget, method, or value space.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        space=st.sampled_from(_SPACES),
        n=st.integers(min_value=4, max_value=9),
        seed=st.integers(min_value=0, max_value=200),
        max_iterations=st.integers(min_value=1, max_value=3),
        method=st.sampled_from(["naive", "seminaive"]),
    )
    def test_partial_leq_fixpoint(
        self, space, n, seed, max_iterations, method
    ):
        # THREE has no ⊖ operator: the semi-naïve differential rule
        # does not apply (Definition 6.2) — naive only.
        assume(not (space == "three" and method == "seminaive"))
        db = _tc_database(space, n, seed)
        full = solve(programs.transitive_closure(), db, method=method)
        try:
            interrupted = solve(
                programs.transitive_closure(),
                db,
                method=method,
                max_iterations=max_iterations,
            )
        except BudgetExceeded as exc:
            assert exc.partial is not None
            partial = exc.partial.instance
            assert exc.partial.steps <= max_iterations
        else:
            # Converged inside the budget — the "prefix" is the
            # fixpoint itself and the property holds with equality.
            partial = interrupted.instance
        pops = db.pops
        for rel in partial.relations():
            fixpoint = full.instance.support(rel)
            for key, value in partial.support(rel).items():
                assert key in fixpoint, (rel, key)
                assert pops.leq(value, fixpoint[key]), (rel, key)

    @settings(max_examples=20, deadline=None)
    @given(
        space=st.sampled_from(_SPACES),
        seed=st.integers(min_value=0, max_value=100),
        max_tuples=st.integers(min_value=1, max_value=12),
    )
    def test_tuple_budget_partial_leq_fixpoint(
        self, space, seed, max_tuples
    ):
        db = _tc_database(space, 8, seed)
        full = solve(programs.transitive_closure(), db)
        try:
            solve(
                programs.transitive_closure(), db, max_tuples=max_tuples
            )
        except BudgetExceeded as exc:
            if exc.partial is None:
                return  # tripped before the first iterate completed
            partial = exc.partial.instance
        else:
            return  # fixpoint fit inside the budget
        pops = db.pops
        for rel in partial.relations():
            for key, value in partial.support(rel).items():
                assert pops.leq(value, full.instance.get(rel, key))
