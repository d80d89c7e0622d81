"""SCC-stratified scheduling and cost-based join ordering (PR 3).

Covers the stratum scheduler end to end:

* :func:`repro.analysis.graphs.condensation` — topological SCC order,
  recursive flags, self-loops, disconnected and rule-less predicates;
* the scheduled engines (``schedule="scc"``) against the monolithic
  baseline (``schedule="monolithic"``): identical fixpoints on the
  paper's workloads and on hypothesis-generated programs with cyclic,
  mutually recursive and disconnected predicates, across
  classic-Boolean / tropical / THREE / lifted-reals value spaces;
* the E12 acceptance counters: on line-graph layered SSSP the
  scheduled engine performs strictly fewer rule applications than the
  monolithic fixpoint, with non-recursive strata applying exactly
  once;
* cost-based join ordering (exact DP ≤ 6 guards, 2-step lookahead
  beyond): never more ``keys_examined`` than the greedy baseline on
  the checked-in benchmark workloads, and strictly fewer on the
  4-guard star join;
* per-relation index invalidation: untouched relations skip their
  per-iteration rebuild (``rebuild_skips``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.analysis.graphs import condensation
from repro.core import Database, solve
from repro.core.ast import Compare, Constant, terms, var
from repro.core.planner import order_guards
from repro.core.rules import Indicator, Program, RelAtom, Rule, SumProduct
from repro.core.scheduler import scheduled_fixpoint, stratify
from repro.core.valuations import Guard
from repro.semirings import BOOL, LIFTED_REAL, THREE, TROP


# ---------------------------------------------------------------------------
# Condensation of the predicate dependency graph.
# ---------------------------------------------------------------------------


class TestCondensation:
    def test_layered_sssp_strata(self):
        cond = condensation(programs.layered_sssp(0))
        assert cond.components == [("S",), ("L",), ("Best",)]
        assert cond.recursive == [False, True, False]

    def test_self_loop_is_recursive(self):
        cond = condensation(programs.sssp(0))
        assert cond.components == [("L",)]
        assert cond.recursive == [True]

    def test_mutual_recursion_one_component(self):
        rules = [
            Rule("P", terms(["X"]), (SumProduct((RelAtom("Q", terms(["X"])),)),)),
            Rule(
                "Q",
                terms(["X"]),
                (
                    SumProduct((RelAtom("P", terms(["X"])),)),
                    SumProduct((RelAtom("A", terms(["X"])),)),
                ),
            ),
        ]
        cond = condensation(Program(rules=rules, edbs={"A": 1}))
        assert cond.components == [("P", "Q")]
        assert cond.recursive == [True]

    def test_disconnected_and_ruleless_predicates(self):
        rules = [
            Rule("P", terms(["X"]), (SumProduct((RelAtom("A", terms(["X"])),)),)),
            Rule("Z", terms(["X"]), (SumProduct((RelAtom("A", terms(["X"])),)),)),
        ]
        program = Program(rules=rules, edbs={"A": 1}, idbs={"R": 1})
        cond = condensation(program)
        assert sorted(cond.components) == [("P",), ("R",), ("Z",)]
        assert cond.recursive == [False, False, False]

    def test_order_respects_dependencies(self):
        prog = programs.layered_sssp(0)
        cond = condensation(prog)
        seen = set()
        deps = {"S": set(), "L": {"S", "L"}, "Best": {"L"}}
        for comp, _rec in cond:
            for rel in comp:
                assert deps[rel] <= seen | set(comp)
            seen |= set(comp)


# ---------------------------------------------------------------------------
# E12 acceptance: strictly fewer rule applications under scheduling.
# ---------------------------------------------------------------------------


class TestScheduledCounters:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_line28_sssp_fewer_rule_applications(self, method):
        prog = programs.layered_sssp(0)
        edges = workloads.line_edges(28)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        mono = solve(prog, db, method=method, schedule="monolithic")
        scc = solve(prog, db, method=method, schedule="scc")
        assert scc.instance.equals(mono.instance)
        assert (
            scc.stats["rule_applications"] < mono.stats["rule_applications"]
        )
        # The source and output layers leave the fixpoint loop: their
        # bodies apply exactly once per run.
        by_rel = {r.relations: r for r in scc.strata}
        for comp in (("S",), ("Best",)):
            report = by_rel[comp]
            assert not report.recursive
            assert report.iterations == 1
            assert report.rule_applications == 1
        assert by_rel[("L",)].recursive

    def test_schedule_stats_surface(self):
        prog = programs.layered_sssp(0)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.line_edges(6))}
        )
        result = scheduled_fixpoint(prog, db)
        assert result.stats["strata"] == 3
        assert result.stats["recursive_strata"] == 1
        assert len(result.strata) == 3
        assert result.steps == max(r.steps for r in result.strata)
        payload = [r.as_dict() for r in result.strata]
        assert all("rule_applications" in row for row in payload)

    def test_monolithic_skips_untouched_relation_rebuilds(self):
        # S freezes after iteration 1 and Best tracks L one step behind;
        # the per-relation versioning must skip their index rebuilds.
        prog = programs.layered_sssp(0)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.line_edges(12))}
        )
        mono = solve(prog, db, schedule="monolithic")
        assert mono.stats["rebuild_skips"] > 0

    def test_trace_capture_requires_monolithic(self):
        prog = programs.sssp(0)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.line_edges(4))}
        )
        with pytest.raises(ValueError):
            solve(prog, db, schedule="scc", capture_trace=True)
        # auto falls back to the monolithic global chain.
        result = solve(prog, db, capture_trace=True)
        assert result.trace


# ---------------------------------------------------------------------------
# Scheduled == monolithic on the paper's workloads.
# ---------------------------------------------------------------------------


class TestScheduledDifferentials:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_layered_sssp_tropical(self, method):
        prog = programs.layered_sssp(0)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.line_edges(10))}
        )
        mono = solve(prog, db, method=method, schedule="monolithic")
        scc = solve(prog, db, method=method, schedule="scc")
        assert scc.instance.equals(mono.instance)

    def test_lifted_reals_bom_with_output_layer(self):
        rules = list(programs.bill_of_material().rules)
        rules.append(
            Rule(
                "Out",
                terms(["X"]),
                (SumProduct((RelAtom("T", terms(["X"])),)),),
            )
        )
        prog = Program(rules=rules, edbs={"C": 1}, bool_edbs={"E": 2})
        db = Database(
            pops=LIFTED_REAL,
            relations={"C": {("a",): 1.0, ("b",): 2.0, ("c",): 4.0}},
            bool_relations={"E": {("a", "b"), ("b", "c")}},
        )
        mono = solve(prog, db, schedule="monolithic")
        scc = solve(prog, db, schedule="scc")
        assert scc.instance.equals(mono.instance)

    def test_seminaive_accepts_frozen_layer_under_function(self):
        # Monolithic semi-naïve rejects IDB atoms under interpreted
        # functions; once the lower layer is frozen it is a constant to
        # the differential rule, so the scheduled engine accepts it.
        from repro.core.rules import FuncFactor
        from repro.core.seminaive import SemiNaiveError
        from repro.semirings.base import FunctionRegistry

        registry = FunctionRegistry()
        registry.register("double", lambda v: v + v if v != float("inf") else v)
        rules = [
            Rule(
                "Base",
                terms(["X"]),
                (SumProduct((RelAtom("A", terms(["X"])),)),),
            ),
            Rule(
                "Up",
                terms(["X"]),
                (
                    SumProduct(
                        (FuncFactor("double", (RelAtom("Base", terms(["X"])),)),)
                    ),
                    SumProduct(
                        (
                            RelAtom("Up", terms(["Z"])),
                            RelAtom("E", terms(["Z", "X"])),
                        )
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"A": 1, "E": 2})
        db = Database(
            pops=TROP,
            relations={
                "A": {(0,): 3.0, (1,): 5.0},
                "E": dict(workloads.line_edges(4)),
            },
        )
        with pytest.raises(SemiNaiveError):
            solve(
                prog, db, method="seminaive", schedule="monolithic",
                functions=registry,
            )
        scc = solve(
            prog, db, method="seminaive", schedule="scc", functions=registry
        )
        mono = solve(
            prog, db, method="naive", schedule="monolithic",
            functions=registry,
        )
        assert scc.instance.equals(mono.instance)


# ---------------------------------------------------------------------------
# Hypothesis: scheduled == monolithic over random layered programs.
# ---------------------------------------------------------------------------

_PREDS = ["P0", "P1", "P2", "P3"]

#: One body spec: ("edb",) | ("ind", const) | ("copy", j) | ("step", j).
_body_spec = st.one_of(
    st.just(("edb",)),
    st.tuples(st.just("ind"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("copy"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("step"), st.integers(min_value=0, max_value=3)),
)

_program_spec = st.lists(
    st.lists(_body_spec, min_size=1, max_size=2),
    min_size=1,
    max_size=4,
)


def _build_program(spec, acyclic: bool) -> Program:
    rules = []
    for i, bodies in enumerate(spec):
        head = _PREDS[i]
        sum_products = []
        for body in bodies:
            kind = body[0]
            if kind == "edb":
                sum_products.append(
                    SumProduct((RelAtom("A", terms(["X"])),))
                )
            elif kind == "ind":
                sum_products.append(
                    SumProduct(
                        (
                            Indicator(
                                Compare("==", var("X"), Constant(body[1]))
                            ),
                        )
                    )
                )
            else:
                j = body[1] % len(spec)
                if acyclic and j >= i:
                    # Break the cycle: read the EDB instead.
                    sum_products.append(
                        SumProduct((RelAtom("A", terms(["X"])),))
                    )
                elif kind == "copy":
                    sum_products.append(
                        SumProduct((RelAtom(_PREDS[j], terms(["X"])),))
                    )
                else:
                    sum_products.append(
                        SumProduct(
                            (
                                RelAtom(_PREDS[j], terms(["Z"])),
                                RelAtom("E", terms(["Z", "X"])),
                            )
                        )
                    )
        rules.append(Rule(head, terms(["X"]), tuple(sum_products)))
    return Program(rules=rules, edbs={"A": 1, "E": 2})


def _database(pops, values):
    keys = [(0,), (1,), (2,)]
    return Database(
        pops=pops,
        relations={
            "A": dict(zip(keys, values)),
            "E": {(0, 1): values[0], (1, 2): values[1], (2, 3): values[2]},
        },
    )


class TestScheduledInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_program_spec)
    def test_idempotent_semirings_with_cycles(self, spec):
        for pops, values in (
            (BOOL, [True, True, True]),
            (TROP, [1.0, 2.0, 4.0]),
            (THREE, [1, 0, 1]),
        ):
            prog = _build_program(spec, acyclic=False)
            db = _database(pops, values)
            mono = solve(
                prog, db, schedule="monolithic", max_iterations=400
            )
            scc = solve(prog, db, schedule="scc", max_iterations=400)
            assert scc.instance.equals(mono.instance), pops.name
            if pops.caps.has_minus:
                semi = solve(
                    prog,
                    db,
                    method="seminaive",
                    schedule="scc",
                    max_iterations=400,
                )
                assert semi.instance.equals(mono.instance), pops.name

    @settings(max_examples=40, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        # ⊕ is not idempotent over R⊥: keep dependencies acyclic so
        # both schedules converge, then require identical valuations.
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        mono = solve(prog, db, schedule="monolithic", max_iterations=400)
        scc = solve(prog, db, schedule="scc", max_iterations=400)
        assert scc.instance.equals(mono.instance)


# ---------------------------------------------------------------------------
# Cost-based join ordering vs the greedy baseline.
# ---------------------------------------------------------------------------


def _star_db():
    # T's and R's X-columns are disjoint (the join is empty), and R's
    # Y-column touches only half of S/U — exactly the shape where
    # walking into a cartesian prefix hurts.
    return Database(
        pops=TROP,
        relations={
            "T": {(i,): 1.0 for i in range(5)},
            "S": {(10 + j,): 1.0 for j in range(4)},
            "U": {(10,): 1.0, (11,): 1.0},
            "R": {(100 + i, 10 + (i % 2)): float(i) for i in range(10)},
        },
    )


def _star_program() -> Program:
    body = SumProduct(
        (
            RelAtom("T", terms(["X"])),
            RelAtom("S", terms(["Y"])),
            RelAtom("U", terms(["Y"])),
            RelAtom("R", terms(["X", "Y"])),
        )
    )
    return Program(
        rules=[Rule("Q", terms(["X"]), (body,))],
        edbs={"T": 1, "S": 1, "U": 1, "R": 2},
    )


class TestCostBasedOrdering:
    def test_dp_beats_greedy_on_star_join(self):
        # The greedy tie-break walks into a T×(U⋈S) cartesian before it
        # ever consults R; the subset DP sees that opening with T makes
        # R an immediately-failing probe and prices the whole order ≥10%
        # cheaper, so it deviates.  4 guards: the exact-DP regime.
        db = _star_db()
        dp = solve(_star_program(), db, plan="indexed")
        greedy = solve(_star_program(), db, plan="indexed-greedy")
        assert dp.instance.equals(greedy.instance)
        assert dp.stats["keys_examined"] < greedy.stats["keys_examined"]

    @pytest.mark.parametrize(
        "tag,prog,db,method",
        [
            (
                "e12-line12-naive",
                programs.sssp(0),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.line_edges(12))},
                ),
                "naive",
            ),
            (
                "e12-line12-seminaive",
                programs.sssp(0),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.line_edges(12))},
                ),
                "seminaive",
            ),
            (
                "e12-line28-naive",
                programs.sssp(0),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.line_edges(28))},
                ),
                "naive",
            ),
            (
                "e23-grid3-naive",
                programs.apsp(),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.grid_edges(3, 3))},
                ),
                "naive",
            ),
            (
                "e23-grid3-seminaive",
                programs.apsp(),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.grid_edges(3, 3))},
                ),
                "seminaive",
            ),
            (
                "e12-layered-line28",
                programs.layered_sssp(0),
                Database(
                    pops=TROP,
                    relations={"E": dict(workloads.line_edges(28))},
                ),
                "naive",
            ),
            (
                "star-join",
                _star_program(),
                _star_db(),
                "naive",
            ),
        ],
    )
    def test_dp_never_exceeds_greedy_on_baseline_benchmarks(
        self, tag, prog, db, method
    ):
        """The acceptance gate: DP ≤ greedy on every checked-in
        baseline benchmark workload (monolithic and scheduled)."""
        for schedule in ("monolithic", "scc"):
            dp = solve(prog, db, method=method, plan="indexed", schedule=schedule)
            greedy = solve(
                prog, db, method=method, plan="indexed-greedy",
                schedule=schedule,
            )
            assert dp.instance.equals(greedy.instance), (tag, schedule)
            assert (
                dp.stats["keys_examined"] <= greedy.stats["keys_examined"]
            ), (tag, schedule)

    def test_order_guards_exact_vs_lookahead_consistency(self):
        # 7 guards exceeds the DP limit: the lookahead must still emit
        # a permutation and keep the probe pipeline sound.
        guards = [
            Guard(args=terms(["X%d" % i, "X%d" % (i + 1)]),
                  keys=lambda i=i: [(i, i + 1), (i, i + 2)])
            for i in range(7)
        ]
        from repro.core.planner import _guard_index

        indexes = [_guard_index(g, None) for g in guards]
        order = order_guards(guards, indexes, set(), order="cost")
        assert sorted(order) == list(range(7))

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            order_guards([], [], set(), order="mystery")
        prog = programs.sssp(0)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.line_edges(3))}
        )
        with pytest.raises(ValueError):
            solve(prog, db, plan="indexed-mystery")

    def test_greedy_plan_still_differential_to_naive(self):
        prog = programs.apsp()
        db = Database(
            pops=TROP, relations={"E": dict(workloads.grid_edges(3, 3))}
        )
        greedy = solve(prog, db, plan="indexed-greedy")
        seed = solve(prog, db, plan="naive")
        assert greedy.instance.equals(seed.instance)


# ---------------------------------------------------------------------------
# Demand-roots pruning of the condensation (PR 10).
# ---------------------------------------------------------------------------


class TestRestrictToRoots:
    """``_restrict_to_roots`` — the lever the demand path pulls to skip
    strata its query adornment never reaches."""

    def _pruned(self, roots):
        from repro.core.scheduler import _restrict_to_roots

        return _restrict_to_roots(
            condensation(programs.graph_analytics()), roots
        )

    def test_keeps_only_components_the_root_reads(self):
        pruned = self._pruned(("T",))
        kept = {name for comp in pruned.components for name in comp}
        assert "T" in kept
        assert kept.isdisjoint({"Rev", "C", "Out"})

    def test_remapped_indexes_stay_topological(self):
        pruned = self._pruned(("T",))
        for i, deps in enumerate(pruned.dependencies):
            for j in deps:
                assert 0 <= j < len(pruned.components)
                assert j < i  # Kahn order survives the remap

    def test_recursive_flags_survive(self):
        full = condensation(programs.graph_analytics())
        flags = dict(zip(full.components, full.recursive))
        pruned = self._pruned(("T",))
        for comp, recursive in zip(pruned.components, pruned.recursive):
            assert flags[comp] == recursive

    def test_all_roots_is_identity(self):
        full = condensation(programs.graph_analytics())
        pruned = self._pruned(("T", "Rev", "C", "Out"))
        assert pruned.components == full.components
        assert pruned.recursive == full.recursive

    def test_unknown_root_keeps_nothing(self):
        pruned = self._pruned(("NoSuchRelation",))
        assert pruned.components == []

    def test_scheduled_fixpoint_skips_pruned_strata(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.grid_edges(3, 3))}
        )
        prog = programs.graph_analytics()
        full = scheduled_fixpoint(prog, db, method="seminaive")
        pruned = scheduled_fixpoint(
            prog, db, method="seminaive", strata=stratify(prog, ("T",))
        )
        assert dict(pruned.instance.support("T")) == dict(
            full.instance.support("T")
        )
        for view in ("Rev", "C", "Out"):
            assert full.instance.support(view)
            assert not pruned.instance.support(view)
