"""Demand-driven query path (PR 10): magic sets as a planner stage.

Covers :mod:`repro.core.demand` end to end:

* query patterns — the ``T(a,?)`` string syntax, the tuple form, the
  :class:`~repro.core.demand.DemandQuery` surface, and the malformed
  inputs that raise :class:`~repro.core.demand.DemandError`;
* the fragment verdict — supported on the idempotent naturally ordered
  semirings, with named reasons for non-idempotent ⊕ (NAT), missing
  natural order (LIFTED_REAL), non-linear sideways prefixes (the
  quadratic TC²), and reserved auxiliary names;
* the rewrite structure — ``__demand_m_*`` magic IDBs, ``__demand_supp_*``
  Boolean support views injected into the augmented database;
* hypothesis differentials: demanded atoms byte-identical to the full
  fixpoint across four semirings × four kernel engines, with soundness
  (no wrong values anywhere) on every draw;
* counted fallbacks — everything outside the fragment (and the
  grounded/linear methods, and ``capture_trace``) runs the full
  fixpoint with ``stats["demand_fallbacks"] == 1`` and a reason in
  ``stats["demand_unsupported"]``;
* SCC-roots pruning — under the multi-view ``graph_analytics`` program
  a point query on ``T`` never materializes the sibling views.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import Database, Instance, solve
from repro.core.demand import (
    MAGIC_PREFIX,
    VIEW_PREFIX,
    DemandError,
    DemandQuery,
    demand_rewrite,
    demand_solve,
    demand_verdict,
    normalize_query,
    parse_query,
    strip_demand_relations,
)
from repro.semirings import BOOL, BOTTLENECK, LIFTED_REAL, NAT, TROP, VITERBI

# The engine matrix: DATALOGO_ENGINE picks the CI subject; the rest of
# the kernel engines always ride along (same idiom as test_codegen.py).
_SUBJECT = os.environ.get("DATALOGO_ENGINE", "codegen")
ENGINES = tuple(
    dict.fromkeys((_SUBJECT, "interpreted", "compiled", "codegen", "batched"))
)

NODES = ["a", "b", "c", "d", "e"]

edge_sets = st.sets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=10,
)

#: Per-semiring edge weights, deterministic in the edge's sort rank so
#: one hypothesis draw exercises all four value spaces identically.
#: VITERBI weights are exact binary fractions: byte-parity assertions
#: must not hinge on float rounding.
WEIGHTS = {
    "TROP": lambda i: float(1 + i % 7),
    "BOOL": lambda i: True,
    "BOTTLENECK": lambda i: float(1 + i % 5),
    "VITERBI": lambda i: (1.0, 0.5, 0.25, 0.125)[i % 4],
}
SEMIRINGS = {
    "TROP": TROP,
    "BOOL": BOOL,
    "BOTTLENECK": BOTTLENECK,
    "VITERBI": VITERBI,
}


def weighted_db(name, edges, offset=0):
    weight = WEIGHTS[name]
    relation = {
        e: weight(i + offset) for i, e in enumerate(sorted(edges))
    }
    return Database(pops=SEMIRINGS[name], relations={"E": relation})


# ---------------------------------------------------------------------------
# Query patterns
# ---------------------------------------------------------------------------


class TestQueryPatterns:
    def test_parse_string_form(self):
        q = parse_query("T(a, ?)")
        assert q == DemandQuery("T", ("a", None))
        assert q.adornment == "bf"
        assert q.bindings == ("a",)

    def test_parse_coerces_integers(self):
        assert parse_query("T(3, _)").pattern == (3, None)

    def test_parse_strips_quotes(self):
        assert parse_query("T('a', \"b\")").pattern == ("a", "b")

    def test_parse_nullary(self):
        assert parse_query("Done()").pattern == ()

    def test_parse_rejects_garbage(self):
        with pytest.raises(DemandError, match="unparseable"):
            parse_query("T(a")
        with pytest.raises(DemandError, match="unparseable"):
            parse_query("not a query")

    def test_parse_rejects_empty_argument(self):
        """Only '?'/'_' mark free positions; an empty argument is an
        error naming its position, while ``T()`` stays nullary."""
        with pytest.raises(DemandError, match="empty argument at position 1"):
            parse_query("T(a,)")
        with pytest.raises(DemandError, match="empty argument at position 1"):
            parse_query("T(a,,b)")
        with pytest.raises(DemandError, match="empty argument at position 0"):
            parse_query("T(,)")
        assert parse_query("T()").pattern == ()

    def test_normalize_accepts_all_spellings(self):
        q = DemandQuery("T", ("a", None))
        assert normalize_query(q) is q
        assert normalize_query("T(a,?)") == q
        assert normalize_query(("T", ("a", None))) == q
        assert normalize_query(("T", ["a", None])) == q

    def test_normalize_rejects_malformed(self):
        with pytest.raises(DemandError):
            normalize_query(42)
        with pytest.raises(DemandError, match="must be a string"):
            normalize_query((42, ("a",)))
        with pytest.raises(DemandError, match="pattern"):
            normalize_query(("T", "ab"))
        with pytest.raises(DemandError, match=r"\['x'\].*unhashable"):
            normalize_query(("T", (["x"], None)))

    def test_matches(self):
        q = DemandQuery("T", ("a", None))
        assert q.matches(("a", "b"))
        assert not q.matches(("b", "b"))
        assert not q.matches(("a",))
        assert str(q) == "T(a, ?)"


# ---------------------------------------------------------------------------
# Fragment verdict
# ---------------------------------------------------------------------------


class TestVerdict:
    @pytest.mark.parametrize("name", sorted(SEMIRINGS), ids=str)
    def test_supported_semirings(self, name):
        verdict = demand_verdict(
            programs.apsp(), ("T", (0, None)), SEMIRINGS[name]
        )
        assert verdict.supported
        assert ("T", "bf") in verdict.adornments
        assert "supported" in verdict.describe()

    def test_non_idempotent_add_rejected(self):
        verdict = demand_verdict(
            programs.transitive_closure(), ("T", (0, None)), NAT
        )
        assert not verdict.supported
        assert any("idempotent" in r for r in verdict.reasons)

    def test_unordered_pops_rejected(self):
        verdict = demand_verdict(
            programs.apsp(), ("T", (0, None)), LIFTED_REAL
        )
        assert not verdict.supported
        assert any("naturally ordered" in r for r in verdict.reasons)

    def test_quadratic_tc_outside_fragment(self):
        """TC²'s T(X,Z)·T(Z,Y) puts an IDB atom in a sideways prefix."""
        verdict = demand_verdict(
            programs.quadratic_transitive_closure(), ("T", (0, None)), BOOL
        )
        assert not verdict.supported
        assert any("IDB" in r for r in verdict.reasons)
        assert "unsupported" in verdict.describe()

    def test_reserved_names_rejected(self):
        prog = programs.apsp(edge=MAGIC_PREFIX + "E")
        verdict = demand_verdict(prog, ("T", (0, None)), TROP)
        assert not verdict.supported
        assert any("reserved" in r for r in verdict.reasons)

    def test_unknown_relation_raises(self):
        with pytest.raises(DemandError, match="not an IDB"):
            demand_verdict(programs.apsp(), ("E", (0, None)), TROP)

    def test_arity_mismatch_raises(self):
        with pytest.raises(DemandError, match="arity"):
            demand_verdict(programs.apsp(), ("T", (0,)), TROP)

    def test_free_query_supported(self):
        verdict = demand_verdict(programs.apsp(), ("T", (None, None)), TROP)
        assert verdict.supported
        assert ("T", "ff") in verdict.adornments


# ---------------------------------------------------------------------------
# Rewrite structure
# ---------------------------------------------------------------------------


class TestRewrite:
    def test_magic_idbs_and_support_views(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        rewritten, augmented, verdict = demand_rewrite(
            programs.apsp(), ("T", ("a", None)), db
        )
        assert verdict.supported
        magic = [
            name
            for name in rewritten.idbs
            if name.startswith(MAGIC_PREFIX)
        ]
        assert magic == [MAGIC_PREFIX + "T_bf"]
        # Left-linear recursion has an empty sideways prefix: no
        # support views are needed.
        assert not rewritten.bool_edbs
        # The original stores ride along untouched.
        assert augmented.relations["E"] == db.relations["E"]

    def test_prefix_edb_lowers_to_support_view(self):
        """``Out(x) :- E(x,y), Out(y)`` passes bindings through E: the
        rewrite injects a Boolean ``support(E)`` view for the magic
        rule to read."""
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        rewritten, augmented, verdict = demand_rewrite(
            programs.graph_analytics(), ("Out", ("a",)), db
        )
        assert verdict.supported
        view = VIEW_PREFIX + "E"
        assert rewritten.bool_edbs[view] == 2
        assert augmented.bool_relations[view] == set(db.relations["E"])
        assert MAGIC_PREFIX + "Out_b" in rewritten.idbs

    def test_rewrite_raises_outside_fragment(self):
        db = Database(pops=NAT, relations={"E": {("a", "b"): 1}})
        with pytest.raises(DemandError, match="idempotent"):
            demand_rewrite(programs.transitive_closure(), ("T", ("a", None)), db)

    def test_strip_demand_relations(self):
        inst = Instance(TROP)
        inst.set("T", ("a", "b"), 3.0)
        inst.set(MAGIC_PREFIX + "T_bf", ("a",), 0.0)
        inst.set(MAGIC_PREFIX + "T_bf", ("b",), 0.0)
        cleaned, magic_tuples = strip_demand_relations(inst)
        assert magic_tuples == 2
        assert list(cleaned.relations()) == ["T"]
        assert cleaned.get("T", ("a", "b")) == 3.0


# ---------------------------------------------------------------------------
# Differentials: demanded atoms == full fixpoint, everywhere
# ---------------------------------------------------------------------------


def assert_demand_matches_full(demand, full, pattern, relation="T"):
    """Byte-parity on the demanded atoms, soundness on all of them."""
    demanded = {
        key: value
        for key, value in full.instance.support(relation).items()
        if pattern.matches(key)
    }
    for key, value in demanded.items():
        assert demand.instance.get(relation, key) == value, key
    # Over-demand is sound, wrong values never: every derived atom
    # carries exactly its full-fixpoint value.
    for key, value in demand.instance.support(relation).items():
        assert full.instance.get(relation, key) == value, key


class TestDifferentials:
    """Hypothesis differentials: 4 semirings × the kernel engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(SEMIRINGS), ids=str)
    @settings(max_examples=8, deadline=None)
    @given(edges=edge_sets, offset=st.integers(0, 6))
    def test_demanded_atoms_byte_identical(self, name, engine, edges, offset):
        db = weighted_db(name, edges, offset)
        prog = programs.apsp()
        full = solve(prog, db, method="seminaive", engine=engine)
        demand = solve(
            prog,
            db,
            method="seminaive",
            engine=engine,
            query=("T", ("a", None)),
        )
        assert demand.stats["demand_fallbacks"] == 0
        assert_demand_matches_full(demand, full, DemandQuery("T", ("a", None)))

    @settings(max_examples=10, deadline=None)
    @given(edges=edge_sets, offset=st.integers(0, 6))
    def test_naive_and_seminaive_demand_agree(self, edges, offset):
        db = weighted_db("TROP", edges, offset)
        prog = programs.apsp()
        naive = solve(prog, db, method="naive", query=("T", ("a", None)))
        semi = solve(prog, db, method="seminaive", query=("T", ("a", None)))
        assert naive.stats["demand_fallbacks"] == 0
        assert semi.stats["demand_fallbacks"] == 0
        assert naive.instance.equals(semi.instance)

    @settings(max_examples=8, deadline=None)
    @given(edges=edge_sets)
    def test_point_query_both_bound(self, edges):
        db = weighted_db("TROP", edges)
        full = solve(programs.apsp(), db, method="seminaive")
        demand = solve(
            programs.apsp(),
            db,
            method="seminaive",
            query=("T", ("a", "d")),
        )
        assert demand.stats["demand_fallbacks"] == 0
        assert_demand_matches_full(demand, full, DemandQuery("T", ("a", "d")))

    def test_string_query_through_solve(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        tup = solve(programs.apsp(), db, query=("T", ("a", None)))
        txt = solve(programs.apsp(), db, query="T(a,?)")
        assert txt.instance.equals(tup.instance)
        assert txt.instance.get("T", ("a", "d")) == 8.0

    def test_demand_solve_entry_point(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        result = demand_solve(
            programs.apsp(), db, ("T", ("a", None)), method="seminaive"
        )
        assert result.stats["demand_fallbacks"] == 0
        assert result.stats["demand_adornments"] >= 1
        assert result.stats["demand_magic_tuples"] >= 1
        # The auxiliary magic relations are stripped from the result.
        assert not [
            r
            for r in result.instance.relations()
            if r.startswith((MAGIC_PREFIX, VIEW_PREFIX))
        ]


# ---------------------------------------------------------------------------
# Counted fallbacks
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _assert_fell_back(self, demand, full, needle):
        assert demand.stats["demand_fallbacks"] == 1
        assert needle in demand.stats["demand_unsupported"]
        assert demand.instance.equals(full.instance)

    def test_quadratic_tc_falls_back_to_full(self):
        edges = workloads.random_dag(7, 0.35, seed=11)
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        prog = programs.quadratic_transitive_closure()
        full = solve(prog, db, method="seminaive")
        demand = solve(
            prog, db, method="seminaive", query=("T", (1, None))
        )
        self._assert_fell_back(demand, full, "IDB")

    def test_non_idempotent_pops_falls_back(self):
        edges = workloads.random_dag(7, 0.35, seed=2)
        db = Database(pops=NAT, relations={"E": {e: 1 for e in edges}})
        prog = programs.transitive_closure()
        # NAT lacks ⊖, so the fallback itself must stay naive.
        full = solve(prog, db, method="naive")
        demand = solve(prog, db, method="naive", query=("T", (1, None)))
        self._assert_fell_back(demand, full, "idempotent")

    def test_grounded_method_falls_back(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        full = solve(programs.apsp(), db, method="grounded")
        demand = solve(
            programs.apsp(), db, method="grounded", query=("T", ("a", None))
        )
        self._assert_fell_back(demand, full, "one-shot")

    def test_capture_trace_falls_back(self):
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        full = solve(
            programs.apsp(), db, method="naive", capture_trace=True,
            schedule="monolithic",
        )
        demand = solve(
            programs.apsp(), db, method="naive", capture_trace=True,
            schedule="monolithic", query=("T", ("a", None)),
        )
        self._assert_fell_back(demand, full, "capture_trace")
        assert len(demand.trace) == len(full.trace)

    def test_malformed_query_still_raises(self):
        """Fallback covers unsupported fragments, not user errors."""
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        with pytest.raises(DemandError, match="not an IDB"):
            solve(programs.apsp(), db, query=("Nope", ("a", None)))


# ---------------------------------------------------------------------------
# SCC-roots pruning under the multi-view program
# ---------------------------------------------------------------------------


class TestRootsPruning:
    def test_sibling_views_never_materialize(self):
        edges = workloads.power_law_digraph(80, 160, seed=5, alpha=0.8)
        prog = programs.graph_analytics()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        source = max(a for a, _ in edges)
        full = solve(prog, db, method="seminaive")
        demand = solve(
            prog, db, method="seminaive", query=("T", (source, None))
        )
        assert demand.stats["demand_fallbacks"] == 0
        assert_demand_matches_full(
            demand, full, DemandQuery("T", (source, None))
        )
        # Full evaluation materializes every view; the demand path
        # prunes the condensation to T's stratum and below.
        for view in ("Rev", "C", "Out"):
            assert full.instance.support(view)
            assert not demand.instance.support(view)

    def test_demand_does_proportionally_less_work(self):
        edges = workloads.power_law_digraph(200, 500, seed=1, alpha=0.8)
        prog = programs.graph_analytics()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        source = max(a for a, _ in edges)
        full = solve(prog, db, method="seminaive")
        demand = solve(
            prog, db, method="seminaive", query=("T", (source, None))
        )
        assert demand.stats["demand_fallbacks"] == 0
        assert (
            demand.stats["rule_applications"]
            < full.stats["rule_applications"]
        )
        assert demand.stats["keys_examined"] < full.stats["keys_examined"]
