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
  a point query on ``T`` never materializes the sibling views;
* prepared queries — interleaved constants on one database (both-bound
  patterns, constants outside the active domain, ±0.0 weights) match
  solves on fresh databases on every semiring × engine × method, hits
  build no plan and generate no source, a derived database misses, a
  dropped one's entry is freed, the LRU bound evicts; and each hit's
  counters, budget and poll are its own, also under concurrent
  ``DatalogService.query_bound`` calls.
"""

from __future__ import annotations

import os
import sys

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

    def test_idb_under_a_function_falls_back(self):
        """No binding pattern is demanded of an IDB beneath an
        interpreted function, so the demanded part cannot hold it."""
        from repro.core.ast import Variable
        from repro.core.rules import FuncFactor, Program, RelAtom, Rule, SumProduct
        from repro.semirings.base import FunctionRegistry

        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        prog = Program(rules=[
            Rule("S", (X, Y), (SumProduct((RelAtom("E", (X, Y)),)),)),
            Rule("T", (X, Y), (
                SumProduct((RelAtom("E", (X, Y)),
                            FuncFactor("half", (RelAtom("S", (X, Y)),)))),
                SumProduct((RelAtom("T", (X, Z)), RelAtom("E", (Z, Y)))),
            )),
        ])
        functions = FunctionRegistry()
        functions.register("half", lambda v: v / 2)
        db = Database(
            pops=TROP, relations={"E": dict(workloads.fig_2a_graph())}
        )
        full = solve(prog, db, method="naive", functions=functions)
        demand = solve(
            prog, db, method="naive", functions=functions,
            query=("T", ("a", None)),
        )
        self._assert_fell_back(demand, full, "interpreted function")

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


# ---------------------------------------------------------------------------
# Prepared queries: one rewrite, verdict, plan set and kernel set per
# (program, database, adornment)
# ---------------------------------------------------------------------------

PREP_NODES = ("a", "b", "c", "d", "e", "f")
PREP_EDGES = (
    ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
    ("a", "e"), ("e", "f"), ("b", "f"), ("f", "d"),
)
#: Per-semiring weights; every float POPS gets a 0.0 and a -0.0 edge
#: (where 0 is ⊥ the database drops them, which is exercised too).
PREP_WEIGHTS = {
    "TROP": (1.0, 0.0, 2.5, -0.0, 0.5, 4.0, 1.0, 3.0, 0.25),
    "BOOL": (True,) * len(PREP_EDGES),
    "BOTTLENECK": (3.0, 0.0, 2.0, -0.0, 5.0, 1.0, 4.0, 2.0, 1.5),
    "VITERBI": (0.5, 0.0, 1.0, -0.0, 0.25, 0.125, 1.0, 0.5, 0.75),
}
#: Interleaved constants on one database: a repeated source, a
#: both-bound pattern, and a constant outside the active domain.
PREP_QUERIES = (
    ("a", None), ("c", None), ("a", "d"), ("zz", None), ("b", None),
    ("a", None), ("c", "f"), ("zz", "a"), ("f", None), ("d", "d"),
)
CODEGEN_ENGINES = ("auto", "codegen")


def prep_db(name):
    edges = dict(zip(PREP_EDGES, PREP_WEIGHTS[name]))
    return Database(pops=SEMIRINGS[name], relations={"E": edges})


def demanded(result, pattern, relation="T"):
    """The demanded atoms, byte for byte (``repr`` tells -0.0 from 0.0)."""
    q = DemandQuery(relation, pattern)
    return sorted(
        (repr(k), repr(v))
        for k, v in result.instance.support(relation).items()
        if q.matches(k)
    )


@pytest.fixture()
def builds(monkeypatch):
    """Calls of the plan builder and the codegen source generator."""
    from repro.core import codegen, plan_ir

    calls = {"plans": 0, "kernels": 0}

    def counting(module, name, counter):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(plan_ir, "build_body_plan", "plans")
    counting(codegen, "generate_rule_kernel", "kernels")
    return calls


class TestPrepared:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    @pytest.mark.parametrize("engine", ENGINES + ("auto",))
    @pytest.mark.parametrize("name", sorted(SEMIRINGS), ids=str)
    def test_interleaved_constants_match_fresh_databases(
        self, name, engine, method, builds
    ):
        db = prep_db(name)
        seen = set()
        for pattern in PREP_QUERIES:
            before = dict(builds)
            result = solve(
                programs.apsp(), db, method=method, engine=engine,
                query=("T", pattern),
            )
            built = {k: builds[k] - before[k] for k in builds}
            fresh = solve(
                programs.apsp(), prep_db(name), method=method,
                engine=engine, query=("T", pattern),
            )
            q = DemandQuery("T", pattern)
            assert result.stats["demand_fallbacks"] == 0
            assert result.stats["demand_prepared_hits"] == (q.adornment in seen)
            assert fresh.stats["demand_prepared_hits"] == 0
            assert demanded(result, pattern) == demanded(fresh, pattern)
            assert result.verdict == fresh.verdict
            for counter in ("valuations", "products", "iterations",
                            "rule_applications"):
                assert result.stats[counter] == fresh.stats[counter], counter
            in_domain = all(c in PREP_NODES for c in q.bindings)
            if engine in CODEGEN_ENGINES and q.adornment in seen and in_domain:
                # A hit re-binds the first query's kernels: no join
                # plan, no generated source.
                assert built == {"plans": 0, "kernels": 0}
                assert result.stats["codegen_kernels"] == 0
            elif engine in CODEGEN_ENGINES:
                assert built["plans"] > 0 and built["kernels"] > 0
            seen.add(q.adornment)

    def test_rewrite_runs_through_demand_rewrite_on_a_miss_only(
        self, monkeypatch
    ):
        from repro.core import demand

        calls = []
        real = demand.demand_rewrite

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(demand, "demand_rewrite", counting)
        db = prep_db("TROP")
        for source in ("a", "b", "c"):
            solve(programs.apsp(), db, method="seminaive",
                  query=("T", (source, None)))
        assert len(calls) == 1

    def test_prepared_hits_stat(self):
        db = prep_db("TROP")
        stats = [
            solve(programs.apsp(), db, query=("T", (s, None))).stats
            for s in ("a", "b")
        ]
        assert [s["demand_prepared_hits"] for s in stats] == [0, 1]
        # A program equal in content is the same entry; another
        # adornment is another one.
        assert solve(programs.apsp(), db, query="T(c,?)").stats[
            "demand_prepared_hits"
        ] == 1
        assert solve(programs.apsp(), db, query="T(?,c)").stats[
            "demand_prepared_hits"
        ] == 0

    def test_mutated_program_misses(self):
        db = prep_db("TROP")
        prog = programs.graph_analytics()
        solve(prog, db, method="seminaive", query=("T", ("a", None)))
        prog.rules = [r for r in prog.rules if r.head_relation != "Out"]
        prog.idbs.pop("Out")
        result = solve(prog, db, method="seminaive", query=("T", ("b", None)))
        assert result.stats["demand_prepared_hits"] == 0

    def test_derived_database_misses(self):
        db = prep_db("TROP")
        solve(programs.apsp(), db, query=("T", ("a", None)))
        edges = dict(db.relations["E"])
        edges[("a", "f")] = 0.125
        mutated = db.derive(relations={"E": edges})
        result = solve(programs.apsp(), mutated, query=("T", ("a", None)))
        assert result.stats["demand_prepared_hits"] == 0
        assert result.instance.get("T", ("a", "f")) == 0.125

    def test_dropped_database_frees_its_entry(self):
        import gc
        import weakref

        from repro.core import demand

        db = prep_db("TROP")
        solve(programs.apsp(), db, method="seminaive",
              query=("T", ("a", None)))
        (entry,) = [
            e for e in list(demand._PREPARED.values()) if e.owner() is db
        ]
        ref = weakref.ref(entry)
        del entry, db
        gc.collect()
        assert ref() is None

    def test_lru_bound_evicts(self, monkeypatch):
        from repro.core import demand

        monkeypatch.setattr(demand, "PREPARED_CACHE_SIZE", 2)
        dbs = [prep_db("TROP") for _ in range(3)]
        for db in dbs:
            solve(programs.apsp(), db, query=("T", ("a", None)))
        assert len(demand._PREPARED) <= 2
        hits = [
            solve(programs.apsp(), db, query=("T", ("b", None))).stats[
                "demand_prepared_hits"
            ]
            for db in reversed(dbs)
        ]
        assert hits == [1, 1, 0]  # the oldest database was evicted

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_reregistered_function_is_not_reused(self, method):
        """A kernel calls the function its name resolved to when it was
        generated: re-registering the name on the same registry must
        not reuse it."""
        from repro.core.ast import Variable
        from repro.core.rules import (
            FuncFactor, Program, RelAtom, Rule, SumProduct,
        )
        from repro.semirings.base import FunctionRegistry

        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        prog = Program(
            rules=[
                Rule("T", (X, Y), (
                    SumProduct((
                        RelAtom("E", (X, Y)),
                        FuncFactor("scale", (RelAtom("E", (X, Y)),)),
                    )),
                    SumProduct((RelAtom("T", (X, Z)), RelAtom("E", (Z, Y)))),
                )),
            ]
        )
        functions = FunctionRegistry()
        db = prep_db("TROP")
        for factor, source in ((2.0, "a"), (3.0, "b"), (None, "c")):
            if factor is not None:
                functions.register("scale", lambda v, k=factor: k * v)
            result = solve(prog, db, method=method, engine="codegen",
                           functions=functions, query=("T", (source, None)))
            fresh = solve(prog, prep_db("TROP"), method=method,
                          engine="codegen", functions=functions,
                          query=("T", (source, None)))
            assert result.stats["demand_fallbacks"] == 0
            assert result.stats["demand_prepared_hits"] == (source != "a")
            assert demanded(result, (source, None)) == demanded(
                fresh, (source, None)
            )
            if factor is None:  # same contents: the kernels are re-bound
                assert result.stats["codegen_kernels"] == 0

    def test_templates_hold_no_solve_poll(self):
        """A template is kept unarmed, so the cache holds on to no
        solve's budget poll (and through it, its evaluator)."""
        from repro.core import demand, kernels

        db = prep_db("TROP")
        solve(programs.apsp(), db, method="seminaive", engine="codegen",
              max_tuples=10_000, query=("T", ("a", None)))
        (entry,) = [
            e for e in list(demand._PREPARED.values()) if e.owner() is db
        ]
        templates = [
            t for t in entry.kernels.values() if t is not kernels._PRIVATE
        ]
        assert templates and all(t.run is t.fn for t in templates)

    def test_solve_owned_storage_keeps_a_kernel_private(self):
        """A kernel whose env reads a store its solve owns (not the
        scope's base database's) is built again by every solve."""
        from repro.core import kernels as kernels_mod
        from repro.core.ast import Variable
        from repro.core.indexes import JoinStats
        from repro.core.kernels import BodyKernels, KernelScope
        from repro.core.rules import FuncFactor, RelAtom, SumProduct
        from repro.core.valuations import body_guards
        from repro.semirings.base import FunctionRegistry

        X, Y = Variable("X"), Variable("Y")
        body = SumProduct(
            (RelAtom("E", (X, Y)), FuncFactor("half", (RelAtom("S", (X, Y)),)))
        )
        functions = FunctionRegistry()
        functions.register("half", lambda v: v / 2)
        base = prep_db("TROP")
        scope = KernelScope({}, (), base)
        for weight in (2.0, 8.0):
            db = base.derive(relations={"S": {("a", "b"): weight}})
            kernels = BodyKernels(
                "codegen", "indexed", db, functions, frozenset(),
                db.enumeration_domain(), stats=JoinStats(), scope=scope,
            )
            guards = body_guards(body, TROP, db, frozenset(), None)
            bucket = {}
            kernels.get(0, guards, body, head_args=(X, Y)).run(
                guards, Instance(TROP), bucket
            )
            assert scope.templates[(0,)] is kernels_mod._PRIVATE
            assert bucket[("a", "b")] == 1.0 + weight / 2


class TestPreparedIsolation:
    def test_hit_counts_its_own_work(self):
        db = prep_db("TROP")
        big = solve(programs.apsp(), db, method="seminaive",
                    query=("T", ("a", None)))
        small = solve(programs.apsp(), db, method="seminaive",
                      query=("T", ("f", None)))
        fresh = solve(programs.apsp(), prep_db("TROP"), method="seminaive",
                      query=("T", ("f", None)))
        assert small.stats["demand_prepared_hits"] == 1
        for counter in ("valuations", "products", "iterations",
                        "rule_applications", "keys_examined"):
            assert small.stats[counter] == fresh.stats[counter], counter
        assert small.stats["valuations"] < big.stats["valuations"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_budget_on_a_hit_trips_and_does_not_leak(self, engine):
        from repro.core.guardrails import BudgetExceeded

        db = prep_db("TROP")
        prog = programs.apsp()
        full = solve(prog, db, method="seminaive", engine=engine)
        solve(prog, db, method="seminaive", engine=engine,
              query=("T", ("b", None)))
        for budget in ({"max_tuples": 3}, {"max_wall_s": 1e-9}):
            with pytest.raises(BudgetExceeded) as exc:
                solve(prog, db, method="seminaive", engine=engine,
                      query=("T", ("a", None)), **budget)
            partial = exc.value.partial
            if partial is not None:
                for key, value in partial.instance.support("T").items():
                    assert TROP.leq(value, full.instance.get("T", key)), key
            # The next query has no budget, and no poll of the tripped
            # one survives in the shared kernels.
            after = solve(prog, db, method="seminaive", engine=engine,
                          query=("T", ("a", None)))
            assert after.stats["demand_prepared_hits"] == 1
            assert demanded(after, ("a", None)) == [
                (repr(k), repr(v))
                for k, v in sorted(full.instance.support("T").items())
                if k[0] == "a"
            ]

    def test_threads_share_one_prepared_query(self, tmp_path, monkeypatch):
        import threading

        from repro.core.serve import DatalogService

        prog = programs.apsp()
        edges = dict(zip(PREP_EDGES, PREP_WEIGHTS["TROP"]))
        full = solve(
            prog, Database(pops=TROP, relations={"E": edges}),
            method="seminaive",
        )
        service = DatalogService(
            prog, TROP, str(tmp_path),
            database=Database(pops=TROP, relations={"E": dict(edges)}),
        )
        monkeypatch.setattr(service, "_materialized", lambda relation: False)
        pairs = [(s, t) for s in PREP_NODES for t in PREP_NODES]
        errors = []

        def reader(offset):
            try:
                for i in range(200):
                    key = pairs[(i * 7 + offset) % len(pairs)]
                    got = service.query_bound("T", key)
                    if repr(got) != repr(full.instance.get("T", key)):
                        errors.append((key, got))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in (0, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the two readers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stats = service.stats_snapshot()
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert stats["demand_queries"] == 400
        assert stats["demand_prepared_hits"] + stats["demand_prepared_misses"] == 400
        assert 1 <= stats["demand_prepared_misses"] <= 2  # one per racing first query
