"""Magic-set rewriting (§1's optimization) through ``solve(query=…)``.

The demand path (:mod:`repro.core.demand`) is the one magic-set rewrite;
these checks hold it to the full fixpoint as the oracle on the textbook
magic-set shapes — single-source TC and APSP, point and free queries,
widest paths, relevance restriction across components, the magic
predicate as the reachable set — plus the fragment boundary (value
spaces without the needed laws and the quadratic TC² fall back with a
named reason) and the interpreted-``supp`` guard shape of the textbook
rewrite, written out by hand, across every engine and schedule.
"""

from __future__ import annotations

import pytest

from repro import programs, workloads
from repro.core import Database, parse_program, solve
from repro.core.demand import (
    MAGIC_PREFIX,
    DemandError,
    demand_rewrite,
    demand_verdict,
    normalize_query,
)
from repro.semirings import BOOL, BOTTLENECK, LIFTED_REAL, NAT, TROP, VITERBI
from repro.semirings.base import FunctionRegistry


def assert_demanded_match_full(demand, full, query, relation):
    """Demanded atoms keep their full-fixpoint values exactly, and the
    demand run derives no wrong value anywhere."""
    pattern = normalize_query(query)
    wanted = [k for k in full.instance.support(relation) if pattern.matches(k)]
    for key in wanted:
        assert demand.instance.get(relation, key) == full.instance.get(
            relation, key
        ), key
    for key, value in demand.instance.support(relation).items():
        assert full.instance.get(relation, key) == value, key
    return wanted


class TestQueryValidation:
    """Malformed queries raise; they never fall back silently."""

    def test_binding_count(self):
        db = Database(pops=TROP, relations={"E": {("a", "b"): 1.0}})
        with pytest.raises(DemandError, match="arity"):
            solve(programs.transitive_closure(), db, query=("T", ()))
        with pytest.raises(DemandError, match="pattern"):
            normalize_query(("T", "bx"))

    def test_requires_idb(self):
        with pytest.raises(DemandError, match="not an IDB"):
            demand_verdict(
                programs.transitive_closure(), ("E", ("a", None)), TROP
            )

    def test_requires_matching_arity(self):
        with pytest.raises(DemandError, match="arity"):
            demand_verdict(programs.transitive_closure(), ("T", ("a",)), TROP)

    def test_rejects_non_semiring_pops(self):
        verdict = demand_verdict(
            programs.bill_of_material(), ("T", (None,)), LIFTED_REAL
        )
        assert not verdict.supported
        assert any("naturally ordered" in r for r in verdict.reasons)


class TestCorrectness:
    """Demanded atoms keep their full-evaluation values exactly."""

    def _compare(self, program, query, db, answer_rel):
        full = solve(program, db, method="naive")
        demand = solve(program, db, method="naive", query=query)
        assert demand.stats["demand_fallbacks"] == 0
        assert_demanded_match_full(demand, full, query, answer_rel)
        return full, demand

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tc_from_source_over_bool(self, seed):
        edges = workloads.random_dag(9, 0.25, seed=seed)
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        self._compare(programs.transitive_closure(), ("T", (0, None)), db, "T")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_apsp_single_source_over_trop(self, seed):
        edges = workloads.random_weighted_digraph(8, 0.3, seed=seed)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        self._compare(programs.apsp(), ("T", (0, None)), db, "T")

    def test_point_query_both_bound(self):
        edges = workloads.fig_2a_graph()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        _full, demand = self._compare(
            programs.apsp(), ("T", ("a", "d")), db, "T"
        )
        assert demand.instance.get("T", ("a", "d")) == 8.0

    def test_free_query_degenerates_to_full(self):
        edges = workloads.fig_2a_graph()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        full, demand = self._compare(
            programs.apsp(), ("T", (None, None)), db, "T"
        )
        assert len(demand.instance.support("T")) == len(
            full.instance.support("T")
        )

    def test_widest_path_query(self):
        edges = {("s", "a"): 4.0, ("a", "t"): 3.0, ("s", "t"): 2.0,
                 ("x", "y"): 9.0}
        db = Database(pops=BOTTLENECK, relations={"E": dict(edges)})
        _full, demand = self._compare(
            programs.apsp(), ("T", ("s", None)), db, "T"
        )
        assert demand.instance.get("T", ("s", "t")) == 3.0


def two_line_components(size):
    """Two disconnected lines: ``0…size-1`` and the same shifted by 100."""
    edges = dict(workloads.line_edges(size))
    edges.update({(a + 100, b + 100): w
                  for (a, b), w in workloads.line_edges(size).items()})
    return Database(pops=TROP, relations={"E": edges})


class TestRelevanceRestriction:
    def test_magic_derives_fewer_atoms(self):
        """Two disconnected components: the undemanded one is skipped."""
        db = two_line_components(10)
        full = solve(programs.apsp(), db, method="naive")
        demand = solve(programs.apsp(), db, method="naive", query="T(0,?)")
        assert demand.stats["demand_fallbacks"] == 0
        assert len(demand.instance.support("T")) < len(
            full.instance.support("T")
        ) / 2
        # And every demanded answer is still there.
        assert demand.instance.get("T", (0, 9)) == 9.0

    def test_magic_predicate_support_is_reachable_set(self):
        """Right-linear TC passes the source's bindings through ``E``:
        the magic predicate's support is the set reachable from it."""
        prog = parse_program("T(X, Y) :- E(X, Y) | E(X, Z) * T(Z, Y).")
        edges = {("a", "b"): 1.0, ("b", "c"): 1.0, ("x", "y"): 1.0}
        db = Database(pops=TROP, relations={"E": edges})
        rewritten, augmented, verdict = demand_rewrite(
            prog, ("T", ("a", None)), db
        )
        assert verdict.supported
        magic = solve(rewritten, augmented, method="naive")
        assert set(magic.instance.support(MAGIC_PREFIX + "T_bf")) == {
            ("a",), ("b",), ("c",)
        }

    def test_work_reduction_counters(self):
        """The demand run touches fewer tuples (E21 shape)."""
        db = two_line_components(12)
        full = solve(programs.apsp(), db, method="naive")
        demand = solve(programs.apsp(), db, method="naive", query="T(0,?)")
        assert demand.stats["demand_fallbacks"] == 0
        assert demand.stats["products"] < full.stats["products"]


class TestIdempotencyRequirement:
    def test_rejects_non_idempotent_semiring(self):
        """NAT's ⊕ would double-count a derivation demanded twice: the
        rewrite is refused and the full fixpoint runs, counted."""
        edges = workloads.random_dag(7, 0.35, seed=2)
        db = Database(pops=NAT, relations={"E": {e: 1 for e in edges}})
        prog = programs.transitive_closure()
        demand = solve(prog, db, method="naive", query=("T", (1, None)))
        assert demand.stats["demand_fallbacks"] == 1
        assert "idempotent" in demand.stats["demand_unsupported"]
        assert demand.instance.equals(solve(prog, db, method="naive").instance)

    def test_quadratic_tc_demands_second_adornment(self):
        """Example 6.6's TC²: in T(X,Z)·T(Z,Y) the second occurrence is
        demanded under ``bf`` once the first binds Z — non-linear demand,
        which falls back to the full fixpoint with the demanded atoms
        unchanged.  Queries node 1, the DAG's productive source (node 0
        has no out-edges in this draw — querying it would make every
        assertion below vacuous)."""
        edges = workloads.random_dag(7, 0.35, seed=11)
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        prog = programs.quadratic_transitive_closure()
        full = solve(prog, db, method="naive")
        demand = solve(prog, db, method="naive", query=("T", (1, None)))
        assert demand.stats["demand_fallbacks"] == 1
        assert "non-linear demand" in demand.stats["demand_unsupported"]
        wanted = assert_demanded_match_full(demand, full, "T(1,?)", "T")
        assert wanted, "query source must demand something"


#: The textbook value-annotated rewrite of APSP for ``T(0, ?)``, by
#: hand: the magic predicate ``M`` guards each rule through the
#: interpreted ``supp`` (``0 ↦ 0``, anything else ``↦ 1``).
SUPP_GUARDED_APSP = """
M(X) :- [X = 0] | supp(M(X)).
T(X, Y) :- supp(M(X)) * E(X, Y) | supp(M(X)) * T(X, Z) * E(Z, Y).
"""


def supp_registry(pops):
    def supp(value):
        return pops.zero if pops.eq(value, pops.zero) else pops.one

    registry = FunctionRegistry()
    registry.register("supp", supp)
    return registry


class TestModernEngineSurface:
    """A body guarded by an interpreted function over an IDB atom.

    The ``supp(M(X))`` guard has no differential affinity, so such
    programs are naive-only; within ``method="naive"`` every schedule
    and kernel engine must agree byte-for-byte with the full APSP's
    demanded atoms, and the guardrail pre-flight must classify the
    program like any other.
    """

    def _db(self):
        edges = workloads.random_weighted_digraph(8, 0.3, seed=3)
        return Database(pops=TROP, relations={"E": dict(edges)})

    @pytest.mark.parametrize("schedule", ["scc", "monolithic"])
    @pytest.mark.parametrize(
        "engine", ["interpreted", "compiled", "codegen", "batched"]
    )
    def test_all_schedules_and_engines_agree(self, schedule, engine):
        db = self._db()
        result = solve(
            parse_program(SUPP_GUARDED_APSP), db, method="naive",
            functions=supp_registry(TROP), schedule=schedule, engine=engine,
        )
        full = solve(programs.apsp(), db, method="naive")
        demanded = {
            key: value
            for key, value in full.instance.support("T").items()
            if key[0] == 0
        }
        assert demanded
        assert dict(result.instance.support("T")) == demanded

    def test_preflight_verdict_rides_magic_solves(self):
        result = solve(
            parse_program(SUPP_GUARDED_APSP), self._db(), method="naive",
            functions=supp_registry(TROP),
        )
        assert result.verdict is not None
        assert result.verdict.status in ("bounded", "converges")

    def test_seminaive_rejects_magic_programs_cleanly(self):
        from repro.core import SemiNaiveError

        with pytest.raises(SemiNaiveError, match="affinity"):
            solve(
                parse_program(SUPP_GUARDED_APSP), self._db(),
                method="seminaive", functions=supp_registry(TROP),
                schedule="monolithic",
            )


class TestDemandPathSurface:
    """``solve(..., query=…)`` across the whole engine surface: every
    schedule, kernel engine and worker count must produce
    byte-identical demanded atoms — including semi-naïve sharding
    (``engine_workers=2``)."""

    SEMIRING_EDGES = {
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

    def _db(self, name):
        edges = workloads.random_weighted_digraph(8, 0.3, seed=3)
        weight = self.SEMIRING_EDGES[name]
        return Database(
            pops=self.SEMIRINGS[name],
            relations={
                "E": {e: weight(i) for i, e in enumerate(sorted(edges))}
            },
        )

    @pytest.mark.parametrize("schedule", ["scc"])
    @pytest.mark.parametrize(
        "engine", ["interpreted", "compiled", "codegen", "batched"]
    )
    @pytest.mark.parametrize("name", sorted(SEMIRINGS), ids=str)
    def test_all_schedules_and_engines_agree(self, name, engine, schedule):
        db = self._db(name)
        query = ("T", (0, None))
        base = solve(
            programs.apsp(), db, method="seminaive",
            schedule="scc", engine="interpreted", query=query,
        )
        other = solve(
            programs.apsp(), db, method="seminaive",
            schedule=schedule, engine=engine, query=query,
        )
        assert base.stats["demand_fallbacks"] == 0
        assert other.stats["demand_fallbacks"] == 0
        assert dict(other.instance.support("T")) == dict(
            base.instance.support("T")
        )

    @pytest.mark.parametrize("name", sorted(SEMIRINGS), ids=str)
    def test_sharded_workers_agree(self, name):
        """The rewritten program shards cleanly: no delta-affinity
        fallback, byte-identical demanded atoms."""
        db = self._db(name)
        query = ("T", (0, None))
        base = solve(programs.apsp(), db, method="seminaive", query=query)
        sharded = solve(
            programs.apsp(), db, method="seminaive",
            engine_workers=2, query=query,
        )
        assert sharded.stats["demand_fallbacks"] == 0
        assert sharded.stats.get("shard_fallbacks", 0) == 0
        assert dict(sharded.instance.support("T")) == dict(
            base.instance.support("T")
        )
