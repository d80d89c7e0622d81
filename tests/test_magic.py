"""Magic-set rewriting: query-directed evaluation (§1's optimization)."""

from __future__ import annotations

import pytest

from repro import programs, workloads
from repro.core import Database, NaiveEvaluator, solve
from repro.core.magic import (
    MagicError,
    MagicQuery,
    demanded_keys,
    magic_registry,
    magic_rewrite,
    support_function,
)
from repro.semirings import BOOL, BOTTLENECK, LIFTED_REAL, TROP, VITERBI


def run_magic(program, query, db, **solve_kw):
    # Through the modern solve() entry point — SCC scheduling, indexed
    # plans, compiled kernels and the guardrail pre-flight all apply to
    # the rewritten program (magic programs are naive-only: the supp
    # guard over an IDB magic atom has no differential affinity).
    rewritten = magic_rewrite(program, query, db.pops)
    registry = magic_registry(db.pops)
    return rewritten, solve(
        rewritten, db, method="naive", functions=registry, **solve_kw
    )


class TestSupportFunction:
    @pytest.mark.parametrize("pops", [BOOL, TROP, BOTTLENECK, VITERBI],
                             ids=lambda s: s.name)
    def test_supp_values(self, pops):
        supp = support_function(pops)
        assert pops.eq(supp(pops.zero), pops.zero)
        assert pops.eq(supp(pops.one), pops.one)
        for v in pops.sample_values():
            if not pops.eq(v, pops.zero):
                assert pops.eq(supp(v), pops.one)

    @pytest.mark.parametrize("pops", [BOOL, TROP, BOTTLENECK],
                             ids=lambda s: s.name)
    def test_supp_monotone(self, pops):
        supp = support_function(pops)
        for a in pops.sample_values():
            for b in pops.sample_values():
                if pops.leq(a, b):
                    assert pops.leq(supp(a), supp(b))


class TestQueryValidation:
    def test_binding_count(self):
        with pytest.raises(MagicError):
            MagicQuery("T", "bf", ())
        with pytest.raises(MagicError):
            MagicQuery("T", "bx", ("a",))

    def test_requires_idb(self):
        with pytest.raises(MagicError):
            magic_rewrite(
                programs.transitive_closure(),
                MagicQuery("E", "bf", ("a",)),
                TROP,
            )

    def test_requires_matching_arity(self):
        with pytest.raises(MagicError):
            magic_rewrite(
                programs.transitive_closure(),
                MagicQuery("T", "b", ("a",)),
                TROP,
            )

    def test_rejects_non_semiring_pops(self):
        with pytest.raises(MagicError):
            magic_rewrite(
                programs.bill_of_material(),
                MagicQuery("T", "f", ()),
                LIFTED_REAL,
            )


class TestCorrectness:
    """Demanded atoms keep their full-evaluation values exactly."""

    def _compare(self, program, query, db, answer_rel):
        full = solve(program, db, method="naive")
        _rw, magic = run_magic(program, query, db)
        full_support = full.instance.support(answer_rel)
        wanted = demanded_keys(query, list(full_support))
        for key in wanted:
            assert db.pops.eq(
                magic.instance.get(answer_rel, key),
                full.instance.get(answer_rel, key),
            ), key
        # Soundness: the magic run derives no wrong values anywhere.
        for key, value in magic.instance.support(answer_rel).items():
            assert db.pops.eq(value, full.instance.get(answer_rel, key))
        return full, magic

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tc_from_source_over_bool(self, seed):
        edges = workloads.random_dag(9, 0.25, seed=seed)
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        self._compare(
            programs.transitive_closure(),
            MagicQuery("T", "bf", (0,)),
            db,
            "T",
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_apsp_single_source_over_trop(self, seed):
        edges = workloads.random_weighted_digraph(8, 0.3, seed=seed)
        db = Database(pops=TROP, relations={"E": dict(edges)})
        self._compare(
            programs.apsp(), MagicQuery("T", "bf", (0,)), db, "T"
        )

    def test_point_query_both_bound(self):
        edges = workloads.fig_2a_graph()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        full, magic = self._compare(
            programs.apsp(), MagicQuery("T", "bb", ("a", "d")), db, "T"
        )
        assert magic.instance.get("T", ("a", "d")) == 8.0

    def test_free_query_degenerates_to_full(self):
        edges = workloads.fig_2a_graph()
        db = Database(pops=TROP, relations={"E": dict(edges)})
        full, magic = self._compare(
            programs.apsp(), MagicQuery("T", "ff", ()), db, "T"
        )
        assert len(magic.instance.support("T")) == len(
            full.instance.support("T")
        )

    def test_widest_path_query(self):
        edges = {("s", "a"): 4.0, ("a", "t"): 3.0, ("s", "t"): 2.0,
                 ("x", "y"): 9.0}
        db = Database(pops=BOTTLENECK, relations={"E": dict(edges)})
        _full, magic = self._compare(
            programs.apsp(), MagicQuery("T", "bf", ("s",)), db, "T"
        )
        assert magic.instance.get("T", ("s", "t")) == 3.0


class TestRelevanceRestriction:
    def test_magic_derives_fewer_atoms(self):
        """Two disconnected components: the undemanded one is skipped."""
        edges = dict(workloads.line_edges(10))
        # Second component shifted by 100.
        edges.update({(a + 100, b + 100): w
                      for (a, b), w in workloads.line_edges(10).items()})
        db = Database(pops=TROP, relations={"E": edges})
        full = solve(programs.apsp(), db, method="naive")
        _rw, magic = run_magic(
            programs.apsp(), MagicQuery("T", "bf", (0,)), db
        )
        full_t = len(full.instance.support("T"))
        magic_t = len(magic.instance.support("T"))
        assert magic_t < full_t / 2
        # And every demanded answer is still there.
        assert magic.instance.get("T", (0, 9)) == 9.0

    def test_magic_predicate_support_is_reachable_set(self):
        edges = {("a", "b"): 1.0, ("b", "c"): 1.0, ("x", "y"): 1.0}
        db = Database(pops=TROP, relations={"E": edges})
        _rw, magic = run_magic(
            programs.sssp("a", label="L"),
            MagicQuery("L", "f", ()),
            db,
        )
        assert set(magic.instance.support("L")) == {("a",), ("b",), ("c",)}

    def test_work_reduction_counters(self):
        """The rewritten program touches fewer tuples (E21 shape)."""
        edges = dict(workloads.line_edges(12))
        edges.update({(a + 100, b + 100): w
                      for (a, b), w in workloads.line_edges(12).items()})
        db = Database(pops=TROP, relations={"E": edges})
        full_eval = NaiveEvaluator(programs.apsp(), db)
        full_eval.run()
        rewritten = magic_rewrite(
            programs.apsp(), MagicQuery("T", "bf", (0,)), TROP
        )
        magic_eval = NaiveEvaluator(
            rewritten, db, functions=magic_registry(TROP)
        )
        magic_eval.run()
        assert magic_eval.stats.products < full_eval.stats.products


class TestIdempotencyRequirement:
    def test_rejects_non_idempotent_semiring(self):
        from repro.semirings import NAT

        with pytest.raises(MagicError) as err:
            magic_rewrite(
                programs.transitive_closure(),
                MagicQuery("T", "bf", ("a",)),
                NAT,
            )
        assert "idempotent" in str(err.value)

    def test_quadratic_tc_demands_second_adornment(self):
        """Example 6.6's TC²: T(X,Z)·T(Z,Y) demands T under bf twice
        (the second occurrence is bf after Z is bound) — correctness
        across occurrences.  Queries node 1, the DAG's productive
        source (node 0 has no out-edges in this draw — querying it
        would make every assertion below vacuous)."""
        edges = workloads.random_dag(7, 0.35, seed=11)
        db = Database(pops=BOOL, relations={"E": {e: True for e in edges}})
        prog = programs.quadratic_transitive_closure()
        full = solve(prog, db, method="naive")
        rewritten = magic_rewrite(prog, MagicQuery("T", "bf", (1,)), BOOL)
        magic = solve(
            rewritten, db, method="naive", functions=magic_registry(BOOL)
        )
        demanded = [
            key for key in full.instance.support("T") if key[0] == 1
        ]
        assert demanded, "query source must demand something"
        for key in demanded:
            assert magic.instance.get("T", key) == full.instance.get(
                "T", key
            ), key
        for key, value in magic.instance.support("T").items():
            assert full.instance.get("T", key) == value


class TestModernEngineSurface:
    """The rewritten programs run through the full modern engine.

    Magic programs are naive-only — the ``supp`` guard wraps an IDB
    magic atom, which has no differential affinity — but within
    ``method="naive"`` every schedule and kernel engine must agree
    byte-for-byte, and the guardrail pre-flight must classify the
    rewritten program like any other.
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
        rewritten = magic_rewrite(
            programs.apsp(), MagicQuery("T", "bf", (0,)), TROP
        )
        registry = magic_registry(TROP)
        base = solve(
            rewritten, db, method="naive", functions=registry,
            schedule="monolithic", engine="interpreted",
        )
        other = solve(
            rewritten, db, method="naive", functions=registry,
            schedule=schedule, engine=engine,
        )
        assert dict(other.instance.support("T")) == dict(
            base.instance.support("T")
        )

    def test_preflight_verdict_rides_magic_solves(self):
        db = self._db()
        _rw, result = run_magic(
            programs.apsp(), MagicQuery("T", "bf", (0,)), db
        )
        assert result.verdict is not None
        assert result.verdict.status in ("bounded", "converges")

    def test_seminaive_rejects_magic_programs_cleanly(self):
        from repro.core import SemiNaiveError

        db = self._db()
        rewritten = magic_rewrite(
            programs.apsp(), MagicQuery("T", "bf", (0,)), TROP
        )
        with pytest.raises(SemiNaiveError, match="affinity"):
            solve(
                rewritten, db, method="seminaive",
                functions=magic_registry(TROP), schedule="monolithic",
            )


class TestDemandPathSurface:
    """The planner-stage rewrite (``solve(..., query=…)``) across the
    whole engine surface.

    Unlike the legacy ``supp``-guard programs above, the demand path's
    output is ordinary datalog°: every schedule, kernel engine and
    worker count must produce byte-identical demanded atoms — including
    semi-naïve sharding (``engine_workers=2``), which the legacy
    rewrite cannot enter at all.
    """

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
