"""The sharded multi-process engine (``engine_workers=N``).

Covers the full distribution story:

* sharded fixpoints at N ∈ {1, 2, 4} are *byte-identical* to the
  single-process batched/codegen engines — with exact
  ``valuations``/``products`` parity (the match set partitions across
  shards) — on the paper's workloads and on hypothesis-generated
  programs across Boolean / tropical / THREE / lifted-reals spaces;
* the planner's shard-key selection (greedy alignment) and
  cross-shard guard analysis (routed vs broadcast deltas);
* exchange determinism: identical runs ship identical tuple counts in
  identical rounds;
* fault robustness (``DATALOGO_FAULT``): a worker that dies (real
  ``os._exit``), stalls past the heartbeat deadline, or corrupts its
  exchange payload is healed in place — restarted from the master
  state and replayed (``shard_restarts``) or retransmitted once
  (``crc_retransmits``) — with the fixpoint staying byte-identical and
  **no** single-process fallback; only a persistent (``:*``) fault
  walks the demotion ladder down to the warned fallback;
* the free-threaded fallback (``DATALOGO_SHARD_THREADS`` forces the
  thread pool through the same protocol) and the ``solve()``/CLI knob
  validation.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import (
    Database,
    Program,
    RelAtom,
    Rule,
    ShardedSemiNaiveEvaluator,
    SumProduct,
    broadcast_relations,
    build_sharding_plan,
    select_shard_columns,
    solve,
)
from repro.core.ast import Compare, Constant, terms, var
from repro.core.planner import shard_of
from repro.core.rules import Indicator
from repro.semirings import BOOL, LIFTED_REAL, THREE, TROP
from repro.semirings.base import FunctionRegistry

#: The per-worker engine under test; the CI engine matrix overrides it.
ENGINE = os.environ.get("DATALOGO_ENGINE", "batched")


def _bytes_of(instance) -> str:
    """A byte-exact rendering (repr distinguishes 0.0 from -0.0)."""
    return "|".join(
        "%s:%s"
        % (
            rel,
            sorted(
                (repr(k), repr(v))
                for k, v in instance.support(rel).items()
            ),
        )
        for rel in sorted(instance.relations())
    )


def _weighted_db(n=12, p=0.3, seed=7):
    edges = workloads.random_weighted_digraph(n, p, seed=seed)
    return Database(pops=TROP, relations={"E": dict(edges)})


def _line_db(n=10, pops=TROP):
    return Database(pops=pops, relations={"E": dict(workloads.line_edges(n))})


def _assert_sharded_matches(program, db, workers, functions=None, **kw):
    """solve(engine_workers=N) == solve(engine=ENGINE), byte for byte,
    with exact valuations/products parity."""
    base = solve(
        program, db, method="seminaive", engine=ENGINE,
        functions=functions, **kw
    )
    sharded = solve(
        program, db, method="seminaive", engine=ENGINE,
        functions=functions, engine_workers=workers, **kw
    )
    assert _bytes_of(sharded.instance) == _bytes_of(base.instance)
    assert sharded.steps == base.steps
    assert sharded.stats["valuations"] == base.stats["valuations"]
    assert sharded.stats["products"] == base.stats["products"]
    assert sharded.stats["shard_fallbacks"] == 0
    return sharded


# ---------------------------------------------------------------------------
# Planner: shard-key selection and cross-shard (broadcast) analysis.
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def test_linear_apsp_routes_on_source(self):
        prog = programs.apsp()
        columns = select_shard_columns(prog)
        plan = build_sharding_plan(prog, workers=4)
        # One recursive occurrence per body: the driver is the only
        # reader, so every delta routes to its owner shard.
        assert set(columns) == set(prog.idb_names())
        assert plan.broadcast == frozenset()
        for rel in prog.idb_names():
            assert plan.routed(rel)

    def test_quadratic_tc_broadcasts(self):
        prog = programs.quadratic_transitive_closure()
        plan = build_sharding_plan(prog, workers=4)
        # T(X,Z) ⊗ T(Z,Y): no single column aligns the self-join, so
        # the delta must reach every shard.
        [rel] = list(prog.idb_names())
        assert rel in plan.broadcast
        assert not plan.routed(rel)

    def test_mutual_recursion_aligns_on_join_variable(self):
        # T reads A ⊗ B on Z: alignment lands A on column 1 and B on
        # column 0 (both sharded by Z), so both deltas route.
        rules = [
            Rule(
                "A",
                terms(["X", "Y"]),
                (
                    SumProduct((RelAtom("E", terms(["X", "Y"])),)),
                    SumProduct(
                        (RelAtom("A", terms(["X", "Z"])),
                         RelAtom("B", terms(["Z", "Y"]))),
                    ),
                ),
            ),
            Rule(
                "B",
                terms(["X", "Y"]),
                (
                    SumProduct((RelAtom("E", terms(["X", "Y"])),)),
                    SumProduct(
                        (RelAtom("A", terms(["X", "Z"])),
                         RelAtom("B", terms(["Z", "Y"]))),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"E": 2})
        columns = select_shard_columns(prog)
        assert columns == {"A": 1, "B": 0}
        assert broadcast_relations(prog, columns) == frozenset()

    def test_self_join_on_shared_column_routes(self):
        # L(X,Z) ⊗ L(Y,Z): both occurrences carry Z at column 1, so a
        # single column *does* align the self-join — routing is sound.
        rules = [
            Rule(
                "L",
                terms(["X", "Y"]),
                (
                    SumProduct((RelAtom("E", terms(["X", "Y"])),)),
                    SumProduct(
                        (RelAtom("L", terms(["X", "Z"])),
                         RelAtom("L", terms(["Y", "Z"]))),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"E": 2})
        plan = build_sharding_plan(prog, workers=2)
        assert plan.columns == {"L": 1}
        assert plan.broadcast == frozenset()

    def test_misaligned_occurrence_broadcasts(self):
        # Two bodies demand conflicting columns for B (Z rides column
        # 0 in one, column 1 in the other): no assignment aligns both,
        # so neither relation's partial replica can be certified.
        rules = [
            Rule(
                "A",
                terms(["X", "Y"]),
                (
                    SumProduct((RelAtom("E", terms(["X", "Y"])),)),
                    SumProduct(
                        (RelAtom("A", terms(["X", "Z"])),
                         RelAtom("B", terms(["Z", "Y"]))),
                    ),
                    SumProduct(
                        (RelAtom("A", terms(["X", "Z"])),
                         RelAtom("B", terms(["Y", "Z"]))),
                    ),
                ),
            ),
            Rule(
                "B",
                terms(["X", "Y"]),
                (SumProduct((RelAtom("E", terms(["X", "Y"])),)),),
            ),
        ]
        prog = Program(rules=rules, edbs={"E": 2})
        plan = build_sharding_plan(prog, workers=2)
        assert "B" in plan.broadcast
        assert "A" in plan.broadcast

    def test_owner_is_deterministic_and_in_range(self):
        prog = programs.apsp()
        plan = build_sharding_plan(prog, workers=4)
        [rel] = list(prog.idb_names())
        for key in [(0, 1), ("a", "b"), (1.5, None), ((0, 1), 2)]:
            owner = plan.owner(rel, key)
            assert 0 <= owner < 4
            assert owner == plan.owner(rel, key)
        # Ownership keys only the shard column.
        col = plan.columns[rel]
        assert plan.owner(rel, (7, 1)) == plan.owner(rel, (7, 99))
        # Stable across value kinds; out-of-range keys fall back to
        # whole-key hashing instead of raising.
        assert 0 <= plan.owner(rel, ()) < 4
        assert shard_of("x", 3) == shard_of("x", 3)

    def test_single_worker_owns_everything(self):
        prog = programs.apsp()
        plan = build_sharding_plan(prog, workers=1)
        assert plan.owner("T", (3, 4)) == 0


# ---------------------------------------------------------------------------
# Differentials: sharded == batched/codegen, byte for byte.
# ---------------------------------------------------------------------------


class TestShardedDifferentials:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_apsp_trop(self, workers):
        _assert_sharded_matches(programs.apsp(), _weighted_db(), workers)

    @pytest.mark.parametrize("schedule", ["monolithic", "scc"])
    def test_apsp_all_schedules(self, schedule):
        _assert_sharded_matches(
            programs.apsp(), _weighted_db(), 2, schedule=schedule
        )

    def test_sssp_routed_delta(self):
        sharded = _assert_sharded_matches(programs.sssp(0), _line_db(12), 2)
        assert sharded.stats["exchange_rounds"] > 0

    def test_layered_sssp_mutual_recursion(self):
        _assert_sharded_matches(programs.layered_sssp(0), _line_db(10), 2)

    def test_quadratic_tc_bool_broadcast(self):
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        _assert_sharded_matches(
            programs.quadratic_transitive_closure(), db, 2
        )

    def test_cyclic_tc_bool(self):
        cyc = workloads.cycle_edges(9)
        db = Database(pops=BOOL, relations={"E": {e: True for e in cyc}})
        _assert_sharded_matches(programs.transitive_closure(), db, 3)

    def test_bill_of_material_lifted_rejected_like_single_process(self):
        # R⊥ has no ⊖: recursive semi-naïve evaluation is rejected, and
        # the sharded engine must surface the *same* validation error
        # instead of spawning a pool that dies on it.
        from repro.core import SemiNaiveError

        edges, costs = workloads.fig_2b_bom()
        db = Database(
            pops=LIFTED_REAL,
            relations={"C": {(k,): v for k, v in costs.items()}},
            bool_relations={"E": set(edges)},
        )
        prog = programs.bill_of_material()
        with pytest.raises(SemiNaiveError):
            solve(prog, db, method="seminaive", engine=ENGINE)
        with pytest.raises(SemiNaiveError):
            solve(
                prog, db, method="seminaive", engine=ENGINE,
                engine_workers=2,
            )

    def test_key_as_value_functions_ship_by_fork(self):
        # FunctionRegistry entries are inherited by the forked workers,
        # never pickled — a lambda would break anything pickle-based.
        registry = FunctionRegistry()
        registry.register("key_to_trop", lambda k: float(k))
        db = Database(
            pops=TROP,
            bool_relations={
                "Length": {("a", "b", 3), ("a", "b", 7), ("a", "c", 2)}
            },
        )
        _assert_sharded_matches(
            programs.shortest_length_from_bool(), db, 2, functions=registry
        )

    def test_workers_one_through_the_pool(self):
        # N=1 still exercises the full worker protocol (exchange,
        # merge) and must be byte-identical, trivially.
        prog = programs.apsp()
        db = _weighted_db()
        base = solve(prog, db, method="seminaive", engine=ENGINE)
        evaluator = ShardedSemiNaiveEvaluator(
            prog, db, engine=ENGINE, workers=1
        )
        result = evaluator.run()
        assert _bytes_of(result.instance) == _bytes_of(base.instance)
        assert result.stats["exchange_rounds"] > 0

    def test_thread_pool_fallback(self, monkeypatch):
        # The nogil path: same protocol over queues, nothing pickled.
        monkeypatch.setenv("DATALOGO_SHARD_THREADS", "1")
        _assert_sharded_matches(programs.apsp(), _weighted_db(), 2)

    def test_exchange_determinism(self):
        prog = programs.apsp()
        db = _weighted_db()
        runs = [
            solve(
                prog, db, method="seminaive", engine=ENGINE,
                engine_workers=2, schedule="monolithic",
            )
            for _ in range(2)
        ]
        assert _bytes_of(runs[0].instance) == _bytes_of(runs[1].instance)
        assert (
            runs[0].stats["exchange_tuples"]
            == runs[1].stats["exchange_tuples"]
        )
        assert (
            runs[0].stats["exchange_rounds"]
            == runs[1].stats["exchange_rounds"]
        )
        assert runs[0].stats["exchange_tuples"] > 0


# ---------------------------------------------------------------------------
# Self-healing fault matrix (DATALOGO_FAULT): a one-shot fault never
# costs more than a restart/retransmit — byte-identical, no fallback.
# ---------------------------------------------------------------------------


class TestShardSelfHealing:
    def _heal_and_match(
        self, monkeypatch, fault, workers=2, deadline=None, **evaluator_kw
    ):
        prog, db = programs.apsp(), _weighted_db()
        base = solve(prog, db, method="seminaive", engine=ENGINE)
        monkeypatch.setenv("DATALOGO_FAULT", fault)
        result = ShardedSemiNaiveEvaluator(
            prog, db, engine=ENGINE, workers=workers, deadline=deadline,
            **evaluator_kw
        ).run()
        assert _bytes_of(result.instance) == _bytes_of(base.instance)
        assert result.steps == base.steps
        assert result.stats["valuations"] == base.stats["valuations"]
        assert result.stats["products"] == base.stats["products"]
        assert result.stats["shard_fallbacks"] == 0
        assert result.stats["shard_stall_fallbacks"] == 0
        assert result.stats["shard_demotions"] == 0
        return result

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("worker", [0, 1])
    @pytest.mark.parametrize("step", [2, 3])
    def test_crash_heals_by_restart(
        self, monkeypatch, workers, worker, step
    ):
        # A real mid-fixpoint process death (os._exit in the child):
        # the coordinator re-forks the worker, restores it from master
        # state, replays the step — and never falls back.
        result = self._heal_and_match(
            monkeypatch, f"crash@{step}:{worker}", workers=workers
        )
        assert result.stats["shard_restarts"] == 1

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("step", [2, 3])
    def test_stall_heals_by_restart(self, monkeypatch, workers, step):
        result = self._heal_and_match(
            monkeypatch, f"stall@{step}:1", workers=workers, deadline=0.4
        )
        assert result.stats["shard_restarts"] == 1

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("step", [2, 3])
    def test_corrupt_heals_by_retransmit(self, monkeypatch, workers, step):
        # A flipped exchange checksum costs one retransmit of the
        # cached clean reply — not even a restart.
        result = self._heal_and_match(
            monkeypatch, f"corrupt@{step}:1", workers=workers
        )
        assert result.stats["crc_retransmits"] == 1
        assert result.stats["shard_restarts"] == 0

    def test_crash_heals_in_thread_mode(self, monkeypatch):
        monkeypatch.setenv("DATALOGO_SHARD_THREADS", "1")
        result = self._heal_and_match(monkeypatch, "crash@2:0")
        assert result.stats["shard_restarts"] == 1

    def test_multi_fault_plan(self, monkeypatch):
        # Independent one-shot faults on different workers/steps all
        # heal within the restart budget.
        result = self._heal_and_match(
            monkeypatch, "crash@2:0,corrupt@3:1", workers=4
        )
        assert result.stats["shard_restarts"] == 1
        assert result.stats["crc_retransmits"] == 1

    def test_crash_through_solve_stays_sharded(self, monkeypatch):
        # The ISSUE acceptance shape: DATALOGO_FAULT kills 1 of 4
        # workers mid-fixpoint, solve() completes byte-identically via
        # worker restart — NOT via single-process fallback.
        prog, db = programs.apsp(), _weighted_db()
        base = solve(prog, db, method="seminaive", engine=ENGINE)
        monkeypatch.setenv("DATALOGO_FAULT", "crash@2:1")
        result = solve(
            prog, db, method="seminaive", engine=ENGINE, engine_workers=4
        )
        assert _bytes_of(result.instance) == _bytes_of(base.instance)
        assert result.stats["shard_restarts"] == 1
        assert result.stats["shard_fallbacks"] == 0


# ---------------------------------------------------------------------------
# Degradation ladder: a fault that survives restarts (generation *)
# demotes the pool, and only below two workers falls back (warned).
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def _expect_ladder(self, monkeypatch, fault, **evaluator_kw):
        prog, db = programs.apsp(), _weighted_db()
        base = solve(prog, db, method="seminaive", engine=ENGINE)
        monkeypatch.setenv("DATALOGO_FAULT", fault)
        monkeypatch.setenv("DATALOGO_SHARD_RESTARTS", "1")
        with pytest.warns(RuntimeWarning, match="fell back"):
            result = ShardedSemiNaiveEvaluator(
                prog, db, engine=ENGINE, workers=4, **evaluator_kw
            ).run()
        assert _bytes_of(result.instance) == _bytes_of(base.instance)
        assert result.steps == base.steps
        assert result.stats["shard_restarts"] >= 1
        assert result.stats["shard_demotions"] >= 1
        assert result.stats["shard_fallbacks"] == 1
        return result

    def test_persistent_crash_walks_ladder(self, monkeypatch):
        result = self._expect_ladder(monkeypatch, "crash@2:0:*")
        assert result.stats["shard_stall_fallbacks"] == 0

    def test_persistent_stall_counts_stall_fallback(self, monkeypatch):
        # Satellite: stall-deadline fallbacks get their own counter on
        # top of the generic one.
        result = self._expect_ladder(
            monkeypatch, "stall@2:0:*", deadline=0.3
        )
        assert result.stats["shard_stall_fallbacks"] == 1


# ---------------------------------------------------------------------------
# solve()/CLI knob validation.
# ---------------------------------------------------------------------------


class TestShardedValidation:
    def test_requires_seminaive(self):
        with pytest.raises(ValueError, match="seminaive"):
            solve(
                programs.apsp(), _weighted_db(), method="naive",
                engine_workers=2,
            )

    def test_rejects_capture_trace(self):
        with pytest.raises(ValueError, match="iteration chain"):
            solve(
                programs.apsp(), _weighted_db(), method="seminaive",
                engine_workers=2, capture_trace=True,
                schedule="monolithic",
            )

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="engine_workers"):
            solve(
                programs.apsp(), _weighted_db(), method="seminaive",
                engine_workers=0,
            )

    def test_cli_workers_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "prog.dl", "--pops", "trop", "--edb", "db.json",
             "--method", "seminaive", "--workers", "3"]
        )
        assert args.workers == 3


# ---------------------------------------------------------------------------
# Hypothesis: sharded == batched over random recursive programs.
# ---------------------------------------------------------------------------

_PREDS = ["P0", "P1", "P2", "P3"]

_body_spec = st.one_of(
    st.just(("edb",)),
    st.tuples(st.just("ind"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("cond"), st.integers(min_value=0, max_value=3)),
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
                sum_products.append(SumProduct((RelAtom("A", terms(["X"])),)))
            elif kind == "ind":
                sum_products.append(
                    SumProduct(
                        (Indicator(Compare("==", var("X"), Constant(body[1]))),)
                    )
                )
            elif kind == "cond":
                sum_products.append(
                    SumProduct(
                        (RelAtom("A", terms(["X"])),),
                        condition=Compare("!=", var("X"), Constant(body[1])),
                    )
                )
            else:
                j = body[1] % len(spec)
                if acyclic and j >= i:
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


class TestShardedInvariance:
    @settings(max_examples=12, deadline=None)
    @given(_program_spec, st.sampled_from([2, 4]))
    def test_idempotent_semirings_with_cycles(self, spec, workers):
        for pops, values in (
            (BOOL, [True, True, True]),
            (TROP, [1.0, 2.0, 4.0]),
            (THREE, [1, 0, 1]),
        ):
            if not pops.caps.has_minus:
                continue
            prog = _build_program(spec, acyclic=False)
            db = _database(pops, values)
            base = solve(
                prog, db, method="seminaive", engine=ENGINE,
                max_iterations=400,
            )
            sharded = solve(
                prog, db, method="seminaive", engine=ENGINE,
                engine_workers=workers, max_iterations=400,
            )
            assert _bytes_of(sharded.instance) == _bytes_of(
                base.instance
            ), pops.name
            assert sharded.stats["valuations"] == base.stats["valuations"]
            assert sharded.stats["products"] == base.stats["products"]

    @settings(max_examples=8, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        base = solve(
            prog, db, method="seminaive", engine=ENGINE, max_iterations=400
        )
        sharded = solve(
            prog, db, method="seminaive", engine=ENGINE,
            engine_workers=2, max_iterations=400,
        )
        assert _bytes_of(sharded.instance) == _bytes_of(base.instance)
