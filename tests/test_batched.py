"""The batched columnar kernel backend (``engine="batched"``).

Covers the whole-batch pipeline end to end:

* batched == codegen == compiled == interpreted fixpoints —
  *byte-identical*, not just ``⊕``-equal — on the paper's workloads
  and on hypothesis-generated programs with cyclic, mutually recursive
  and conditional bodies, across Boolean / tropical / THREE /
  lifted-reals value spaces, for both fixpoint engines and all
  schedules;
* exact join-counter parity with the codegen backend (same Plan IR,
  same per-candidate event totals), modulo the counters that describe
  engine shape rather than work done (``batch_joins``/``batch_rows``/
  ``vector_filter_prunes`` exist only here, ``codegen_kernels`` only
  there, and ``index_builds`` may be *lower* because mask tables build
  lazily);
* the batch counters themselves, kernel caching, grounded/hybrid
  wiring, and the centralized ``engine=`` validation;
* the numpy fast path (grouped ⊕-reduction) and its clean stdlib
  fallback when numpy is absent or values are rich.

Set ``DATALOGO_ENGINE`` to re-run the differentials with another
engine as the subject (the CI engine matrix does this).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import (
    Database,
    HybridEvaluator,
    ThresholdRule,
    VALID_ENGINES,
    solve,
)
from repro.core import batched as batched_mod
from repro.core.ast import Compare, Constant, terms, var
from repro.core.batched import BatchedKernel
from repro.core.grounding import ground_program
from repro.core.naive import NaiveEvaluator
from repro.core.rules import (
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
)
from repro.semirings import BOOL, LIFTED_REAL, REAL_PLUS, THREE, TROP
from repro.semirings.base import FunctionRegistry

#: The engine under test; the CI engine matrix overrides this.
ENGINE = os.environ.get("DATALOGO_ENGINE", "batched")

#: Counters that describe engine *shape* rather than join work — every
#: other counter must agree exactly between batched and codegen.
#: ``batch_*``/``vector_filter_prunes`` exist only here and
#: ``codegen_kernels`` only there; index/cache bookkeeping differs
#: because mask tables build lazily per delta batch.
SHAPE_COUNTERS = frozenset(
    {
        "batch_joins",
        "batch_rows",
        "vector_filter_prunes",
        "codegen_kernels",
        "index_builds",
        "index_hits",
        "index_reuses",
        "kernel_cache_hits",
        "kernel_cache_misses",
    }
)


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


def _counters(result) -> dict:
    return {
        k: v
        for k, v in result.stats.items()
        if k not in SHAPE_COUNTERS and isinstance(v, int)
    }


def _line_db(n=10, pops=TROP):
    return Database(pops=pops, relations={"E": dict(workloads.line_edges(n))})


def _weighted_db(n=12, p=0.3, seed=7):
    edges = workloads.random_weighted_digraph(n, p, seed=seed)
    return Database(pops=TROP, relations={"E": dict(edges)})


# ---------------------------------------------------------------------------
# batched == codegen == compiled == interpreted, byte for byte.
# ---------------------------------------------------------------------------


class TestBatchedDifferentials:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    @pytest.mark.parametrize("schedule", ["monolithic", "scc"])
    def test_apsp_all_schedules(self, method, schedule):
        db = _weighted_db()
        results = {
            engine: solve(
                programs.apsp(), db, method=method, schedule=schedule,
                engine=engine,
            )
            for engine in ("interpreted", "compiled", "codegen", ENGINE)
        }
        subject = results[ENGINE]
        for other in ("interpreted", "compiled", "codegen"):
            assert subject.instance.equals(results[other].instance)
            assert _bytes_of(subject.instance) == _bytes_of(
                results[other].instance
            )
            assert subject.steps == results[other].steps

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_sssp_line(self, method):
        db = _line_db(12)
        subject = solve(programs.sssp(0), db, method=method, engine=ENGINE)
        codegen = solve(programs.sssp(0), db, method=method, engine="codegen")
        assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_layered_sssp_mutual_recursion(self, method):
        db = _line_db(10)
        prog = programs.layered_sssp(0)
        subject = solve(prog, db, method=method, engine=ENGINE)
        interpreted = solve(prog, db, method=method, engine="interpreted")
        assert subject.instance.equals(interpreted.instance)
        assert _bytes_of(subject.instance) == _bytes_of(interpreted.instance)

    def test_quadratic_tc_nonlinear_variants(self):
        # Two IDB occurrences per body: every Eq. 64 delta-variant
        # store assignment runs through the columnar pipeline.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        prog = programs.quadratic_transitive_closure()
        subject = solve(prog, db, method="seminaive", engine=ENGINE)
        interpreted = solve(prog, db, method="seminaive", engine="interpreted")
        assert subject.instance.equals(interpreted.instance)

    def test_cyclic_tc(self):
        cyc = workloads.cycle_edges(9)
        db = Database(pops=BOOL, relations={"E": {e: True for e in cyc}})
        prog = programs.transitive_closure()
        for method in ("naive", "seminaive"):
            subject = solve(prog, db, method=method, engine=ENGINE)
            codegen = solve(prog, db, method=method, engine="codegen")
            assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)

    def test_bill_of_material_lifted(self):
        edges, costs = workloads.fig_2b_bom()
        db = Database(
            pops=LIFTED_REAL,
            relations={"C": {(k,): v for k, v in costs.items()}},
            bool_relations={"E": set(edges)},
        )
        prog = programs.bill_of_material()
        subject = solve(prog, db, engine=ENGINE)
        interpreted = solve(prog, db, engine="interpreted")
        assert _bytes_of(subject.instance) == _bytes_of(interpreted.instance)

    def test_key_as_value_functions(self):
        registry = FunctionRegistry()
        registry.register("key_to_trop", float)
        db = Database(
            pops=TROP,
            bool_relations={
                "Length": {("a", "b", 3), ("a", "b", 7), ("a", "c", 2)}
            },
        )
        prog = programs.shortest_length_from_bool()
        subject = solve(prog, db, engine=ENGINE, functions=registry)
        codegen = solve(prog, db, engine="codegen", functions=registry)
        assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)

    def test_prefix_sum_conditions(self):
        # Comparison-laden bodies: pushdown filters become vectorized
        # boolean masks (and the plan's trailing filters keep this
        # shape off the fused fast path).
        n = 6
        db = Database(
            pops=REAL_PLUS,
            relations={"V": {(i,): float(i + 1) for i in range(n)}},
            bool_relations={"Idx": {(i,) for i in range(n)}},
        )
        prog = programs.prefix_sum(length=n)
        subject = solve(prog, db, engine=ENGINE)
        codegen = solve(prog, db, engine="codegen")
        assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)

    def test_total_heads_three(self):
        # THREE is not naturally ordered: heads totalize over the whole
        # ground-atom space; batched accumulation must interact with
        # the pre-seeded zeros exactly like the other backends.
        rules = [
            Rule(
                "R",
                terms(["X"]),
                (
                    SumProduct((RelAtom("A", terms(["X"])),)),
                    SumProduct(
                        (RelAtom("R", terms(["Z"])),
                         RelAtom("E", terms(["Z", "X"]))),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"A": 1, "E": 2})
        db = Database(
            pops=THREE,
            relations={
                "A": {(0,): 1, (1,): 0},
                "E": {(0, 1): 1, (1, 2): 1, (2, 3): 0},
            },
        )
        subject = NaiveEvaluator(prog, db, engine=ENGINE).run()
        interpreted = NaiveEvaluator(prog, db, engine="interpreted").run()
        assert subject.instance.equals(interpreted.instance)
        assert subject.steps == interpreted.steps


# ---------------------------------------------------------------------------
# Exact counter parity with codegen, and the batch counters themselves.
# ---------------------------------------------------------------------------


class TestBatchedCounters:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_counter_parity_with_codegen(self, method):
        db = _weighted_db()
        subject = solve(
            programs.apsp(), db, method=method, schedule="monolithic",
            engine="batched",
        )
        codegen = solve(
            programs.apsp(), db, method=method, schedule="monolithic",
            engine="codegen",
        )
        assert _counters(subject) == _counters(codegen)

    def test_counter_parity_sssp(self):
        db = _line_db(12)
        subject = solve(
            programs.sssp(0), db, schedule="monolithic", engine="batched"
        )
        codegen = solve(
            programs.sssp(0), db, schedule="monolithic", engine="codegen"
        )
        assert _counters(subject) == _counters(codegen)

    def test_batch_counters_populated(self):
        db = _weighted_db()
        result = solve(programs.apsp(), db, method="seminaive",
                       engine="batched")
        assert result.stats["batch_joins"] > 0
        assert result.stats["batch_rows"] > 0
        # One whole-batch join invocation covers many probed rows.
        assert result.stats["batch_rows"] > result.stats["batch_joins"]
        # The batched backend never generates source...
        assert result.stats["codegen_kernels"] == 0
        # ...but caches its kernels across iterations like codegen.
        assert result.stats["kernel_cache_hits"] > 0

    def test_vectorized_filter_prunes(self):
        # A conditioned body: rows dropped by the boolean mask count
        # both as pushdown prunes (parity) and as vector prunes.
        rules = [
            Rule(
                "T",
                terms(["X", "Y"]),
                (
                    SumProduct(
                        (RelAtom("E", terms(["X", "Y"])),),
                        condition=Compare("!=", var("X"), Constant(0)),
                    ),
                ),
            ),
        ]
        prog = Program(rules=rules, edbs={"E": 2})
        db = _line_db(6)
        result = solve(prog, db, engine="batched")
        assert result.stats["vector_filter_prunes"] > 0
        assert (
            result.stats["pushdown_prunes"]
            == result.stats["vector_filter_prunes"]
        )

    def test_other_engines_have_no_batch_counters(self):
        db = _line_db(8)
        for engine in ("compiled", "codegen", "interpreted"):
            result = solve(programs.sssp(0), db, engine=engine)
            assert result.stats["batch_joins"] == 0
            assert result.stats["batch_rows"] == 0


# ---------------------------------------------------------------------------
# Wiring: grounding, hybrid, CLI-level validation.
# ---------------------------------------------------------------------------


class TestBatchedWiring:
    def test_grounded_engine_knob(self):
        db = _line_db(6)
        subject = ground_program(programs.sssp(0), db, engine=ENGINE)
        interpreted = ground_program(
            programs.sssp(0), db, engine="interpreted"
        )
        a = subject.kleene().value
        b = interpreted.kleene().value
        assert set(a) == set(b)
        for key in a:
            assert TROP.eq(a[key], b[key])

    def test_hybrid_engine_knob(self):
        def build(engine):
            rules = [
                Rule(
                    "T",
                    terms(["X"]),
                    (
                        SumProduct((RelAtom("W", terms(["X"])),)),
                        SumProduct(
                            (RelAtom("T", terms(["Z"])),
                             RelAtom("E", terms(["Z", "X"]))),
                        ),
                    ),
                ),
            ]
            prog = Program(rules=rules, edbs={"W": 1, "E": 2})
            db = Database(
                pops=REAL_PLUS,
                relations={
                    "W": {(0,): 0.4, (1,): 0.2},
                    "E": {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5},
                },
            )
            threshold = ThresholdRule(
                head_relation="Big",
                head_args=terms(["X"]),
                body=SumProduct((RelAtom("T", terms(["X"])),)),
                predicate=lambda v: v > 0.3,
            )
            hybrid = HybridEvaluator(
                prog, [threshold], db, engine=engine, max_iterations=50
            )
            result = hybrid.run()
            return result.instance, hybrid.bool_facts("Big")

        inst_b, facts_b = build(ENGINE)
        inst_i, facts_i = build("interpreted")
        assert inst_b.equals(inst_i)
        assert facts_b == facts_i

    def test_engine_validation_lists_choices(self):
        db = _line_db(4)
        with pytest.raises(ValueError) as excinfo:
            solve(programs.sssp(0), db, engine="bogus")
        message = str(excinfo.value)
        for engine in VALID_ENGINES:
            assert engine in message
        # The knob conflict (non-indexed plan) is still rejected.
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, plan="naive", engine="batched")

    def test_valid_engines_is_single_source(self):
        # cli.py and engine.py both consume this tuple; the batched
        # backend must be registered exactly once.
        assert "batched" in VALID_ENGINES
        assert len(VALID_ENGINES) == len(set(VALID_ENGINES))
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["run", "p.dl", "--pops", "trop", "--edb", "d.json",
             "--engine", "batched"]
        )
        assert args.engine == "batched"
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["run", "p.dl", "--pops", "trop", "--edb", "d.json",
                 "--engine", "bogus"]
            )


# ---------------------------------------------------------------------------
# The numpy fast path and its stdlib fallback.
# ---------------------------------------------------------------------------


class TestNumpyFastPath:
    def _solve_apsp(self):
        db = _weighted_db(14, 0.35, seed=11)
        return solve(programs.apsp(), db, method="seminaive",
                     engine="batched")

    def test_numpy_absent_fallback(self, monkeypatch):
        # Simulate an environment without numpy: the runtime check in
        # _numpy_reduce consults the module global on every leaf.
        monkeypatch.setattr(batched_mod, "_np", None)
        monkeypatch.setattr(batched_mod, "_NUMPY_MIN_ROWS", 1)
        without = self._solve_apsp()
        monkeypatch.undo()
        with_np = self._solve_apsp()
        assert without.instance.equals(with_np.instance)
        assert _bytes_of(without.instance) == _bytes_of(with_np.instance)

    def test_numpy_reduce_byte_identical(self, monkeypatch):
        # Force the grouped ufunc reduction onto every (unfused) leaf
        # and check the fixpoint stays byte-identical to codegen.
        if batched_mod._np is None:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(batched_mod, "_NUMPY_MIN_ROWS", 1)
        monkeypatch.setattr(
            BatchedKernel, "_build_fused", lambda self, ir, pre: None
        )
        db = _weighted_db(14, 0.35, seed=11)
        subject = solve(programs.apsp(), db, method="seminaive",
                        engine="batched")
        codegen = solve(programs.apsp(), db, method="seminaive",
                        engine="codegen")
        assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)
        assert _counters(subject) == _counters(codegen)

    def test_rich_values_reject_ufuncs(self, monkeypatch):
        # Lifted reals wrap floats in tagged values: the per-column
        # type scan must turn the ufunc path down and the stdlib fold
        # must still agree with the interpreted engine.
        monkeypatch.setattr(batched_mod, "_NUMPY_MIN_ROWS", 1)
        edges, costs = workloads.fig_2b_bom()
        db = Database(
            pops=LIFTED_REAL,
            relations={"C": {(k,): v for k, v in costs.items()}},
            bool_relations={"E": set(edges)},
        )
        prog = programs.bill_of_material()
        subject = solve(prog, db, engine="batched")
        interpreted = solve(prog, db, engine="interpreted")
        assert subject.instance.equals(interpreted.instance)


# ---------------------------------------------------------------------------
# Hypothesis: batched == codegen == compiled == interpreted over random
# programs (generators shared in spirit with test_codegen).
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


class TestBatchedInvariance:
    @settings(max_examples=50, deadline=None)
    @given(_program_spec)
    def test_idempotent_semirings_with_cycles(self, spec):
        for pops, values in (
            (BOOL, [True, True, True]),
            (TROP, [1.0, 2.0, 4.0]),
            (THREE, [1, 0, 1]),
        ):
            prog = _build_program(spec, acyclic=False)
            db = _database(pops, values)
            interpreted = solve(
                prog, db, engine="interpreted", max_iterations=400
            )
            subject = solve(prog, db, engine=ENGINE, max_iterations=400)
            assert subject.instance.equals(interpreted.instance), pops.name
            codegen = solve(prog, db, engine="codegen", max_iterations=400)
            assert _bytes_of(subject.instance) == _bytes_of(
                codegen.instance
            ), pops.name
            if pops.caps.has_minus:
                semi = solve(
                    prog,
                    db,
                    method="seminaive",
                    engine=ENGINE,
                    max_iterations=400,
                )
                assert semi.instance.equals(interpreted.instance), pops.name

    @settings(max_examples=30, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        interpreted = solve(prog, db, engine="interpreted", max_iterations=400)
        subject = solve(prog, db, engine=ENGINE, max_iterations=400)
        assert subject.instance.equals(interpreted.instance)

    @settings(max_examples=20, deadline=None)
    @given(_program_spec)
    def test_counter_parity_random_programs(self, spec):
        prog = _build_program(spec, acyclic=False)
        db = _database(TROP, [1.0, 2.0, 4.0])
        subject = solve(
            prog, db, schedule="monolithic", engine="batched",
            max_iterations=400,
        )
        codegen = solve(
            prog, db, schedule="monolithic", engine="codegen",
            max_iterations=400,
        )
        assert _bytes_of(subject.instance) == _bytes_of(codegen.instance)
        assert _counters(subject) == _counters(codegen)
