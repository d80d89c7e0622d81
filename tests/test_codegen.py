"""The source-codegen kernel backend (``engine="codegen"``).

Covers the codegen pipeline end to end:

* codegen == compiled == interpreted fixpoints on the paper's
  workloads and on hypothesis-generated programs with cyclic, mutually
  recursive and conditional bodies, across classic-Boolean / tropical /
  THREE / lifted-reals value spaces, for both fixpoint engines and all
  schedules;
* join-counter parity: the generated kernels count every probe, scan,
  prune and fallback event exactly like the closure kernels (same Plan
  IR, same event order);
* source caching: one generation + ``compile()`` per (rule, body[,
  variant]) per evaluator (``JoinStats.codegen_kernels``), every later
  fixpoint iteration a ``kernel_cache_hits`` reuse — no recompiles
  across iterations;
* the debugging hook: generated source is retained on the kernel and
  registered with :mod:`linecache`;
* grounded/hybrid wiring and the ``engine=`` knob's validation;
* leaf lowering is exact: native ``⊕``/``⊗`` and the dropped leading
  ``1 ⊗`` give the same byte-exact fingerprint (``repr`` of every
  value, :func:`repro.core.incremental.fingerprint`) as the
  interpreted engine on EDBs of ints, ``-0.0``, ``0`` and ``inf``, and
  on warm starts of int bags.
"""

from __future__ import annotations

import dataclasses
import linecache
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import programs, workloads
from repro.core import Database, HybridEvaluator, Instance, ThresholdRule, solve
from repro.core.ast import Compare, Constant, terms, var
from repro.core.grounding import ground_program
from repro.core.incremental import fingerprint
from repro.core.naive import NaiveEvaluator
from repro.core.rules import (
    FuncFactor,
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
    ValueConst,
)
from repro.semirings import (
    BOOL,
    BOTTLENECK,
    INF,
    LIFTED_REAL,
    REAL_PLUS,
    THREE,
    TROP,
    VITERBI,
    TropicalPSemiring,
)
from repro.semirings.base import FunctionRegistry

#: The subject engine leads the differential tuple; the CI engine
#: matrix overrides it via ``DATALOGO_ENGINE`` to re-run the whole
#: differential suite with each backend as the subject.
_SUBJECT = os.environ.get("DATALOGO_ENGINE", "codegen")
ENGINES = tuple(
    dict.fromkeys((_SUBJECT, "codegen", "compiled", "interpreted"))
)


def _line_db(n=10, pops=TROP):
    return Database(pops=pops, relations={"E": dict(workloads.line_edges(n))})


# ---------------------------------------------------------------------------
# codegen == compiled == interpreted on the paper's workloads.
# ---------------------------------------------------------------------------


class TestCodegenDifferentials:
    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    @pytest.mark.parametrize("schedule", ["monolithic", "scc"])
    def test_sssp_line(self, method, schedule):
        db = _line_db(12)
        results = {
            engine: solve(
                programs.sssp(0), db, method=method, schedule=schedule,
                engine=engine,
            )
            for engine in ENGINES
        }
        assert results["codegen"].instance.equals(
            results["interpreted"].instance
        )
        assert results["codegen"].instance.equals(
            results["compiled"].instance
        )
        assert results[_SUBJECT].instance.equals(
            results["interpreted"].instance
        )

    @pytest.mark.parametrize("method", ["naive", "seminaive"])
    def test_layered_sssp(self, method):
        db = _line_db(10)
        prog = programs.layered_sssp(0)
        codegen = solve(prog, db, method=method, engine="codegen")
        interpreted = solve(prog, db, method=method, engine="interpreted")
        assert codegen.instance.equals(interpreted.instance)

    def test_quadratic_tc_nonlinear_variants(self):
        # Two IDB occurrences per body: every delta-variant store
        # assignment (new / delta / old) is compiled into source.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        prog = programs.quadratic_transitive_closure()
        codegen = solve(prog, db, method="seminaive", engine="codegen")
        interpreted = solve(prog, db, method="seminaive", engine="interpreted")
        assert codegen.instance.equals(interpreted.instance)

    def test_join_counter_parity_with_closures(self):
        # Same Plan IR, same event order: every join counter agrees
        # with the closure backend, not just the fixpoint.
        db = _line_db(12)
        codegen = solve(
            programs.sssp(0), db, schedule="monolithic", engine="codegen"
        )
        closures = solve(
            programs.sssp(0), db, schedule="monolithic", engine="compiled"
        )
        assert codegen.instance.equals(closures.instance)
        for counter in (
            "probes", "probed_keys", "scans", "scanned_keys",
            "arity_skips", "pushdown_prunes", "fallback_candidates",
            "fallback_extensions", "equality_bindings", "keys_examined",
            "value_probe_hits", "factor_lookups", "valuations",
            "products", "rule_applications", "rules_skipped",
            "kernel_cache_hits",
        ):
            assert codegen.stats[counter] == closures.stats[counter], counter

    def test_grounded_engine_knob(self):
        db = _line_db(6)
        codegen = ground_program(programs.sssp(0), db, engine="codegen")
        interpreted = ground_program(
            programs.sssp(0), db, engine="interpreted"
        )
        a = codegen.kleene().value
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

        inst_c, facts_c = build("codegen")
        inst_i, facts_i = build("interpreted")
        assert inst_c.equals(inst_i)
        assert facts_c == facts_i

    def test_total_heads_three(self):
        # THREE is not naturally ordered: heads totalize over the whole
        # ground-atom space; the generated accumulation must interact
        # with the pre-seeded zeros exactly like the closure path.
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
        codegen = NaiveEvaluator(prog, db, engine="codegen").run()
        interpreted = NaiveEvaluator(prog, db, engine="interpreted").run()
        assert codegen.instance.equals(interpreted.instance)
        assert codegen.steps == interpreted.steps

    def test_engine_validation(self):
        db = _line_db(4)
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, plan="naive", engine="codegen")
        with pytest.raises(ValueError):
            solve(programs.sssp(0), db, engine="sourcery")


# ---------------------------------------------------------------------------
# Source caching and the debugging hook.
# ---------------------------------------------------------------------------


class TestCodegenCaching:
    def test_one_compile_per_body_across_iterations(self):
        # SSSP has two (rule, body) plans; the fixpoint runs ~n
        # iterations.  Generated kernels must be built exactly once per
        # plan and *reused* (cache hits), never regenerated mid-run.
        db = _line_db(10)
        result = solve(programs.sssp(0), db, schedule="monolithic",
                       engine="codegen")
        assert result.stats["iterations"] > 3
        assert result.stats["codegen_kernels"] == 2
        assert result.stats["kernel_cache_hits"] > 0
        assert (
            result.stats["kernel_cache_hits"]
            + result.stats["rules_skipped"]
            >= result.stats["iterations"] - 1
        )

    def test_seminaive_one_compile_per_variant(self):
        # Quadratic TC: one EDB body + one body with two IDB
        # occurrences = two delta variants, plus the naive bootstrap's
        # two body kernels.  Counted once each, reused every iteration.
        dag = workloads.random_dag(10, 0.25, seed=8)
        db = Database(pops=BOOL, relations={"E": {e: True for e in dag}})
        prog = programs.quadratic_transitive_closure()
        result = solve(prog, db, method="seminaive", schedule="monolithic",
                       engine="codegen")
        assert result.stats["iterations"] > 2
        assert result.stats["codegen_kernels"] == 4
        assert result.stats["kernel_cache_hits"] > 0

    def test_other_engines_never_generate_source(self):
        db = _line_db(8)
        for engine in ("compiled", "interpreted"):
            result = solve(programs.sssp(0), db, engine=engine)
            assert result.stats["codegen_kernels"] == 0

    def test_source_retained_and_in_linecache(self):
        db = _line_db(8)
        evaluator = NaiveEvaluator(programs.sssp(0), db, engine="codegen")
        kernel = evaluator.kernel(1)
        assert "def _kernel(" in kernel.source
        assert "for " in kernel.source  # the flat join loop
        # The debugging hook: linecache resolves the generated file, so
        # tracebacks through generated kernels show real source lines.
        first_line = linecache.getline(kernel.filename, 1)
        assert first_line.startswith("def _kernel(")
        # And the cache serves the same object back (no regeneration).
        assert evaluator.kernel(1) is kernel


# ---------------------------------------------------------------------------
# Hypothesis: codegen == compiled == interpreted over random programs.
# ---------------------------------------------------------------------------

_PREDS = ["P0", "P1", "P2", "P3"]

#: Body spec: ("edb",) | ("ind", c) | ("cond", c) | ("copy", j) | ("step", j).
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
                # A conditional body: the filter is inlined into the
                # generated source as a native comparison.
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


class TestCodegenInvariance:
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
            codegen = solve(prog, db, engine="codegen", max_iterations=400)
            assert codegen.instance.equals(interpreted.instance), pops.name
            compiled = solve(prog, db, engine="compiled", max_iterations=400)
            assert codegen.instance.equals(compiled.instance), pops.name
            if pops.caps.has_minus:
                semi = solve(
                    prog,
                    db,
                    method="seminaive",
                    engine="codegen",
                    max_iterations=400,
                )
                assert semi.instance.equals(interpreted.instance), pops.name

    @settings(max_examples=30, deadline=None)
    @given(_program_spec)
    def test_lifted_reals_acyclic(self, spec):
        prog = _build_program(spec, acyclic=True)
        db = _database(LIFTED_REAL, [1.0, 2.0, 4.0])
        interpreted = solve(prog, db, engine="interpreted", max_iterations=400)
        codegen = solve(prog, db, engine="codegen", max_iterations=400)
        assert codegen.instance.equals(interpreted.instance)


# ---------------------------------------------------------------------------
# Leaf lowering is exact: native ⊕/⊗ and the dropped leading ``1 ⊗``
# leave every fixpoint object as the interpreted engine builds it.
# ---------------------------------------------------------------------------

#: Ints, a signed zero, zeros and ``inf`` next to ordinary floats.
_MIXED = (1, 2.5, 3, -0.0, 0, 0.0, 4.0, INF, 7, 1.5)


def _bag(p):
    def lift(w):
        return (INF,) * (p + 1) if w == INF else (w,) + (INF,) * p

    return lift


def _unit(w):  # into [0, 1], keeping 0, -0.0 and 1 as given
    return 1 if w == INF else (w if w in (0, 1) else w / 8)


#: name -> (pops, weight -> value, acyclic graphs only).
EXACT_SPACES = {
    "trop": (TROP, lambda w: w, False),
    "trop_p1": (TropicalPSemiring(1), _bag(1), False),
    "trop_p2": (TropicalPSemiring(2), _bag(2), False),
    "rplus": (REAL_PLUS, lambda w: 2 if w == INF else w, True),
    "viterbi": (VITERBI, _unit, False),
    "bottleneck": (BOTTLENECK, lambda w: w, False),
}


def _atom(rel, *args):
    return RelAtom(rel, terms(list(args)))


def _first_factor_program(pops):
    """One rule per kind of first factor: an atom, a condition, a
    ``ValueConst``, a function and a Boolean EDB atom — plus a
    single-factor IDB copy, where a wrongly dropped ``1 ⊗`` would hand
    the stored object through unchanged."""
    rules = [
        Rule("T", terms(["X", "Y"]), (
            SumProduct((_atom("E", "X", "Y"),)),
            SumProduct((_atom("T", "X", "Z"), _atom("E", "Z", "Y"))),
        )),
        Rule("L", terms(["X"]), (
            SumProduct((Indicator(Compare("==", var("X"), Constant("n0"))),)),
            SumProduct((_atom("L", "Z"), _atom("E", "Z", "X"))),
        )),
        Rule("C", terms(["X", "Y"]), (
            SumProduct((ValueConst(pops.one), _atom("E", "X", "Y"))),
        )),
        Rule("F", terms(["X", "Y"]), (
            SumProduct((FuncFactor("ident", (_atom("E", "X", "Y"),)),)),
        )),
        Rule("B", terms(["X", "Y"]), (
            SumProduct((_atom("Node", "X"), _atom("E", "X", "Y"))),
        )),
        Rule("K", terms(["X", "Y"]), (SumProduct((_atom("T", "X", "Y"),)),)),
    ]
    return Program(rules=rules, edbs={"E": 2}, bool_edbs={"Node": 1})


_IDENT = FunctionRegistry()
_IDENT.register("ident", lambda v: v)


def _mixed_db(space, seed, nodes=6, edges=11):
    pops, lift, acyclic = EXACT_SPACES[space]
    rng = random.Random(seed)
    weights = {}
    while len(weights) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if not (acyclic and a >= b):
            weights[(f"n{a}", f"n{b}")] = rng.choice(_MIXED)
    return Database(
        pops=pops,
        relations={"E": {k: lift(w) for k, w in weights.items()}},
        bool_relations={"Node": {(f"n{i}",) for i in range(0, nodes, 2)}},
    )


class TestLeafLoweringExactness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("space", sorted(EXACT_SPACES))
    def test_strict_fingerprint_equals_interpreted(self, space, seed):
        db = _mixed_db(space, seed)
        prog = _first_factor_program(db.pops)
        methods = ["naive"] + (["seminaive"] if db.pops.caps.has_minus else [])
        for method in methods:
            want = fingerprint(
                solve(prog, db, method=method, engine="interpreted",
                      functions=_IDENT).instance
            )
            for engine in ENGINES:
                got = solve(prog, db, method=method, engine=engine,
                            functions=_IDENT)
                assert fingerprint(got.instance) == want, (method, engine)

    @staticmethod
    def _int_bag_start(pops, db, prog):
        """``T``'s fixpoint with its bags made of ints, and no ``K``: the
        first iterate copies ``T`` into ``K``, and that iterate is the
        one the run returns."""
        cold = solve(prog, db, engine="interpreted", functions=_IDENT).instance
        start = Instance(pops)
        for key, value in cold.support("T").items():
            start.set("T", key, tuple(x if x == INF else int(x) for x in value))
        return start

    @staticmethod
    def _plant_identity_pass(monkeypatch, pops):
        """Replace the canonical pass ``v ↦ 1 ⊗ v`` with the identity,
        keeping the space's declaration (and so the dropped ``1 ⊗``)."""
        caps = dataclasses.replace(pops.caps, canonical=lambda v: v)
        monkeypatch.setitem(vars(pops), "caps", caps)

    @pytest.mark.parametrize("p", [1, 2])
    def test_warm_start_with_int_bags(self, p, monkeypatch):
        """A start instance of int bags, which ``1 ⊗`` does not fix: the
        run maps it to the canonical form, so every engine's ``K``
        holds floats."""
        pops = TropicalPSemiring(p)
        db = _mixed_db(f"trop_p{p}", 4)
        prog = _first_factor_program(pops)
        start = self._int_bag_start(pops, db, prog)

        def run(engine):
            return fingerprint(
                NaiveEvaluator(prog, db, engine=engine, functions=_IDENT)
                .run(start=start.copy())
                .instance
            )

        want = run("interpreted")
        for engine in ENGINES:
            assert run(engine) == want, engine
        # Planted: without the canonical pass on the start the codegen
        # leaf hands the int bags through.
        self._plant_identity_pass(monkeypatch, db.pops)
        assert run("codegen") != want

    def test_planted_identity_pass_changes_the_fingerprint(self, monkeypatch):
        pops = TropicalPSemiring(2)
        relations = {"E": {("a", "b"): (3, INF, INF)}}
        db = Database(pops=pops, relations=relations)
        assert repr(db.value("E", ("a", "b"))) == "(3.0, inf, inf)"
        prog = programs.apsp()
        want = fingerprint(solve(prog, db, engine="interpreted").instance)
        assert fingerprint(solve(prog, db, engine="codegen").instance) == want
        self._plant_identity_pass(monkeypatch, pops)
        db = Database(pops=pops, relations=relations)
        planted = fingerprint(solve(prog, db, engine="codegen").instance)
        assert planted != want

    @pytest.mark.parametrize("weight", [float, int])
    def test_solve_bags_kernel_drops_the_leading_one(self, weight):
        """The drop needs no check of the data: int weights enter as
        floats."""
        pops = TropicalPSemiring(2)
        edges = {(f"n{i}", f"n{(i + 1) % 5}"): weight(i + 1) for i in range(5)}
        db = Database(
            pops=pops,
            relations={"E": {k: pops.singleton(w) for k, w in edges.items()}},
        )
        evaluator = NaiveEvaluator(programs.apsp(), db, engine="codegen")
        for plan in (0, 1):  # T :- E | T * E
            source = evaluator.kernel(plan).source
            folds = [
                line.strip() for line in source.splitlines()
                if line.strip().startswith("_acc =")
            ]
            assert folds and not any("one" in line for line in folds), source

    def test_trop_kernel_is_native(self):
        db = _mixed_db("trop", 1)
        source = NaiveEvaluator(programs.apsp(), db, engine="codegen").kernel(
            1
        ).source
        assert "_mul(" not in source and "_add(" not in source
        assert "_acc if _acc < _prev else _prev" in source
