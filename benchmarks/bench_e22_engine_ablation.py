"""E22 (ablation) — the engine's sparse-evaluation design choices.

DESIGN.md calls out two engine decisions worth ablating:

1. **Head totalization** — over naturally ordered semirings the engine
   skips materializing every ground head atom (absent ⇔ 0); forcing
   ``total_heads=True`` recovers the formal semantics verbatim at a
   measurable cost, with identical results.
2. **Guard-driven enumeration vs grounding-first** — the rule-at-a-time
   sparse engine against the definitional grounded-system iteration
   (which materializes all provenance polynomials up front).

3. **The execution-pipeline tiers** — the interpreted (re-planned
   generator) pipeline vs the closure kernels vs the generated-source
   kernels (``engine="codegen"``), same fixpoints by construction; the
   per-engine wall times are compared side by side at full size.

All halves assert result equality, so this doubles as a semantics
check of the optimizations.
"""

from __future__ import annotations

import time

from conftest import emit_table, sized

from repro import core, programs, workloads
from repro.core import NaiveEvaluator, ground_program
from repro.semirings import TROP


def _db(n=14, p=0.18, seed=3):
    edges = workloads.random_weighted_digraph(n, p, seed=seed)
    return core.Database(pops=TROP, relations={"E": dict(edges)})


def test_e22_head_totalization_ablation(benchmark):
    db = _db()
    prog = programs.apsp()

    def run_both():
        sparse = NaiveEvaluator(prog, db, total_heads=False)
        sparse_result = sparse.run()
        total = NaiveEvaluator(prog, db, total_heads=True)
        total_result = total.run()
        assert total_result.instance.equals(sparse_result.instance)
        return (
            sparse.stats.products,
            total.stats.products,
            sparse_result.instance.size(),
        )

    sparse_products, total_products, atoms = benchmark(run_both)
    emit_table(
        "E22a: head totalization ablation (APSP, 14 nodes, Trop+)",
        ("variant", "product evals", "derived atoms"),
        [
            ("sparse heads (default)", sparse_products, atoms),
            ("total heads (formal semantics)", total_products, atoms),
        ],
    )
    # Totalization costs nothing extra in products (it only seeds
    # zeros), but the equality check confirms the semantics agree;
    # the real cost is in the accumulator size, asserted implicitly.
    assert sparse_products == total_products


def test_e22_sparse_vs_grounded_pipeline(benchmark):
    db = _db()
    prog = programs.apsp()

    def run_both():
        t0 = time.perf_counter()
        engine = core.solve(prog, db, method="naive")
        t_engine = time.perf_counter() - t0
        t0 = time.perf_counter()
        system = ground_program(prog, db)
        grounded = system.kleene()
        t_grounded = time.perf_counter() - t0
        inst = core.assignment_to_instance(system, grounded.value)
        assert inst.equals(engine.instance)
        return t_engine, t_grounded, system.size()

    t_engine, t_grounded, monomials = benchmark.pedantic(
        run_both, rounds=3, iterations=1
    )
    emit_table(
        "E22b: sparse engine vs grounding-first (APSP, 14 nodes)",
        ("pipeline", "seconds", "materialized monomials"),
        [
            ("rule-at-a-time engine", f"{t_engine:.3f}", "—"),
            ("ground + Kleene", f"{t_grounded:.3f}", monomials),
        ],
    )
    assert monomials > 0


_ENGINES = ("interpreted", "compiled", "codegen", "batched")


def test_e22_engine_pipeline_ablation(benchmark, quick, counters):
    """Interpreted vs closure vs generated-source vs batched kernels.

    One APSP workload, four execution pipelines, identical fixpoints.
    Each (method, engine) run's counters are recorded under
    ``e22/apsp(n)-{method}/{engine}``, so the counter gate watches the
    codegen records' ``codegen_kernels`` floor and the batched records'
    ``batch_joins`` floor.  At full size the generated-source kernels
    must beat the closure kernels' wall time and the batched columnar
    kernels must beat the generated-source kernels on the semi-naive
    engine (the acceptance gates); at smoke sizes the ratios are noise
    (per-solve setup amortizes over real work), so only result equality
    is asserted.
    """
    n = sized(quick, 20, 10)
    p = sized(quick, 0.22, 0.3)
    edges = workloads.random_weighted_digraph(n, p, seed=3)
    db = core.Database(pops=TROP, relations={"E": dict(edges)})
    prog = programs.apsp()

    # Warm-up: the codegen backend keeps a process-wide source → code
    # cache, so the steady state (what a long-running service sees) has
    # no compile() in the loop; one throwaway solve per (method,
    # engine) takes the measurement there.
    for method in ("naive", "seminaive"):
        for engine in _ENGINES:
            core.solve(prog, db, method=method, engine=engine)

    def run_all():
        rows = []
        for method in ("naive", "seminaive"):
            walls = {}
            results = {}
            for engine in _ENGINES:
                # Best of 3: single-shot walls are noise at these
                # sizes; the counters are deterministic either way.
                walls[engine] = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    result = core.solve(prog, db, method=method, engine=engine)
                    walls[engine] = min(
                        walls[engine], time.perf_counter() - start
                    )
                results[engine] = result
                counters.record(f"e22/apsp({n})-{method}/{engine}", result.stats)
            assert results["codegen"].instance.equals(
                results["interpreted"].instance
            )
            assert results["compiled"].instance.equals(
                results["interpreted"].instance
            )
            assert results["batched"].instance.equals(
                results["interpreted"].instance
            )
            assert results["codegen"].stats["codegen_kernels"] > 0
            assert results["compiled"].stats["codegen_kernels"] == 0
            assert results["batched"].stats["batch_joins"] > 0
            assert results["batched"].stats["batch_rows"] > 0
            rows.append(
                (
                    method,
                    f"{walls['interpreted'] * 1000:.2f}",
                    f"{walls['compiled'] * 1000:.2f}",
                    f"{walls['codegen'] * 1000:.2f}",
                    f"{walls['batched'] * 1000:.2f}",
                    round(walls["compiled"] / walls["codegen"], 2),
                    round(walls["codegen"] / walls["batched"], 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=3, iterations=1)
    emit_table(
        f"E22c: engine pipelines (APSP, {n} nodes, Trop+) — wall ms",
        (
            "method", "interpreted", "closures", "codegen", "batched",
            "codegen speedup", "batched speedup",
        ),
        rows,
    )
    if not quick:
        # The codegen acceptance gate: generated-source kernels beat
        # the closure kernels on both fixpoint engines (measured
        # 1.5×/1.3× locally; asserted with CI-noise headroom).
        naive_ratio = rows[0][5]
        semi_ratio = rows[1][5]
        assert naive_ratio >= 1.2, rows
        assert semi_ratio >= 1.0, rows
        # The batched acceptance gate: the columnar whole-batch kernels
        # beat the generated-source kernels on the semi-naive engine
        # (measured 1.08×/1.2× locally for seminaive/naive; the fused
        # last-step join+reduce carries it).
        batched_semi_ratio = rows[1][6]
        assert batched_semi_ratio >= 1.0, rows
