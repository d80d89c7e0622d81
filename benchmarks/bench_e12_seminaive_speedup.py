"""E12 — Section 6: semi-naïve vs naïve evaluation.

Paper artifact: the qualitative claim that semi-naïve avoids
re-deriving old facts ("only those tuples need to be processed at step
t where the value has strictly decreased"), made quantitative: we
measure product-evaluation counts and wall time for both engines on the
paper's two flagship recursions (transitive closure, Example 6.6's
quadratic variant, and tropical SSSP/APSP) across workload shapes, and
assert identical fixpoints plus a real work reduction.
"""

from __future__ import annotations

from conftest import emit_table, sized

from repro import core, programs, semirings, workloads


def compare(prog, db):
    naive = core.solve(prog, db, method="naive")
    semi = core.solve(prog, db, method="seminaive")
    assert semi.instance.equals(naive.instance)
    return naive.stats["products"], semi.stats["products"]


def test_e12_work_ratio_table(benchmark, quick):
    line_n = sized(quick, 28, 12)
    grid_n = sized(quick, 4, 3)
    dag_n = sized(quick, 16, 8)
    dag2_n = sized(quick, 12, 8)

    def run_all():
        rows = []
        # Long path: worst case for naïve (many iterations).
        edges = workloads.line_edges(line_n)
        db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})
        n_, s_ = compare(programs.sssp(0), db)
        rows.append((f"SSSP / line({line_n}) / Trop+", n_, s_, round(n_ / s_, 1)))

        # Grid APSP over Trop+.
        edges = workloads.grid_edges(grid_n, grid_n)
        db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})
        n_, s_ = compare(programs.apsp(), db)
        rows.append(
            (f"APSP / grid({grid_n}×{grid_n}) / Trop+", n_, s_, round(n_ / s_, 1))
        )

        # Boolean TC on a random DAG.
        dag = workloads.random_dag(dag_n, 0.15, seed=6)
        db = core.Database(
            pops=semirings.BOOL, relations={"E": {e: True for e in dag}}
        )
        n_, s_ = compare(programs.transitive_closure(), db)
        rows.append((f"TC / dag({dag_n}) / B", n_, s_, round(n_ / s_, 1)))

        # Quadratic TC (Example 6.6) — two delta variants per body.
        dag = workloads.random_dag(dag2_n, 0.2, seed=8)
        db = core.Database(
            pops=semirings.BOOL, relations={"E": {e: True for e in dag}}
        )
        n_, s_ = compare(programs.quadratic_transitive_closure(), db)
        rows.append(
            (f"TC² / dag({dag2_n}) / B (Ex. 6.6)", n_, s_, round(n_ / s_, 1))
        )
        return rows

    rows = benchmark(run_all)
    emit_table(
        "E12: naïve vs semi-naïve product evaluations",
        ("workload", "naïve", "semi-naïve", "ratio"),
        rows,
    )
    # Semi-naïve must win clearly on the iteration-heavy workloads.
    assert rows[0][3] >= 3.0   # the long line
    for _, n_, s_, _r in rows:
        assert s_ <= n_ * 1.6  # and never catastrophically lose


def test_e12_indexed_join_core_vs_seed(benchmark, quick, counters):
    """Indexed planning vs the seed's scan join, on E12's largest size.

    ``keys_examined`` counts every candidate key the join core touched
    (scans + probes + fallback).  The indexed planner must cut it by
    ≥5× for both engines on the full-size workload, with identical
    fixpoints (the differential gate).
    """
    n = sized(quick, 28, 12)
    edges = workloads.line_edges(n)
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})

    def run_all():
        rows = []
        for method in ("naive", "seminaive"):
            indexed = core.solve(
                programs.sssp(0), db, method=method, plan="indexed"
            )
            counters.record(f"e12/sssp-line({n})-{method}/indexed", indexed.stats)
            codegen = core.solve(
                programs.sssp(0), db, method=method, engine="codegen"
            )
            counters.record(f"e12/sssp-line({n})-{method}/codegen", codegen.stats)
            seed = core.solve(programs.sssp(0), db, method=method, plan="naive")
            assert indexed.instance.equals(seed.instance)
            assert codegen.instance.equals(seed.instance)
            s_ops = seed.stats["keys_examined"]
            i_ops = indexed.stats["keys_examined"]
            rows.append((method, s_ops, i_ops, round(s_ops / i_ops, 1)))
        return rows

    rows = benchmark(run_all)
    emit_table(
        f"E12: join-core ops, seed scan join vs indexed plan (line({n}))",
        ("engine", "seed ops", "indexed ops", "ratio"),
        rows,
    )
    floor = 3.0 if quick else 5.0
    for _method, _s, _i, ratio in rows:
        assert ratio >= floor


def test_e12_naive_runtime(benchmark, quick):
    edges = workloads.line_edges(sized(quick, 28, 12))
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})
    benchmark(lambda: core.solve(programs.sssp(0), db, method="naive"))


def test_e12_seminaive_runtime(benchmark, quick):
    edges = workloads.line_edges(sized(quick, 28, 12))
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})
    benchmark(lambda: core.solve(programs.sssp(0), db, method="seminaive"))


def test_e12_scheduled_strata(benchmark, quick, counters):
    """SCC scheduling vs the monolithic fixpoint on layered SSSP.

    The layered program condenses into source → distance → output
    strata; scheduled evaluation applies the two non-recursive strata
    exactly once (they leave the fixpoint loop entirely), so total
    rule applications drop strictly below the monolithic count for
    both engines, with identical fixpoints.
    """
    n = sized(quick, 28, 12)
    prog = programs.layered_sssp(0)
    edges = workloads.line_edges(n)
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})

    def run_all():
        rows = []
        for method in ("naive", "seminaive"):
            scc = core.solve(prog, db, method=method, schedule="scc")
            counters.record(f"e12/layered-line({n})-{method}/scc", scc.stats)
            mono = core.solve(prog, db, method=method, schedule="monolithic")
            assert scc.instance.equals(mono.instance)
            rows.append(
                (
                    method,
                    mono.stats["rule_applications"],
                    scc.stats["rule_applications"],
                    mono.stats["iterations"],
                    scc.stats["iterations"],
                )
            )
        return rows

    rows = benchmark(run_all)
    emit_table(
        f"E12: rule applications, monolithic vs SCC-scheduled (line({n}))",
        ("engine", "mono apps", "scc apps", "mono iters", "scc iters"),
        rows,
    )
    for _method, mono_apps, scc_apps, _mi, _si in rows:
        # The acceptance gate: strictly fewer rule applications — the
        # non-recursive strata apply exactly once per run.
        assert scc_apps < mono_apps


def test_e12_eq7_tropical_delta_reading(benchmark):
    """The ⊖ of Eq. (6)/(7): deltas carry only *strictly improved*
    distances, so total delta volume ≈ |V| per wavefront."""
    edges = workloads.line_edges(20)
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})

    def run():
        return core.solve(
            programs.sssp(0), db, method="seminaive", capture_trace=True
        )

    result = benchmark(run)
    assert result.instance.get("L", (19,)) == 19.0
    # The chain grows by exactly one new node per iteration.
    sizes = [snap.size() for snap in result.trace]
    growth = [b - a for a, b in zip(sizes, sizes[1:])]
    assert all(g == 1 for g in growth)
