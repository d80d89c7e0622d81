"""E23 — join-core condition pushdown and value-carrying probes.

Quantifies the three layers added on top of indexed join planning:

* **Condition pushdown** on non-naturally-ordered POPS (THREE,
  ``R⊥``), where no relation guard is sound and the seed enumerated
  the full ``domain^|V|`` product with ``Φ`` checked at the leaves:
  equality conjuncts become direct bindings and comparison conjuncts
  prune partial products, cutting ``fallback_candidates`` ≥5×.
* **Indicator extraction** over semirings (SSSP's ``[x = source]``
  bracket): the false branch is the absorbing ``0``, so the bracket's
  condition is pushable and binds the source variable outright.
* **Value-carrying probes**: on fully guarded tropical workloads every
  factor value rides its index probe — ``FactorEvaluator`` performs
  zero secondary hash lookups (``factor_lookups == 0``).

All measurements assert byte-identical fixpoints against the untouched
``plan="naive"`` baseline and feed ``--counters`` (see
``benchmarks/conftest.py``) for the CI counter gate.
"""

from __future__ import annotations

from conftest import emit_table, sized

from repro import core, programs, semirings, workloads
from repro.core.ast import Compare, terms, var
from repro.core.rules import Program, RelAtom, Rule, SumProduct


def conditional_pops_program() -> Program:
    """A body whose relations cannot guard over ⊥-distinguishing POPS::

        T(x) :- ⊕_{y,z} { A(x) ⊗ B(y) ⊗ C(z) | y = x ∧ z ≠ x }

    Over THREE or ``R⊥`` the A/B/C atoms are ineligible as guards
    (⊥ ≠ 0), so the seed enumerates ``domain³`` candidates per
    iteration; pushdown binds ``y`` from the equality and prunes on
    ``z ≠ x`` as soon as ``z`` binds.
    """
    rule = Rule(
        "T",
        terms(["X"]),
        (
            SumProduct(
                (
                    RelAtom("A", terms(["X"])),
                    RelAtom("B", terms(["Y"])),
                    RelAtom("C", terms(["Z"])),
                ),
                condition=Compare("==", var("Y"), var("X"))
                & Compare("!=", var("Z"), var("X")),
            ),
        ),
    )
    return Program(rules=[rule], edbs={"A": 1, "B": 1, "C": 1})


def _pops_db(pops, n, value):
    keys = [(f"k{i}",) for i in range(n)]
    return core.Database(
        pops=pops,
        relations={name: {k: value for k in keys} for name in ("A", "B", "C")},
    )


def _compare_plans(prog, db, method="naive", **kwargs):
    indexed = core.solve(prog, db, method=method, plan="indexed", **kwargs)
    naive = core.solve(prog, db, method=method, plan="naive", **kwargs)
    assert indexed.instance.equals(naive.instance)
    return indexed, naive


def test_e23_pushdown_three_and_lifted(benchmark, quick, counters):
    """Fallback-product work on ⊥-distinguishing POPS, seed vs pushdown."""
    n = sized(quick, 12, 6)
    prog = conditional_pops_program()

    def run_all():
        rows = []
        for label, pops, value in (
            ("THREE", semirings.THREE, True),
            ("R⊥", semirings.LIFTED_REAL, 1.0),
        ):
            db = _pops_db(pops, n, value)
            indexed = core.solve(prog, db, plan="indexed")
            naive = core.solve(prog, db, plan="naive")
            counters.record(f"e23/conditional-{label}/indexed", indexed.stats)
            counters.record(f"e23/conditional-{label}/naive", naive.stats)
            assert indexed.instance.equals(naive.instance)
            rows.append(
                (
                    f"{label} / dom({n})",
                    naive.stats["fallback_candidates"],
                    indexed.stats["fallback_candidates"],
                    indexed.stats["equality_bindings"],
                    indexed.stats["pushdown_prunes"],
                )
            )
        return rows

    rows = benchmark(run_all)
    emit_table(
        "E23: fallback candidates, seed leaf-check vs condition pushdown",
        ("workload", "seed", "pushdown", "eq-bindings", "prunes"),
        rows,
    )
    for _label, seed_ops, pushed_ops, eq_bindings, _prunes in rows:
        assert pushed_ops * 5 <= seed_ops
        assert eq_bindings > 0


def test_e23_sssp_indicator_extraction(benchmark, quick, counters):
    """SSSP's ``[x = source]`` bracket binds the source directly."""
    n = sized(quick, 28, 12)
    edges = workloads.line_edges(n)
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})

    def run_all():
        rows = []
        for method in ("naive", "seminaive"):
            indexed = core.solve(
                programs.sssp(0), db, method=method, plan="indexed"
            )
            counters.record(f"e23/sssp-line({n})-{method}/indexed", indexed.stats)
            seed = core.solve(programs.sssp(0), db, method=method, plan="naive")
            assert indexed.instance.equals(seed.instance)
            rows.append(
                (
                    method,
                    seed.stats["fallback_candidates"],
                    indexed.stats["fallback_candidates"],
                    indexed.stats["factor_lookups"],
                    indexed.stats["value_probe_hits"],
                )
            )
        return rows

    rows = benchmark(run_all)
    emit_table(
        f"E23: SSSP line({n}) indicator pushdown + value probes",
        ("engine", "seed fallback", "indexed fallback", "2nd lookups", "value probes"),
        rows,
    )
    for _method, seed_fb, indexed_fb, lookups, probe_hits in rows:
        assert seed_fb >= 5  # the seed really did enumerate the domain
        assert indexed_fb * 5 <= seed_fb
        # Every factor value rode a probe: zero secondary hash lookups.
        assert lookups == 0
        assert probe_hits > 0


def test_e23_apsp_zero_secondary_lookups(benchmark, quick, counters):
    """Fully guarded tropical APSP: factor evaluation rides the probes."""
    n = sized(quick, 5, 3)
    edges = workloads.grid_edges(n, n)
    db = core.Database(pops=semirings.TROP, relations={"E": dict(edges)})

    result = benchmark(lambda: core.solve(programs.apsp(), db, plan="indexed"))
    counters.record(f"e23/apsp-grid({n}x{n})/indexed", result.stats)
    seed = core.solve(programs.apsp(), db, plan="naive")
    assert result.instance.equals(seed.instance)
    assert result.stats["factor_lookups"] == 0
    assert result.stats["value_probe_hits"] > 0
    assert result.stats["fallback_candidates"] == 0


def test_e23_adaptive_estimates_rank_masks(benchmark):
    """Observed probe hit rates refine the planner's selectivity guess."""
    from repro.core.indexes import KeyIndex

    def run():
        index = KeyIndex([(i % 3, i) for i in range(30)])
        static = index.estimate((0,))
        for probe_value in range(6):
            index.probe_entries((0,), (probe_value % 3,))
        return static, index.estimate((0,))

    static, adaptive = benchmark(run)
    # The small-index exact count already knows the 3 distinct heads of
    # 10 keys each; the observed probe hit rate then confirms it.
    assert static == 10.0
    assert adaptive == 10.0
