"""E6 — Section 7.2: win-move as datalog° over THREE.

Paper artifact: the knowledge-order trace W⁽⁰⁾…W⁽⁴⁾ = W⁽⁵⁾ on Fig. 4,
whose least fixpoint equals the well-founded model; plus the FOUR
variant in which ⊤ provably never occurs (§7.3).
"""

from __future__ import annotations

from conftest import emit_table

from repro import negation, workloads
from repro.semirings import BOTTOM

PAPER_ROWS = [
    ("W(0)", "⊥", "⊥", "⊥", "⊥", "⊥", "⊥"),
    ("W(1)", "⊥", "⊥", "⊥", "⊥", "⊥", "0"),
    ("W(2)", "⊥", "⊥", "⊥", "⊥", "1", "0"),
    ("W(3)", "⊥", "⊥", "⊥", "0", "1", "0"),
    ("W(4)", "⊥", "⊥", "1", "0", "1", "0"),
    ("W(5)", "⊥", "⊥", "1", "0", "1", "0"),
]


def _fmt(v):
    if v is BOTTOM:
        return "⊥"
    return "1" if v else "0"


def test_e06_three_valued_trace(benchmark, counters):
    result = benchmark(
        lambda: negation.win_move_datalogo(
            workloads.fig_4_edges(), capture_trace=True
        )
    )
    counters.record("e06/winmove-fig4-THREE", result.stats)
    measured = [
        (f"W({t})",) + tuple(_fmt(snap.get("Win", (n,))) for n in "abcdef")
        for t, snap in enumerate(result.trace)
    ]
    emit_table(
        "E6: §7.2 datalog° over THREE (paper == measured)",
        ("iter", "W(a)", "W(b)", "W(c)", "W(d)", "W(e)", "W(f)"),
        measured,
    )
    assert measured == PAPER_ROWS
    assert result.steps == 4


def test_e06_equals_well_founded(benchmark):
    edges = workloads.fig_4_edges()
    result = benchmark(lambda: negation.win_move_datalogo(edges))
    wf = negation.alternating_fixpoint(negation.win_move_program(edges))
    state = {
        ("Win", n): result.instance.get("Win", (n,)) for n in "abcdef"
    }
    assert negation.agrees_with_well_founded(state, wf)
    for n in "abcdef":
        assert (state[("Win", n)] is BOTTOM) == (
            wf.value(("Win", n)) == "undef"
        )


def test_e06_four_never_top(benchmark):
    result = benchmark(
        lambda: negation.win_move_datalogo(
            workloads.fig_4_edges(), use_four=True, capture_trace=True
        )
    )
    for snap in result.trace:
        for rel in list(snap.relations()):
            for value in snap.support(rel).values():
                assert value in (True, False) or value is BOTTOM
