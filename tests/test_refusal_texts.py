"""Pinned refusal texts and maintenance paths, one row per value space.

Every shortcut the engine refuses names the algebraic law that failed:
the demand fragment check (idempotent ``⊕``, no zero divisors, natural
order), semi-naïve's ``⊖`` requirement (Definition 6.2), Newton's
idempotence requirement, and the maintenance path an
:class:`~repro.core.incremental.IncrementalInstance` picks.  The table
pins each text byte for byte, so moving the decision elsewhere cannot
change what a user reads.
"""

from __future__ import annotations

import pytest

from repro import programs
from repro.core import Database
from repro.core.ast import Variable
from repro.core.demand import demand_verdict
from repro.core.grounding import PolynomialSystem
from repro.core.incremental import IncrementalInstance, Mutation
from repro.core.newton import NewtonError, newton_fixpoint
from repro.core.polynomial import Monomial, Polynomial
from repro.core.rules import FuncFactor, Program, RelAtom, Rule, SumProduct
from repro.core.seminaive import SemiNaiveError, SemiNaiveEvaluator
from repro.semirings import (
    BOOL,
    BOTTLENECK,
    FOUR,
    FREE,
    LEX_NN,
    LIFTED_NAT,
    LIFTED_REAL,
    NAT,
    NAT_INF,
    REAL_PLUS,
    THREE,
    TROP,
    TROP_NAT,
    VITERBI,
    CompletedPOPS,
    PowersetPOPS,
    ProductPOPS,
    SetDioid,
    TropicalEtaSemiring,
    TropicalPSemiring,
)

NOT_NATURAL = (
    "{} is not a naturally ordered semiring "
    "(natural-preorder probe 0 ⪯ v failed)"
)
NON_IDEMPOTENT = (
    "{} has a non-idempotent ⊕ (v ⊕ v ≠ v for {}): seed/magic-rule "
    "derivations would double-count"
)
ZERO_DIVISORS = (
    "{} has zero divisors ({} ⊗ {} = 0): supp does not distribute over ⊗"
)
NO_MINUS = (
    "{} is not a complete distributive dioid; semi-naïve evaluation "
    "needs the ⊖ operator (Definition 6.2)"
)
NOT_IDEMPOTENT_NEWTON = (
    "{} is not idempotent; this Newton implementation requires an "
    "idempotent ⊕ (Section 8 discussion)"
)

#: value space -> (demand reason or None, semi-naïve refusal?, Newton
#: refusal?, incremental paths for one insert and one delete).
TABLE = [
    (BOOL, None, False, False, ("seminaive", "seminaive")),
    (TROP, None, False, False, ("seminaive", "seminaive")),
    (TROP_NAT, None, False, False, ("seminaive", "seminaive")),
    (BOTTLENECK, None, False, False, ("seminaive", "seminaive")),
    (VITERBI, None, False, False, ("seminaive", "seminaive")),
    (
        NAT,
        NON_IDEMPOTENT.format("N", "1"),
        True, True, ("warm-naive", "resolve"),
    ),
    (
        NAT_INF,
        NON_IDEMPOTENT.format("N∞", "1"),
        True, True, ("warm-naive", "resolve"),
    ),
    (
        REAL_PLUS,
        NON_IDEMPOTENT.format("R+", "1.0"),
        True, True, ("warm-naive", "resolve"),
    ),
    (
        FREE,
        NON_IDEMPOTENT.format("ℕ[·]", "(((), 1),)"),
        True, True, ("warm-naive", "resolve"),
    ),
    (LEX_NN, NOT_NATURAL.format("N×N-lex"), True, True, ("resolve", "resolve")),
    (THREE, NOT_NATURAL.format("THREE"), True, False, ("resolve", "resolve")),
    (FOUR, NOT_NATURAL.format("FOUR"), True, False, ("resolve", "resolve")),
    (
        LIFTED_REAL,
        NOT_NATURAL.format("R⊥"),
        True, True, ("resolve", "resolve"),
    ),
    (LIFTED_NAT, NOT_NATURAL.format("N⊥"), True, True, ("resolve", "resolve")),
    (
        TropicalPSemiring(2),
        NON_IDEMPOTENT.format("Trop+_2", "(0.0, inf, inf)"),
        True, True, ("warm-naive", "resolve"),
    ),
    (TropicalEtaSemiring(3.0), None, True, False, ("warm-naive", "resolve")),
    (
        ProductPOPS(BOOL, TROP),
        ZERO_DIVISORS.format("B×Trop+", "(False, 0.0)", "(True, inf)"),
        True, False, ("warm-naive", "resolve"),
    ),
    (
        CompletedPOPS(NAT),
        NOT_NATURAL.format("N⊤⊥"),
        True, True, ("resolve", "resolve"),
    ),
    (
        PowersetPOPS(NAT),
        NOT_NATURAL.format("P(N)"),
        True, True, ("resolve", "resolve"),
    ),
    (
        LIFTED_REAL.core_semiring(),
        NOT_NATURAL.format("core(R⊥)"),
        True, False, ("noop", "noop"),
    ),
    (
        SetDioid({1, 2}),
        ZERO_DIVISORS.format(
            "2^Ω(|Ω|=2)", "frozenset({1})", "frozenset({2})"
        ),
        False, False, ("seminaive", "seminaive"),
    ),
]


def _seminaive_refusal(program, pops):
    try:
        SemiNaiveEvaluator(program, Database(pops=pops))
    except SemiNaiveError as exc:
        return str(exc)
    return None


def _newton_refusal(pops):
    system = PolynomialSystem(
        pops=pops,
        polynomials={"x": Polynomial((Monomial.make(pops.one, {}),))},
        order=["x"],
    )
    try:
        newton_fixpoint(system)
    except NewtonError as exc:
        return str(exc)
    return None


def _maintenance_paths(pops):
    paths = []
    for mutation in (
        Mutation("insert", "E", ("c", "d"), pops.one),
        Mutation("delete", "E", ("a", "c"), None),
    ):
        edges = {("a", "b"): pops.one, ("b", "c"): pops.one,
                 ("a", "c"): pops.one}
        inc = IncrementalInstance(
            programs.transitive_closure(),
            Database(pops=pops, relations={"E": edges}),
        )
        paths.append(inc.apply([mutation]).path)
    return tuple(paths)


@pytest.mark.parametrize(
    "pops,demand,seminaive,newton,paths",
    TABLE,
    ids=[row[0].name for row in TABLE],
)
def test_refusal_texts(pops, demand, seminaive, newton, paths):
    reasons = demand_verdict(programs.apsp(), "T(a,?)", pops).reasons
    assert reasons == ((demand,) if demand else ())
    assert _seminaive_refusal(programs.apsp(), pops) == (
        NO_MINUS.format(pops.name) if seminaive else None
    )
    assert _newton_refusal(pops) == (
        NOT_IDEMPOTENT_NEWTON.format(pops.name) if newton else None
    )
    assert _maintenance_paths(pops) == paths


def test_affinity_refusal_text():
    """An IDB atom under an interpreted function is not affine in the
    occurrence (Theorem 6.5's premise), whatever the value space."""
    X, Y = Variable("X"), Variable("Y")
    wrapped = FuncFactor("f", (RelAtom("T", (X, Y)),))
    program = Program(
        [Rule("T", (X, Y), (SumProduct((RelAtom("E", (X, Y)),)),
                            SumProduct((wrapped,))))]
    )
    assert _seminaive_refusal(program, TROP) == (
        f"IDB atom under interpreted function breaks affinity: {wrapped}"
    )
