"""Fitting's three-valued semantics as datalog° over THREE (Section 7.2).

Interpreting a datalog¬ program over the POPS ``THREE`` — Kleene's
three-valued ∨/∧ as (⊕, ⊗), the knowledge order as ⊑, and the monotone
function ``not`` (0↦1, 1↦0, ⊥↦⊥) — turns its ICO into a
``≤_k``-monotone map whose least fixpoint is Fitting's Kripke–Kleene
model.  When that model is total on the atoms of interest it coincides
with the well-founded model (the win-move example is such a case; the
one-rule program ``P(a) :- P(a)`` of Section 7.3 is not).

Two implementations are provided and cross-checked by the tests:

* :func:`fitting_fixpoint` — a direct ground-level Kleene iteration of
  the three-valued ICO over a
  :class:`~repro.negation.wellfounded.GroundNormalProgram`;
* :func:`win_move_datalogo` — the same semantics obtained by running
  the *generic datalog° engine* (``solve()``) over ``THREE`` with a ``not``
  interpreted function (the paper's formulation), including the ``FOUR``
  variant showing ``⊤`` never appears (Section 7.3).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

from ..core.ast import terms
from ..core.instance import Database
from ..core.engine import solve
from ..core.naive import EvaluationResult
from ..core.rules import FuncFactor, Program, RelAtom, Rule, SumProduct
from ..fixpoint.iteration import kleene_fixpoint
from ..semirings.base import FunctionRegistry, Value
from ..semirings.lifted import BOTTOM
from ..semirings.three import FOUR, THREE, four_not, three_not
from .wellfounded import Atom, GroundNormalProgram, WellFoundedModel

ThreeValue = Value  # one of {BOTTOM, False, True}


def fitting_operator(
    program: GroundNormalProgram, state: Dict[Atom, ThreeValue]
) -> Dict[Atom, ThreeValue]:
    """One application of Fitting's three-valued ICO.

    ``Φ(J)(a) = ∨_{rules for a} ( ∧ positives ∧ ∧ not(negatives) )``
    with Kleene's ∨/∧; atoms with no rule evaluate to the empty
    disjunction, i.e. ``0`` (false) — matching the datalog° reading
    where the empty ⊕-sum is the semiring ``0``.
    """
    out: Dict[Atom, ThreeValue] = {a: False for a in program.atoms}
    by_head: Dict[Atom, List] = {}
    for rule in program.rules:
        by_head.setdefault(rule.head, []).append(rule)
    for atom in program.atoms:
        value: ThreeValue = False
        for rule in by_head.get(atom, ()):  # empty ⊕ = 0
            body: ThreeValue = True
            for p in rule.positive:
                body = THREE.mul(body, state.get(p, BOTTOM))
            for n in rule.negative:
                body = THREE.mul(body, three_not(state.get(n, BOTTOM)))
            value = THREE.add(value, body)
        out[atom] = value
    return out


def fitting_fixpoint(
    program: GroundNormalProgram,
    max_steps: int = 10_000,
    capture_trace: bool = False,
):
    """Kleene-iterate the Fitting operator from the all-⊥ state.

    Monotone w.r.t. the knowledge order, so by Theorem 1.2 over the POPS
    ``THREE`` (whose core ``{⊥, 1} ≅ B`` is 0-stable) it converges in at
    most ``N`` steps.
    """
    bottom = {a: BOTTOM for a in program.atoms}

    def eq(x: Dict[Atom, ThreeValue], y: Dict[Atom, ThreeValue]) -> bool:
        return all(THREE.eq(x[a], y[a]) for a in program.atoms)

    return kleene_fixpoint(
        lambda s: fitting_operator(program, s),
        bottom,
        eq,
        max_steps=max_steps,
        capture_trace=capture_trace,
    )


def agrees_with_well_founded(
    fitting_state: Dict[Atom, ThreeValue], wf: WellFoundedModel
) -> bool:
    """Check Fitting ≤_k well-founded: defined atoms must agree.

    Fitting's model is always knowledge-below the well-founded model;
    they coincide when Fitting leaves nothing defined that WF defines
    differently — on win-move they are equal (Section 7.2).
    """
    for atom, value in fitting_state.items():
        if value is BOTTOM:
            continue
        expected = wf.value(atom)
        if value is True and expected != "true":
            return False
        if value is False and expected != "false":
            return False
    return True


# ---------------------------------------------------------------------------
# datalog° formulation over THREE / FOUR
# ---------------------------------------------------------------------------


def win_move_datalogo(
    edges: Iterable[Tuple[Hashable, Hashable]],
    use_four: bool = False,
    capture_trace: bool = False,
) -> EvaluationResult:
    """Run ``Win(x) :- ⊕_y E(x, y) ∧ not(Win(y))`` over THREE (or FOUR).

    ``E`` is a Boolean EDB embedded via ``{0, 1}``; ``not`` is the
    knowledge-monotone negation.  The least fixpoint reproduces the
    table of Section 7.2, and over FOUR the value ``⊤`` never occurs
    (Fitting's Proposition 7.1, checked by the tests).
    """
    pops = FOUR if use_four else THREE
    registry = FunctionRegistry()
    registry.register("not", four_not if use_four else three_not)
    rule = Rule(
        "Win",
        terms(["X"]),
        (
            SumProduct(
                (
                    RelAtom("E", terms(["X", "Y"])),
                    FuncFactor("not", (RelAtom("Win", terms(["Y"])),)),
                )
            ),
        ),
    )
    program = Program(rules=[rule], bool_edbs={"E": 2})
    database = Database(
        pops=pops,
        bool_relations={"E": set(map(tuple, edges))},
    )
    return solve(
        program,
        database,
        method="naive",
        functions=registry,
        capture_trace=capture_trace,
    )
