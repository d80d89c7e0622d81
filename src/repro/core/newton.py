"""Newton's method for polynomial fixpoints over idempotent semirings.

The paper (Sections 1 and 8) contrasts the naïve/Kleene iteration it
studies with the second-order **Newton's method** of Esparza, Kiefer &
Luttenberger and Hopkins & Kozen: linearize ``f`` at the current
iterate and jump to the least fixpoint of the linearization::

    ν⁽⁰⁾ = f(0)
    ν⁽ⁱ⁺¹⁾ = ν⁽ⁱ⁾ ⊕ (Df|_{ν⁽ⁱ⁾})* ⊗ f(ν⁽ⁱ⁾)

where ``Df`` is the formal Jacobian and ``(·)*`` the matrix Kleene
closure — itself an algebraic-path problem, solved here by the
Floyd–Warshall–Kleene solver of :mod:`repro.semirings.matrix`.  Over a
commutative *idempotent* semiring the difference ``f(ν) ⊖ ν`` in the
textbook update can be replaced by ``f(ν)`` (adding already-known terms
is absorbed), which is the form implemented.

For commutative idempotent ω-continuous semirings Newton's method
converges within ``N`` outer iterations — typically far fewer than
Kleene — but each step pays an ``O(N³)`` closure: exactly the
trade-off the paper describes ("every step is more expensive, and
requires the materialization of … the Hessian"; experiment E17
measures it).

Formal derivative over an idempotent semiring: for a monomial
``c·x₁^{k₁}⋯`` the partial w.r.t. ``x_j`` (when ``k_j ≥ 1``) is
``k_j · c · x_j^{k_j−1} ∏_{i≠j} x_i^{k_i}``; idempotency collapses the
natural multiple ``k_j·`` to a single copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..fixpoint.iteration import DivergenceError
from ..semirings.base import POPS, Value
from ..semirings.matrix import KleeneClosure, mat_vec
from .polynomial import Assignment, Polynomial, PolynomialSystem, VarId


class NewtonError(ValueError):
    """Raised when the value space does not support Newton's method."""


def partial_derivative(
    structure: POPS, poly: Polynomial, var: VarId, at: Assignment
) -> Value:
    """Evaluate ``∂poly/∂var`` at the point ``at`` (idempotent ⊕).

    Works monomial-by-monomial; the empty sum is ``0``.
    """
    total = structure.zero
    for mono in poly.monomials:
        powers = dict(mono.powers)
        k = powers.get(var, 0)
        if k == 0:
            continue
        acc = mono.coeff
        for v, e in mono.powers:
            exponent = e - 1 if v == var else e
            acc = structure.mul(
                acc, structure.power(at.get(v, structure.bottom), exponent)
            )
        # idempotency: k·acc = acc.
        total = structure.add(total, acc)
    return total


def jacobian(
    system: PolynomialSystem, at: Assignment
) -> List[List[Value]]:
    """The Jacobian matrix ``J[i][j] = ∂f_i/∂x_j`` evaluated at ``at``."""
    structure = system.pops
    order = system.order
    return [
        [
            partial_derivative(structure, system.polynomials[fi], xj, at)
            for xj in order
        ]
        for fi in order
    ]


@dataclass
class NewtonResult:
    """Outcome of a Newton run, with per-step bookkeeping for E17."""

    value: Assignment
    iterations: int
    closure_calls: int
    trace: List[Assignment] = field(default_factory=list)


def newton_fixpoint(
    system: PolynomialSystem,
    stability_p: int = 0,
    max_iterations: int = 10_000,
    capture_trace: bool = False,
) -> NewtonResult:
    """Run Newton's method on a grounded system.

    Args:
        system: Polynomial system over an **idempotent** commutative
            semiring (probed by ``pops.caps``; B, Trop+, bottleneck,
            Viterbi, Trop+_≤η all qualify).
        stability_p: Uniform stability index used for the scalar star
            ``a* = a^(p)`` inside the matrix closure.
        max_iterations: Outer-iteration guard.
        capture_trace: Record the ν⁽ⁱ⁾ sequence.

    Returns:
        The least fixpoint (identical to Kleene's, differentially
        tested) plus iteration counts.
    """
    pops = system.pops
    if not pops.caps.idempotent_add:
        raise NewtonError(
            f"{pops.name} is not idempotent; this Newton implementation "
            "requires an idempotent ⊕ (Section 8 discussion)"
        )
    order = system.order
    solver = KleeneClosure(structure=pops, stability_p=stability_p)

    current: Assignment = {
        v: system.polynomials[v].evaluate(pops, {}, pops.bottom)
        for v in order
    }
    trace: List[Assignment] = [dict(current)] if capture_trace else []
    closure_calls = 0
    for iteration in range(1, max_iterations + 1):
        f_val = [
            system.polynomials[v].evaluate(pops, current, pops.bottom)
            for v in order
        ]
        jac = jacobian(system, current)
        closed = solver.closure(jac)
        closure_calls += 1
        delta = mat_vec(pops, closed, f_val)
        nxt = {
            v: pops.add(current[v], d) for v, d in zip(order, delta)
        }
        if capture_trace:
            trace.append(dict(nxt))
        if all(pops.eq(nxt[v], current[v]) for v in order):
            return NewtonResult(
                value=current,
                iterations=iteration,
                closure_calls=closure_calls,
                trace=trace,
            )
        current = nxt
    raise DivergenceError(
        f"Newton's method did not converge within {max_iterations} iterations"
    )
