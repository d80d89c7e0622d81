"""Multivariate polynomials over a POPS (Section 2.2) and systems thereof.

A grounded datalog° program is a tuple of polynomials
``x_i :- f_i(x₁, …, x_N)`` over the POPS (Eq. 27); its semantics is the
least fixpoint of the vector-valued function ``f = (f₁, …, f_N)``.

The POPS subtlety (Section 2.2) is honoured throughout: a monomial can
**never** be dropped by zeroing its coefficient, because ``0`` need not
absorb (``0 ⊗ ⊥ = ⊥`` in lifted POPS).  Monomial lists are therefore
explicit; helpers that simplify only do so when the structure's flags
make it sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from ..fixpoint.iteration import FixpointResult, kleene_fixpoint
from ..semirings.base import POPS, PreSemiring, Value

VarId = Hashable
Assignment = Dict[VarId, Value]


@dataclass(frozen=True)
class Monomial:
    """A monomial ``c · x₁^{k₁} ⋯ x_N^{k_N}`` (Eq. 8).

    Attributes:
        coeff: The coefficient ``c ∈ P``.
        powers: Sorted tuple of ``(variable, exponent)`` pairs with
            positive exponents.
    """

    coeff: Value
    powers: Tuple[Tuple[VarId, int], ...] = ()

    @staticmethod
    def make(coeff: Value, powers: Mapping[VarId, int] | Iterable[Tuple[VarId, int]] = ()) -> "Monomial":
        """Normalize a power map into a canonical monomial."""
        if isinstance(powers, Mapping):
            items = powers.items()
        else:
            items = list(powers)
        merged: Dict[VarId, int] = {}
        for v, k in items:
            if k < 0:
                raise ValueError("negative exponent")
            if k:
                merged[v] = merged.get(v, 0) + k
        return Monomial(coeff, tuple(sorted(merged.items(), key=lambda kv: repr(kv[0]))))

    def degree(self) -> int:
        """Total degree ``Σ kᵢ`` (Eq. 8)."""
        return sum(k for _, k in self.powers)

    def variables(self) -> Tuple[VarId, ...]:
        """Variables with positive exponent."""
        return tuple(v for v, _ in self.powers)

    def evaluate(self, structure: PreSemiring, assignment: Assignment, default: Value) -> Value:
        """Evaluate under an assignment; unbound variables read ``default``."""
        acc = self.coeff
        for v, k in self.powers:
            val = assignment.get(v, default)
            acc = structure.mul(acc, structure.power(val, k))
        return acc

    def scale(self, structure: PreSemiring, factor: Value) -> "Monomial":
        """Return the monomial with coefficient ``factor ⊗ c``."""
        return Monomial(structure.mul(factor, self.coeff), self.powers)

    def __str__(self) -> str:
        parts = [repr(self.coeff)]
        for v, k in self.powers:
            parts.append(f"{v}^{k}" if k > 1 else f"{v}")
        return "·".join(parts)


@dataclass(frozen=True)
class Polynomial:
    """A sum of monomials (Eq. 9); the empty sum denotes ``0``."""

    monomials: Tuple[Monomial, ...] = ()

    @staticmethod
    def make(monomials: Iterable[Monomial]) -> "Polynomial":
        return Polynomial(tuple(monomials))

    @staticmethod
    def constant(value: Value) -> "Polynomial":
        """The constant polynomial ``value`` (one degree-0 monomial)."""
        return Polynomial((Monomial(value),))

    def evaluate(self, structure: PreSemiring, assignment: Assignment, default: Value) -> Value:
        """Evaluate; the empty polynomial yields ``0`` (the ⊕-unit)."""
        return structure.add_many(
            m.evaluate(structure, assignment, default) for m in self.monomials
        )

    def degree(self) -> int:
        """Max total degree over monomials (0 for the empty polynomial)."""
        return max((m.degree() for m in self.monomials), default=0)

    def is_linear(self) -> bool:
        """Whether every monomial has total degree ≤ 1."""
        return self.degree() <= 1

    def variables(self) -> Tuple[VarId, ...]:
        """All variables occurring with positive exponent, deduplicated."""
        seen: Dict[VarId, None] = {}
        for m in self.monomials:
            for v in m.variables():
                seen.setdefault(v, None)
        return tuple(seen)

    def plus(self, other: "Polynomial") -> "Polynomial":
        """Formal sum (monomial-list concatenation)."""
        return Polynomial(self.monomials + other.monomials)

    def combine_like_terms(self, structure: PreSemiring) -> "Polynomial":
        """Merge monomials with identical power vectors by ``⊕`` of coeffs.

        Always semantics-preserving (it only reassociates the sum), and
        keeps grounded systems compact.
        """
        grouped: Dict[Tuple[Tuple[VarId, int], ...], Value] = {}
        order: List[Tuple[Tuple[VarId, int], ...]] = []
        for m in self.monomials:
            if m.powers in grouped:
                grouped[m.powers] = structure.add(grouped[m.powers], m.coeff)
            else:
                grouped[m.powers] = m.coeff
                order.append(m.powers)
        return Polynomial(tuple(Monomial(grouped[p], p) for p in order))

    def drop_absorbed_zeros(self, structure: PreSemiring) -> "Polynomial":
        """Drop zero-coefficient monomials — **only** sound in a semiring.

        In a semiring, ``0 ⊗ x = 0`` and ``0`` is ⊕-neutral, so such
        monomials contribute nothing.  Raises otherwise (Section 2.2's
        warning about the lifted reals).
        """
        if not structure.caps.absorbing_zero:
            raise ValueError(
                f"cannot drop 0-coefficient monomials over {structure.name}: "
                "0 is not absorbing"
            )
        kept = tuple(
            m for m in self.monomials if not structure.eq(m.coeff, structure.zero)
        )
        return Polynomial(kept)

    def substitute(self, structure: PreSemiring, variable: VarId, replacement: "Polynomial") -> "Polynomial":
        """Return ``self[replacement / variable]`` by formal expansion."""
        out: List[Monomial] = []
        for m in self.monomials:
            exponent = dict(m.powers).get(variable, 0)
            if exponent == 0:
                out.append(m)
                continue
            rest = tuple((v, k) for v, k in m.powers if v != variable)
            expansion: List[Monomial] = [Monomial(m.coeff, rest)]
            for _ in range(exponent):
                expansion = [
                    Monomial.make(
                        structure.mul(e.coeff, r.coeff),
                        list(e.powers) + list(r.powers),
                    )
                    for e in expansion
                    for r in replacement.monomials
                ]
            out.extend(expansion)
        return Polynomial(tuple(out))

    def __str__(self) -> str:
        return " + ".join(map(str, self.monomials)) or "0"


@dataclass
class PolynomialSystem:
    """A grounded program: one polynomial per IDB variable (Eq. 27).

    Attributes:
        pops: The value space.
        polynomials: ``{var: polynomial}`` — the vector function ``f``.
        order: Variable evaluation order (stable across runs).
    """

    pops: POPS
    polynomials: Dict[VarId, Polynomial]
    order: List[VarId] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.order:
            self.order = list(self.polynomials)

    # ------------------------------------------------------------------
    def bottom_assignment(self) -> Assignment:
        """The all-``⊥`` start state of the naïve algorithm."""
        return {v: self.pops.bottom for v in self.order}

    def apply(self, assignment: Assignment) -> Assignment:
        """One ICO application: evaluate every polynomial jointly."""
        return {
            v: self.polynomials[v].evaluate(self.pops, assignment, self.pops.bottom)
            for v in self.order
        }

    def eq_assignment(self, a: Assignment, b: Assignment) -> bool:
        """Pointwise equality of assignments."""
        return all(self.pops.eq(a[v], b[v]) for v in self.order)

    def kleene(
        self, max_steps: int = 100_000, capture_trace: bool = False
    ) -> FixpointResult[Assignment]:
        """Run the naïve algorithm on the grounded system (Algorithm 1)."""
        return kleene_fixpoint(
            self.apply,
            self.bottom_assignment(),
            self.eq_assignment,
            max_steps=max_steps,
            capture_trace=capture_trace,
        )

    def is_linear(self) -> bool:
        """Whether every polynomial is linear (degree ≤ 1)."""
        return all(p.is_linear() for p in self.polynomials.values())

    def dependency_edges(self) -> Iterable[Tuple[VarId, VarId]]:
        """Yield edges ``x_i → x_j`` when ``f_j`` depends on ``x_i`` (§5.4)."""
        for target, poly in self.polynomials.items():
            for v in poly.variables():
                yield (v, target)

    def size(self) -> int:
        """Total number of monomials across the system."""
        return sum(len(p.monomials) for p in self.polynomials.values())
