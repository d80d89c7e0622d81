"""Numeric (pre-)semirings: ``N``, ``N∞``, ``R``, ``R+`` (Example 2.2).

* ``N = (ℕ, +, ×, 0, 1)`` — naturally ordered (the usual ``≤``) but *not*
  stable: the one-rule program ``x :- 1 + c·x`` diverges for ``c ≥ 1``
  (Section 5, Eq. 29).
* ``N∞ = (ℕ ∪ {∞}, +, ×)`` — a complete distributive dioid?  No: ``+`` is
  not idempotent.  It is however a naturally ordered semiring in which
  every ω-chain has a least upper bound, the home of case (ii) of the
  divergence taxonomy (Section 4.2): ``F(x) = x + 1`` has least fixpoint
  ``∞`` which the naïve algorithm never reaches.
* ``R = (ℝ, +, ×, 0, 1)`` — a semiring that is **not** naturally ordered
  (``x ⪯ y`` holds for all x, y), and by Lemma 2.8 admits *no* POPS
  extension that is a semiring.  Exposed as a plain :class:`PreSemiring`
  for use underneath the lifted reals ``R⊥``.
* ``R+ = (ℝ≥0, +, ×, 0, 1)`` — naturally ordered; the value space of the
  company-control example (Example 4.3).
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .base import NaturallyOrderedSemiring, PreSemiring, Value

INF = math.inf


class NaturalsSemiring(NaturallyOrderedSemiring):
    """``N``: the naturals under ``(+, ×)``, naturally ordered by ``≤``."""

    name = "N"
    zero = 0
    one = 1

    def add(self, a: Value, b: Value) -> Value:
        return a + b

    def mul(self, a: Value, b: Value) -> Value:
        return a * b

    def leq(self, a: Value, b: Value) -> bool:
        return a <= b

    def is_valid(self, a: Value) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and a >= 0

    def sample_values(self) -> Sequence[Value]:
        return (0, 1, 2, 3, 7)


class NaturalsWithInfinity(NaturallyOrderedSemiring):
    """``N∞``: naturals completed with ``∞``.

    ``∞`` is absorbing for ``+`` and for ``×`` against non-zero values;
    ``0 × ∞ = 0`` so that absorption of ``0`` is preserved and the
    structure remains a semiring.
    """

    name = "N∞"
    zero = 0
    one = 1

    def add(self, a: Value, b: Value) -> Value:
        if a is INF or b is INF or a == INF or b == INF:
            return INF
        return a + b

    def mul(self, a: Value, b: Value) -> Value:
        if a == 0 or b == 0:
            return 0
        if a == INF or b == INF:
            return INF
        return a * b

    def leq(self, a: Value, b: Value) -> bool:
        return a <= b

    def is_valid(self, a: Value) -> bool:
        if a == INF:
            return True
        return isinstance(a, int) and not isinstance(a, bool) and a >= 0

    def sample_values(self) -> Sequence[Value]:
        return (0, 1, 2, 5, INF)


class RealsPreSemiring(PreSemiring):
    """``R``: the field reals viewed as a (plain) semiring.

    It satisfies absorption (``x · 0 = 0``) hence ``is_semiring`` is
    true, but it carries no useful order: the natural preorder relates
    every pair.  Use :class:`repro.semirings.lifted.LiftedPOPS` to obtain
    the POPS ``R⊥`` of Example 4.2.
    """

    name = "R"
    zero = 0.0
    one = 1.0
    is_semiring = True

    def add(self, a: Value, b: Value) -> Value:
        return a + b

    def mul(self, a: Value, b: Value) -> Value:
        return a * b

    def is_valid(self, a: Value) -> bool:
        return isinstance(a, (int, float)) and not isinstance(a, bool) and math.isfinite(a)

    def sample_values(self) -> Sequence[Value]:
        return (0.0, 1.0, -2.5, 3.0, 0.5)


class NonNegativeReals(NaturallyOrderedSemiring):
    """``R+``: non-negative reals under ``(+, ×)``, ordered by ``≤``."""

    name = "R+"
    zero = 0.0
    one = 1.0
    native_ops = (operator.add, operator.mul)

    def add(self, a: Value, b: Value) -> Value:
        return a + b

    def mul(self, a: Value, b: Value) -> Value:
        return a * b

    def leq(self, a: Value, b: Value) -> bool:
        return a <= b

    def is_valid(self, a: Value) -> bool:
        return (
            isinstance(a, (int, float))
            and not isinstance(a, bool)
            and a >= 0
            and math.isfinite(a)
        )

    def sample_values(self) -> Sequence[Value]:
        return (0.0, 1.0, 0.25, 2.0, 10.0)


NAT = NaturalsSemiring()
NAT_INF = NaturalsWithInfinity()
REAL = RealsPreSemiring()
REAL_PLUS = NonNegativeReals()
