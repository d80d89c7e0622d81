"""Tropical value spaces: ``Trop+``, ``Trop+_p`` and ``Trop+_≤η``.

* ``Trop+ = (ℝ≥0 ∪ {∞}, min, +, ∞, 0)`` (Examples 1.1 / 2.2) — the
  min-plus semiring.  It is a **0-stable** complete distributive dioid:
  ``1 ⊕ c = min(0, c) = 0``, so every datalog° program over it converges
  in at most ``N`` steps (Corollary 5.19) even though ``Trop+`` violates
  the ascending-chain condition (``1 > 1/2 > 1/3 > …``).  Its ``⊖`` is
  Eq. (6): ``v ⊖ u = v`` if ``v < u`` else ``∞``.

* ``Trop+_p`` (Example 2.9) — bags of ``p+1`` values in ``ℝ≥0 ∪ {∞}``,
  with ``x ⊕ y = min_p(x ⊎ y)`` and ``x ⊗ y = min_p(x + y)``.  Computes
  the ``p+1`` shortest path lengths.  It is exactly **p-stable**
  (Proposition 5.3); bags are represented as sorted ``(p+1)``-tuples.

* ``Trop+_≤η`` (Example 2.10) — finite *sets* ``X`` with
  ``max X ≤ min X + η``, with ``x ⊕ y = min_≤η(x ∪ y)``.  Computes all
  path lengths within ``η`` of the optimum.  It is stable but **not
  uniformly stable** (Proposition 5.4): the stability index of ``{a}``
  is ``⌈η/a⌉``.  Sets are represented as sorted tuples without
  duplicates.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

from .base import (
    AlgebraError,
    CompleteDistributiveDioid,
    NaturallyOrderedSemiring,
    Value,
)

INF = math.inf


def _is_length(x: Value) -> bool:
    """A path length: a non-negative int or float (``NaN`` and ``bool``
    are not)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0


class TropicalSemiring(CompleteDistributiveDioid):
    """``Trop+``: min-plus over ``ℝ≥0 ∪ {∞}``.

    The POPS order is the *reverse* numeric order (``x ⊑ y ⟺ x ≥ y``),
    so ``⊥ = 0_Trop = ∞`` and iteration improves values downward.
    """

    name = "Trop+"
    zero = INF
    one = 0.0
    native_ops = (min, operator.add)
    #: ``min(a, b)`` exactly, ties and NaN included; ``a + b``.
    native_source = ("{1} if {1} < {0} else {0}", "{0} + {1}")

    def add(self, a: Value, b: Value) -> Value:
        return min(a, b)

    def mul(self, a: Value, b: Value) -> Value:
        return a + b

    def leq(self, a: Value, b: Value) -> bool:
        return a >= b

    def minus(self, b: Value, a: Value) -> Value:
        """Eq. (6): keep ``b`` only when it strictly improves on ``a``."""
        return b if b < a else INF

    def meet(self, a: Value, b: Value) -> Value:
        """Greatest lower bound in ``⊑`` = numeric ``max``."""
        return max(a, b)

    def is_valid(self, a: Value) -> bool:
        return _is_length(a)

    def sample_values(self) -> Sequence[Value]:
        return (INF, 0.0, 1.0, 2.5, 7.0)


TROP = TropicalSemiring()


def _min_p(values: Iterable[float], p: int) -> tuple[float, ...]:
    """Return the bag of the ``p+1`` smallest elements, ∞-padded."""
    smallest = sorted(values)[: p + 1]
    if len(smallest) < p + 1:
        smallest.extend([INF] * (p + 1 - len(smallest)))
    return tuple(smallest)


class TropicalPSemiring(NaturallyOrderedSemiring):
    """``Trop+_p``: bags of the ``p+1`` smallest values (Example 2.9).

    Elements are sorted ``(p+1)``-tuples over ``ℝ≥0 ∪ {∞}``.  By the
    identities (15), expressions may be computed with plain bag
    union/sum and a single final ``min_p``; the operations below apply
    ``min_p`` eagerly, which is equivalent.

    ``1 ⊗ v`` adds ``0.0`` to every element and re-sorts, so its value is
    a sorted tuple of non-negative floats without ``-0.0`` (``0.0 + 3``
    is ``3.0``, ``0.0 + -0.0`` is ``0.0``), which ``1 ⊗`` fixes bit for
    bit.  Sums and products of such bags are such bags, and ``⊕`` is
    order-free on them: equal floats are the same float, so
    ``_min_p``'s sort keeps the same elements whatever the order of its
    input (``one_mul_canonical``).

    The natural order admits the closed form::

        x ⪯ y  ⟺  {e ∈ x : e < max(y)} ⊆ y   (as bags)

    because in ``min_p(x ⊎ z)`` every element of ``x`` strictly below
    ``max(y)`` necessarily survives selection.
    """

    one_mul_canonical = True

    def __init__(self, p: int):
        if p < 0:
            raise AlgebraError("Trop+_p requires p ≥ 0")
        self.p = p
        self.name = f"Trop+_{p}"
        self.zero = (INF,) * (p + 1)
        self.one = (0.0,) + (INF,) * p

    def add(self, a: Value, b: Value) -> Value:
        return _min_p(a + b, self.p)

    def mul(self, a: Value, b: Value) -> Value:
        sums = [x + y for x in a for y in b if x != INF and y != INF]
        return _min_p(sums, self.p)

    def leq(self, a: Value, b: Value) -> bool:
        top = b[-1]
        needed = [e for e in a if e < top]
        pool = list(b)
        for e in needed:
            try:
                pool.remove(e)
            except ValueError:
                return False
        return True

    def is_valid(self, a: Value) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.p + 1
            and all(_is_length(x) for x in a)
            and list(a) == sorted(a)
        )

    def from_values(self, values: Iterable[float]) -> Value:
        """Build an element from an arbitrary collection of lengths."""
        return _min_p(values, self.p)

    def singleton(self, x: float) -> Value:
        """Return the bag ``{{x, ∞, …, ∞}}`` (the image of a length)."""
        return _min_p([x], self.p)

    def sample_values(self) -> Sequence[Value]:
        return (
            self.zero,
            self.one,
            self.from_values([1.0]),
            self.from_values([1.0, 2.0, 3.0]),
            self.from_values([0.0, 0.0, 5.0]),
        )


def _min_eta(values: Iterable[float], eta: float) -> tuple[float, ...]:
    """Return the set of values within ``eta`` of the minimum, sorted."""
    vals = sorted(set(values))
    if not vals:
        return (INF,)
    lo = vals[0]
    return tuple(v for v in vals if v <= lo + eta)


class TropicalEtaSemiring(NaturallyOrderedSemiring):
    """``Trop+_≤η``: all path lengths within ``η`` of optimum (Ex. 2.10).

    Elements are non-empty sorted tuples of distinct values with spread
    ``≤ η``.  Addition is idempotent (set union followed by ``min_≤η``),
    so the natural order reduces to ``x ⪯ y ⟺ x ⊕ y = y``.  The order is
    *not* a lattice (e.g. ``{3}`` and ``{3.5}`` with ``η = 1`` have no
    greatest lower bound), so — as Section 6.1 notes — ``Trop+_≤η`` does
    not support the ``⊖`` operator and semi-naïve evaluation.  It is
    stable but not ``p``-stable for any fixed ``p`` (Proposition 5.4).
    """

    is_idempotent_add = True

    def __init__(self, eta: float):
        if eta < 0:
            raise AlgebraError("Trop+_≤η requires η ≥ 0")
        self.eta = eta
        self.name = f"Trop+_≤{eta}"
        self.zero = (INF,)
        self.one = (0.0,)

    def add(self, a: Value, b: Value) -> Value:
        return _min_eta(list(a) + list(b), self.eta)

    def mul(self, a: Value, b: Value) -> Value:
        sums = [x + y for x in a for y in b if x != INF and y != INF]
        return _min_eta(sums or [INF], self.eta)

    def leq(self, a: Value, b: Value) -> bool:
        """Natural order of an idempotent ``⊕``: ``a ⊕ b = b``."""
        return self.add(a, b) == b

    def is_valid(self, a: Value) -> bool:
        if not (
            isinstance(a, tuple)
            and a
            and all(_is_length(x) for x in a)
            and list(a) == sorted(set(a))
        ):
            return False
        return a == (INF,) or a[-1] <= a[0] + self.eta

    def from_values(self, values: Iterable[float]) -> Value:
        """Build an element from an arbitrary collection of lengths."""
        return _min_eta(values, self.eta)

    def singleton(self, x: float) -> Value:
        """Return the set ``{x}``."""
        return (float(x),)

    def sample_values(self) -> Sequence[Value]:
        e = self.eta
        return (
            self.zero,
            self.one,
            self.singleton(1.0),
            self.from_values([1.0, 1.0 + min(1.0, e)]),
            self.from_values([2.0, 2.0 + e / 2 if e else 2.0]),
        )
