"""Further classic 0-stable value spaces (Section 8's application sweep).

The paper's closing discussion points at graph algorithms, program
analysis and ML as consumers of semiring datalog; two standard
instances round out the library's zoo — both complete distributive
dioids, both 0-stable, so every datalog° program over them converges
in ≤ N steps and supports semi-naïve evaluation:

* :class:`BottleneckSemiring` — ``([0, ∞], max, min, 0, ∞)``: the
  widest-path / maximum-capacity semiring.  ``T(x,y)`` under the APSP
  program computes the best bottleneck capacity between x and y.
* :class:`ViterbiSemiring` — ``([0, 1], max, ×, 0, 1)``: most-probable
  (most reliable) path; the workhorse of probabilistic parsing.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .base import CompleteDistributiveDioid, Value

INF = math.inf


class BottleneckSemiring(CompleteDistributiveDioid):
    """Widest path: ``⊕ = max`` (best alternative), ``⊗ = min``
    (a path is as wide as its narrowest edge)."""

    name = "Bottleneck"
    zero = 0.0
    one = INF
    native_ops = (max, min)

    def add(self, a: Value, b: Value) -> Value:
        return max(a, b)

    def mul(self, a: Value, b: Value) -> Value:
        return min(a, b)

    def minus(self, b: Value, a: Value) -> Value:
        """Report ``b`` only when it strictly widens on ``a``."""
        return b if b > a else 0.0

    def meet(self, a: Value, b: Value) -> Value:
        return min(a, b)

    def is_valid(self, a: Value) -> bool:
        return isinstance(a, (int, float)) and not isinstance(a, bool) and a >= 0

    def sample_values(self) -> Sequence[Value]:
        return (0.0, 1.0, 2.5, 10.0, INF)


class ViterbiSemiring(CompleteDistributiveDioid):
    """Most reliable path: ``⊕ = max``, ``⊗ = ×`` over ``[0, 1]``."""

    name = "Viterbi"
    zero = 0.0
    one = 1.0
    native_ops = (max, operator.mul)

    def add(self, a: Value, b: Value) -> Value:
        return max(a, b)

    def mul(self, a: Value, b: Value) -> Value:
        return a * b

    def minus(self, b: Value, a: Value) -> Value:
        return b if b > a else 0.0

    def meet(self, a: Value, b: Value) -> Value:
        return min(a, b)

    def is_valid(self, a: Value) -> bool:
        return (
            isinstance(a, (int, float))
            and not isinstance(a, bool)
            and 0.0 <= a <= 1.0
        )

    def sample_values(self) -> Sequence[Value]:
        return (0.0, 0.25, 0.5, 0.9, 1.0)


class SetDioid(CompleteDistributiveDioid):
    """``(2^Ω, ∪, ∩, ∅, Ω, ⊆)`` — §6.1's first complete distributive
    dioid, with ``b ⊖ a = b \\ a`` (exactly set difference).

    Useful for label/provenance-style propagation: e.g. annotating each
    node with the set of sources that can reach it.
    """

    def __init__(self, universe):
        self.universe = frozenset(universe)
        self.name = f"2^Ω(|Ω|={len(self.universe)})"
        self.zero = frozenset()
        self.one = self.universe

    def add(self, a: Value, b: Value) -> Value:
        return frozenset(a) | frozenset(b)

    def mul(self, a: Value, b: Value) -> Value:
        return frozenset(a) & frozenset(b)

    def minus(self, b: Value, a: Value) -> Value:
        return frozenset(b) - frozenset(a)

    def meet(self, a: Value, b: Value) -> Value:
        return frozenset(a) & frozenset(b)

    def is_valid(self, a: Value) -> bool:
        return isinstance(a, frozenset) and a <= self.universe

    def lift(self, *elements) -> Value:
        """Build the subset containing the given universe elements."""
        s = frozenset(elements)
        if not s <= self.universe:
            raise ValueError(f"{s - self.universe} outside the universe")
        return s

    def sample_values(self) -> Sequence[Value]:
        items = sorted(self.universe, key=repr)
        singles = [frozenset({x}) for x in items[:2]]
        return (self.zero, self.one, *singles)


class TropicalNaturals(CompleteDistributiveDioid):
    """``(ℕ ∪ {∞}, min, +, ∞, 0)`` — §6.1's third example.

    The min-plus sub-dioid of ``Trop+`` with integer weights; hop
    counting and unit-cost shortest paths live here.
    """

    name = "TropN"
    zero = INF
    one = 0

    def add(self, a: Value, b: Value) -> Value:
        return min(a, b)

    def mul(self, a: Value, b: Value) -> Value:
        if a == INF or b == INF:
            return INF
        return a + b

    def minus(self, b: Value, a: Value) -> Value:
        return b if b < a else INF

    def meet(self, a: Value, b: Value) -> Value:
        return max(a, b)

    def is_valid(self, a: Value) -> bool:
        if a == INF:
            return True
        return isinstance(a, int) and not isinstance(a, bool) and a >= 0

    def sample_values(self) -> Sequence[Value]:
        return (INF, 0, 1, 2, 7)


BOTTLENECK = BottleneckSemiring()
VITERBI = ViterbiSemiring()
TROP_NAT = TropicalNaturals()
