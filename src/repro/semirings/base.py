"""Algebraic foundations: pre-semirings, semirings, and POPS.

This module implements the abstract structures of Section 2 of the paper:

* A **pre-semiring** ``(S, ⊕, ⊗, 0, 1)`` (Definition 2.1): ``(S, ⊕, 0)`` is
  a commutative monoid, ``(S, ⊗, 1)`` a commutative monoid, and ``⊗``
  distributes over ``⊕``.  It is a **semiring** when ``0`` is absorbing
  (``x ⊗ 0 = 0``).
* A **POPS** — partially ordered pre-semiring (Definition 2.3): a
  pre-semiring carrying a partial order ``⊑`` with a minimum element ``⊥``
  under which ``⊕`` and ``⊗`` are monotone.
* A **dioid**: a semiring whose ``⊕`` is idempotent; its natural order
  ``a ⊑ b ⟺ a ⊕ b = b`` makes it a POPS (Proposition 6.1).
* A **complete distributive dioid** (Definition 6.2): a dioid whose order
  is a complete distributive lattice; it supports the difference operator
  ``b ⊖ a = ⋀{c | a ⊕ c ⊒ b}`` (Eq. 58) used by semi-naïve evaluation.

Values are ordinary Python objects (bools, numbers, tuples, frozensets,
sentinels).  A structure object bundles the operations, the distinguished
elements and capability flags; everything downstream (polynomials,
grounding, the evaluation engines, the convergence analysis) is
parameterized by such an object.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from .capabilities import Capabilities

Value = Any


class AlgebraError(Exception):
    """Raised when an operation is not supported by a given structure."""


class PreSemiring(ABC):
    """A commutative pre-semiring ``(S, ⊕, ⊗, 0, 1)``.

    Subclasses implement :meth:`add`, :meth:`mul` and the distinguished
    elements :attr:`zero` and :attr:`one`.  The class also provides the
    derived operations used throughout the paper: iterated sums/products,
    powers ``a^k`` and the geometric series ``a^(p) = 1 ⊕ a ⊕ … ⊕ a^p``
    (Eq. 30) on which the notion of *stability* (Definition 5.1) rests.

    The class-level flags are declarations; the engines never read
    them directly but through :attr:`caps`, the one record of which
    algebraic fact licenses which shortcut.

    Attributes:
        name: Human-readable name used in reprs and error messages.
        is_semiring: ``True`` when ``0`` is absorbing (``x ⊗ 0 = 0``).
        native_ops: A builtin ``(⊕, ⊗)`` pair that is *the same
            expression* as this class's :meth:`add`/:meth:`mul` (e.g.
            ``(min, operator.add)`` for ``Trop+``), for join cores that
            call it directly; declared only next to those methods.
        native_source: The same ``(⊕, ⊗)`` expressions as Python
            source templates over the operands ``{0}`` and ``{1}``, for
            generated code; declared only next to those methods.
        one_mul_canonical: ``v ↦ 1 ⊗ v`` is a canonical form: ``1 ⊗``
            fixes its values bit for bit, the operations keep them in
            it and ``⊕`` is order-free on them; declared only next to
            :meth:`add` and :meth:`mul`.
    """

    name: str = "pre-semiring"
    is_semiring: bool = False
    native_ops: Optional[Tuple[Callable, Callable]] = None
    native_source: Optional[Tuple[str, str]] = None
    one_mul_canonical: bool = False

    #: distinguished elements; set by subclasses (attribute or property).
    zero: Value
    one: Value

    # ------------------------------------------------------------------
    # abstract core
    # ------------------------------------------------------------------
    @abstractmethod
    def add(self, a: Value, b: Value) -> Value:
        """Return ``a ⊕ b``."""

    @abstractmethod
    def mul(self, a: Value, b: Value) -> Value:
        """Return ``a ⊗ b``."""

    # ------------------------------------------------------------------
    # equality / canonical forms
    # ------------------------------------------------------------------
    def eq(self, a: Value, b: Value) -> bool:
        """Return whether two values are equal in this structure."""
        return a == b

    def is_valid(self, a: Value) -> bool:
        """Return whether ``a`` is a well-formed element of the domain.

        The default accepts everything; concrete structures override this
        so property tests and the parser can validate inputs.
        """
        return True

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------
    def add_many(self, values: Iterable[Value]) -> Value:
        """Return ``⊕`` over ``values`` (``0`` for the empty sum)."""
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def mul_many(self, values: Iterable[Value]) -> Value:
        """Return ``⊗`` over ``values`` (``1`` for the empty product)."""
        acc = self.one
        for v in values:
            acc = self.mul(acc, v)
        return acc

    def power(self, a: Value, k: int) -> Value:
        """Return ``a^k`` with ``a^0 = 1``."""
        if k < 0:
            raise AlgebraError(f"negative power {k} in {self.name}")
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def geometric(self, a: Value, p: int) -> Value:
        """Return ``a^(p) = 1 ⊕ a ⊕ a² ⊕ … ⊕ a^p`` (Eq. 30).

        Computed by the Horner-style recurrence ``a^(q) = 1 ⊕ a·a^(q−1)``,
        which needs only ``p`` multiplications.
        """
        if p < 0:
            raise AlgebraError(f"negative stability exponent {p}")
        acc = self.one
        for _ in range(p):
            acc = self.add(self.one, self.mul(a, acc))
        return acc

    def scale_nat(self, n: int, a: Value) -> Value:
        """Return ``n·a = a ⊕ a ⊕ … ⊕ a`` (``n`` times; ``0`` for n=0).

        This is the repeated-sum notation of Section 5.2 used when
        regrouping provenance polynomials by Parikh image.
        """
        if n < 0:
            raise AlgebraError("natural multiple must be non-negative")
        acc = self.zero
        for _ in range(n):
            acc = self.add(acc, a)
        return acc

    # ------------------------------------------------------------------
    # sampling support for property-based tests
    # ------------------------------------------------------------------
    def sample_values(self) -> Sequence[Value]:
        """Return a small, diverse sample of elements for axiom checks."""
        return (self.zero, self.one)

    @cached_property
    def caps(self) -> "Capabilities":
        """This structure's :class:`~repro.semirings.capabilities.Capabilities`:
        built from the declared flags and a one-time probe of
        :meth:`sample_values`, then kept for the instance's lifetime."""
        from .capabilities import probe_capabilities  # imports this module

        return probe_capabilities(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class POPS(PreSemiring):
    """A partially ordered pre-semiring (Definition 2.3).

    Adds a partial order :meth:`leq` with minimum element :attr:`bottom`,
    under which both operations are monotone.  Following the paper we
    assume throughout that multiplication is *strict*: ``x ⊗ ⊥ = ⊥``
    (:attr:`mul_is_strict`), which guarantees that the *core semiring*
    ``P⊕⊥ = {x ⊕ ⊥ | x ∈ P}`` is a semiring (Proposition 2.4), exposed
    here via :meth:`core_semiring`.

    Attributes:
        bottom: The minimum element ``⊥`` of the order.
        is_naturally_ordered: ``True`` when ``⊑`` is the natural order
            ``x ⪯ y ⟺ ∃z. x ⊕ z = y`` (then ``⊥ = 0``).
        mul_is_strict: ``x ⊗ ⊥ = ⊥`` for all x.
        plus_is_strict: ``x ⊕ ⊥ = ⊥`` for all x (true for lifted POPS).
    """

    bottom: Value
    is_naturally_ordered: bool = False
    mul_is_strict: bool = True
    plus_is_strict: bool = False

    @abstractmethod
    def leq(self, a: Value, b: Value) -> bool:
        """Return whether ``a ⊑ b`` in the POPS order."""

    def lt(self, a: Value, b: Value) -> bool:
        """Return whether ``a ⊏ b`` (strictly below)."""
        return self.leq(a, b) and not self.eq(a, b)

    # ------------------------------------------------------------------
    # core semiring (Proposition 2.4)
    # ------------------------------------------------------------------
    def saturate(self, a: Value) -> Value:
        """Return ``a ⊕ ⊥``, the projection into the core semiring."""
        return self.add(a, self.bottom)

    def core_semiring(self) -> "CoreSemiring":
        """Return the core semiring ``P⊕⊥`` of this POPS (Prop. 2.4)."""
        return CoreSemiring(self)


class CoreSemiring(POPS):
    """The core semiring ``P⊕⊥`` of a POPS (Proposition 2.4).

    Its domain is ``{x ⊕ ⊥ | x ∈ P}``, its zero is ``0 ⊕ ⊥ = ⊥`` and its
    one is ``1 ⊕ ⊥``; addition and multiplication are inherited.  The
    construction is a genuine semiring (``⊥`` absorbs under ``⊗`` by
    strictness), and it is the structure whose *stability* governs the
    convergence of every datalog° program over the parent POPS
    (Theorem 1.2, Corollaries 5.17/5.18).
    """

    def __init__(self, parent: POPS):
        if not parent.mul_is_strict and not getattr(
            parent, "core_is_closed", False
        ):
            # Proposition 2.4 derives closure of {x ⊕ ⊥} from strict ⊗;
            # a non-strict POPS may still be closed (e.g. THREE, whose
            # 0 absorbs ⊥) — such structures set ``core_is_closed``.
            raise AlgebraError(
                "core semiring requires strict multiplication (x ⊗ ⊥ = ⊥) "
                "or an explicit core_is_closed declaration"
            )
        self.parent = parent
        self.name = f"core({parent.name})"
        self.zero = parent.saturate(parent.zero)
        self.one = parent.saturate(parent.one)
        self.bottom = self.zero
        self.is_semiring = True
        self.is_naturally_ordered = parent.is_naturally_ordered

    def add(self, a: Value, b: Value) -> Value:
        return self.parent.add(a, b)

    def mul(self, a: Value, b: Value) -> Value:
        return self.parent.mul(a, b)

    def eq(self, a: Value, b: Value) -> bool:
        return self.parent.eq(a, b)

    def leq(self, a: Value, b: Value) -> bool:
        return self.parent.leq(a, b)

    def is_valid(self, a: Value) -> bool:
        return self.parent.is_valid(a) and self.parent.eq(
            a, self.parent.saturate(a)
        )

    def sample_values(self) -> Sequence[Value]:
        seen: list[Value] = []
        for v in self.parent.sample_values():
            s = self.parent.saturate(v)
            if not any(self.eq(s, w) for w in seen):
                seen.append(s)
        return tuple(seen)


class NaturallyOrderedSemiring(POPS):
    """A semiring that is a POPS under its natural order, with ``⊥ = 0``.

    Subclasses provide :meth:`leq` implementing ``x ⪯ y ⟺ ∃z. x ⊕ z = y``
    for their concrete domain.  The core semiring of such a POPS is
    itself (``S⊕0 = S``).
    """

    is_semiring = True
    is_naturally_ordered = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)

    @property
    def bottom(self) -> Value:  # type: ignore[override]
        return self.zero


class Dioid(NaturallyOrderedSemiring):
    """A dioid: a semiring with idempotent ``⊕`` (Section 6.1).

    By Proposition 6.1 the natural order of a dioid is
    ``a ⊑ b ⟺ a ⊕ b = b`` and ``⊕`` coincides with the least upper
    bound; :meth:`leq` is therefore derived once and for all.
    """

    is_idempotent_add = True

    def leq(self, a: Value, b: Value) -> bool:
        return self.eq(self.add(a, b), b)

    def join(self, a: Value, b: Value) -> Value:
        """Return the least upper bound ``a ∨ b`` (= ``a ⊕ b``)."""
        return self.add(a, b)


class CompleteDistributiveDioid(Dioid):
    """A complete distributive dioid (Definition 6.2).

    The order forms a complete distributive lattice, enabling the
    difference operator ``b ⊖ a = ⋀{c | a ⊕ c ⊒ b}`` (Eq. 58) that
    semi-naïve evaluation requires.  Subclasses implement :meth:`minus`
    directly with a closed form; tests verify properties (59) and (60)
    of Lemma 6.3:

    * ``a ⊑ b  ⟹  a ⊕ (b ⊖ a) = b``
    * ``(a ⊕ b) ⊖ (a ⊕ c) = b ⊖ (a ⊕ c)``
    """

    supports_minus = True

    @abstractmethod
    def minus(self, b: Value, a: Value) -> Value:
        """Return ``b ⊖ a`` per Eq. (58)."""

    @abstractmethod
    def meet(self, a: Value, b: Value) -> Value:
        """Return the greatest lower bound ``a ∧ b``."""


class FunctionRegistry:
    """Registry of named monotone functions attached to a POPS.

    Section 4.5 ("multiple value spaces") and Section 7 (``not`` over
    THREE) extend datalog° with interpreted functions over the value
    space.  Provided the functions are monotone w.r.t. the POPS order the
    least-fixpoint semantics is preserved; the engine looks functions up
    by name here.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Value]] = {}

    def register(self, name: str, fn: Callable[..., Value]) -> None:
        """Register ``fn`` under ``name`` (overwrites silently)."""
        self._functions[name] = fn

    def resolve(self, name: str) -> Callable[..., Value]:
        """Look up a function; raise :class:`AlgebraError` if missing."""
        try:
            return self._functions[name]
        except KeyError:
            raise AlgebraError(f"unknown interpreted function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def snapshot(self) -> tuple[tuple[str, Callable[..., Value]], ...]:
        """The registered ``(name, function)`` pairs, sorted by name:
        two registries with equal snapshots resolve every name alike."""
        return tuple(sorted(self._functions.items(), key=lambda item: item[0]))


def pairs(values: Sequence[Value]) -> Iterator[tuple[Value, Value]]:
    """Yield all ordered pairs over ``values`` (test helper)."""
    return itertools.product(values, repeat=2)  # type: ignore[return-value]


def triples(values: Sequence[Value]) -> Iterator[tuple[Value, Value, Value]]:
    """Yield all ordered triples over ``values`` (test helper)."""
    return itertools.product(values, repeat=3)  # type: ignore[return-value]
