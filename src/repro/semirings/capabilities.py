"""Which algebraic fact licenses which engine shortcut (``pops.caps``).

Every shortcut the engines take rests on one law of the value space:

* skipping an absent Boolean factor needs ``0`` to absorb
  (``absorbing_zero``, Definition 2.1);
* skipping an absent POPS atom additionally needs ``⊥ = 0`` — a
  naturally ordered semiring (``sparse``, §2.2 and Proposition 2.4);
* semi-naïve evaluation needs the ``⊖`` of a complete distributive
  dioid (``has_minus``, Definition 6.2 and Theorem 6.5);
* demand-driven evaluation needs an idempotent ``⊕`` without zero
  divisors over a natural order, and Newton's method an idempotent
  ``⊕`` (``natural_preorder``, ``idempotent_add``, ``zero_divisors``);
* the join cores may swap ``⊕``/``⊗`` for a builtin pair that *is* the
  same expression (``native_ops``), and the codegen leaf may write
  ``⊕``/``⊗`` as that expression's source (``native_source``);
* a generated leaf may drop the leading ``1 ⊗`` of its product, and
  naïve's frontier rounds may ⊕-accumulate a head's matches in another
  order than a full round (:mod:`repro.core.naive`), where ``v ↦ 1 ⊗ v``
  is a canonical form — ``1 ⊗`` fixes its values bit for bit, ``⊕``,
  ``⊗`` (and ``⊖``) keep them canonical and ``⊕`` is order-free on them
  (``canonical``).  Values enter the engines in that form: a
  :class:`~repro.core.instance.Database`'s stores, incremental mutation
  values and a naïve warm start are mapped through it, and every value
  an engine computes folds a product from ``1``.

:class:`Capabilities` is the one record of those facts per value
space, built on first access to :attr:`PreSemiring.caps
<repro.semirings.base.PreSemiring.caps>` and kept for the instance's
lifetime.  The declared fields come from the class flags
(``is_semiring``, ``is_naturally_ordered``, ``supports_minus``,
``native_ops``, ``native_source``, ``one_mul_canonical``); the probed
ones are checked once over ``sample_values() ∪ {0, 1}`` and keep their
first counterexample, so the refusal texts that quote it stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

from .base import PreSemiring, Value
from .properties import check_idempotent_add
from .stability import natural_preorder_holds


@dataclass(frozen=True)
class Capabilities:
    """The licensing facts of one value space (see the module docstring).

    Attributes:
        absorbing_zero: ``x ⊗ 0 = 0`` (declared ``is_semiring``).
        sparse: ``absorbing_zero`` and naturally ordered, so ``⊥ = 0``:
            absent atoms may be skipped.
        has_minus: A complete distributive dioid's ``⊖`` exists
            (declared ``supports_minus``).
        natural_preorder: ``0 ⪯ v`` (∃z. 0 ⊕ z = v) holds for every
            probe value, witnessed within the probe set.
        non_idempotent: ``(v,)`` for the first probe value with
            ``v ⊕ v ≠ v``; ``None`` when ``⊕`` is idempotent on them.
        zero_divisors: The first probe pair ``(a, b)`` of non-zero
            values with ``a ⊗ b = 0``; ``None`` when there is none.
        native_ops: The builtin ``(⊕, ⊗)`` pair the class declares,
            honoured only when that class also defines ``add`` and
            ``mul`` itself (a subclass overriding either gets ``None``).
        native_source: The ``(⊕, ⊗)`` source templates the class
            declares, under ``native_ops``' rule.
        canonical: The map ``v ↦ 1 ⊗ v`` where the class declares it a
            canonical form on which ``⊕`` is order-free
            (``one_mul_canonical``), under ``native_ops``' rule;
            ``None`` otherwise.
    """

    absorbing_zero: bool
    sparse: bool
    has_minus: bool
    natural_preorder: bool
    non_idempotent: Optional[Tuple[Value]]
    zero_divisors: Optional[Tuple[Value, Value]]
    native_ops: Optional[Tuple[Callable, Callable]]
    native_source: Optional[Tuple[str, str]]
    canonical: Optional[Callable[[Value], Value]]

    @property
    def idempotent_add(self) -> bool:
        """``v ⊕ v = v`` on every probe value."""
        return self.non_idempotent is None


def _zero_divisors(structure: PreSemiring, values) -> Optional[Tuple[Value, Value]]:
    zero, eq, mul = structure.zero, structure.eq, structure.mul
    nonzero = [v for v in values if not eq(v, zero)]
    for a in nonzero:
        for b in nonzero:
            if eq(mul(a, b), zero):
                return (a, b)
    return None


def _own(structure: PreSemiring, declared: str, *methods: str):
    """``declared`` as the structure's own class declares it, when that
    class also defines every one of ``methods`` itself (else ``None``)."""
    own = vars(type(structure))
    if all(name in own for name in methods):
        return own.get(declared)
    return None


def probe_capabilities(structure: PreSemiring) -> Capabilities:
    """Build the :class:`Capabilities` record of ``structure``."""
    absorbing = bool(structure.is_semiring)
    witnesses = tuple(structure.sample_values()) + (structure.zero, structure.one)
    bad = check_idempotent_add(structure, witnesses)
    return Capabilities(
        absorbing_zero=absorbing,
        sparse=absorbing and bool(getattr(structure, "is_naturally_ordered", False)),
        has_minus=bool(getattr(structure, "supports_minus", False)),
        natural_preorder=all(
            natural_preorder_holds(structure, structure.zero, v, witnesses)
            for v in witnesses
        ),
        non_idempotent=None if bad is None else bad[1:],
        zero_divisors=_zero_divisors(structure, witnesses),
        native_ops=_own(structure, "native_ops", "add", "mul"),
        native_source=_own(structure, "native_source", "add", "mul"),
        canonical=(
            partial(structure.mul, structure.one)
            if _own(structure, "one_mul_canonical", "add", "mul")
            else None
        ),
    )
