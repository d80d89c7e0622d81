"""``pops.caps``: every declared or probed capability holds on the samples.

Each engine shortcut reads one field of the capability record
(:mod:`repro.semirings.capabilities`), so a field that overstates its
value space would license an unsound skip.  The checks here re-verify
every field with :mod:`repro.semirings.properties`' law checkers over
``sample_values()``, for every exported structure and the
parameterised constructions.
"""

from __future__ import annotations

import random

import pytest

import repro.semirings as semirings
from repro import programs
from repro.core import Database, NaiveEvaluator
from repro.semirings import (
    BOOL,
    INF,
    LIFTED_REAL,
    NAT,
    TROP,
    CompletedPOPS,
    PowersetPOPS,
    ProductPOPS,
    SetDioid,
    TropicalEtaSemiring,
    TropicalPSemiring,
    TropicalSemiring,
)
from repro.semirings.base import PreSemiring
from repro.semirings.properties import (
    check_absorption,
    check_idempotent_add,
    check_minus_laws,
)

EXPORTED = [
    value for value in vars(semirings).values()
    if isinstance(value, PreSemiring)
]
CONSTRUCTED = [
    TropicalPSemiring(2),
    TropicalEtaSemiring(3.0),
    ProductPOPS(BOOL, TROP),
    CompletedPOPS(NAT),
    PowersetPOPS(NAT),
    LIFTED_REAL.core_semiring(),
    TROP.core_semiring(),
    SetDioid({1, 2}),
]
STRUCTURES = EXPORTED + CONSTRUCTED


def _samples(structure):
    return tuple(structure.sample_values()) + (structure.zero, structure.one)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
def test_capabilities_hold_on_samples(structure):
    caps = structure.caps
    assert structure.caps is caps  # built once per instance
    samples = _samples(structure)
    if caps.absorbing_zero:
        assert check_absorption(structure, samples) is None
    if caps.sparse:
        assert caps.absorbing_zero
        assert structure.eq(structure.bottom, structure.zero)  # ⊥ = 0
    if caps.has_minus:
        assert check_minus_laws(structure, structure.sample_values()) is None
    if getattr(structure, "is_idempotent_add", False):
        assert caps.idempotent_add  # the declaration agrees with the probe
    assert (check_idempotent_add(structure, samples) is None) == (
        caps.idempotent_add
    )
    if caps.zero_divisors is not None:
        a, b = caps.zero_divisors
        zero = structure.zero
        assert not structure.eq(a, zero) and not structure.eq(b, zero)
        assert structure.eq(structure.mul(a, b), zero)


@pytest.mark.parametrize(
    "structure",
    [s for s in STRUCTURES if s.caps.native_ops is not None],
    ids=lambda s: s.name,
)
def test_native_ops_are_the_same_expression(structure):
    add, mul = structure.caps.native_ops
    for a in structure.sample_values():
        for b in structure.sample_values():
            assert repr(add(a, b)) == repr(structure.add(a, b))
            assert repr(mul(a, b)) == repr(structure.mul(a, b))


def test_native_ops_declared_on_the_numeric_semirings():
    named = {s.name for s in EXPORTED if s.caps.native_ops is not None}
    assert named == {"Trop+", "R+", "Viterbi", "Bottleneck"}


def test_overriding_subclass_loses_native_ops():
    class Capped(TropicalSemiring):
        name = "Trop+cap"

        def add(self, a, b):
            return min(a, b, 100.0)

    assert Capped().caps.native_ops is None
    assert TROP.caps.native_ops is not None


# ---------------------------------------------------------------------------
# Source templates (``native_source``).
# ---------------------------------------------------------------------------


def _strict(value):
    return type(value), repr(value)


@pytest.mark.parametrize(
    "structure",
    [s for s in STRUCTURES if s.caps.native_source is not None],
    ids=lambda s: s.name,
)
def test_native_source_is_the_method_expression(structure):
    values = tuple(structure.sample_values()) + (3, -0.0, 0, float("nan"))
    for op, template in zip(("add", "mul"), structure.caps.native_source):
        method = getattr(structure, op)
        for a in values:
            for b in values:
                native = eval(template.format("a", "b"), {"a": a, "b": b})
                assert _strict(native) == _strict(method(a, b)), (op, a, b)


def test_native_source_declared_on_trop_only():
    named = {s.name for s in EXPORTED if s.caps.native_source is not None}
    assert named == {"Trop+"}


# ---------------------------------------------------------------------------
# The canonical form ``v ↦ 1 ⊗ v`` (``canonical``).
# ---------------------------------------------------------------------------

DECLARING = [
    s
    for s in STRUCTURES + [TropicalPSemiring(0), TropicalPSemiring(1)]
    if s.caps.canonical is not None
]


def _raw_bags(structure, seed, n=40):
    """Random ``Trop+_p`` bags as a user may write them: ints, ``-0.0``,
    ``∞``, unsorted."""
    rng = random.Random(seed)
    elements = (0, 1, 3, 0.0, -0.0, 1.5, 2.5, 7.0, INF)
    return tuple(
        tuple(rng.choice(elements) for _ in range(structure.p + 1))
        for _ in range(n)
    )


def _canonical_values(structure, seed):
    c = structure.caps.canonical
    return [c(v) for v in _samples(structure) + _raw_bags(structure, seed)]


def test_canonical_declared_on_trop_p_only():
    assert {s.name for s in STRUCTURES if s.caps.canonical is not None} == {
        "Trop+_2"
    }
    assert all(isinstance(s, TropicalPSemiring) for s in DECLARING)


@pytest.mark.parametrize("structure", DECLARING, ids=lambda s: s.name)
def test_canonical_form_is_idempotent(structure):
    c = structure.caps.canonical
    for v in _samples(structure) + _raw_bags(structure, 1):
        assert repr(c(c(v))) == repr(c(v)), v
    for v in _samples(structure):  # the samples, 0 and 1 are canonical
        assert repr(c(v)) == repr(v), v


@pytest.mark.parametrize("structure", DECLARING, ids=lambda s: s.name)
def test_operations_keep_values_canonical(structure):
    c = structure.caps.canonical
    values = _canonical_values(structure, 2)
    ops = [structure.add, structure.mul]
    if structure.caps.has_minus:
        ops.append(structure.minus)
    for op in ops:
        for a in values:
            for b in values:
                out = op(a, b)
                assert repr(c(out)) == repr(out), (op.__name__, a, b)


@pytest.mark.parametrize("structure", DECLARING, ids=lambda s: s.name)
def test_add_is_order_free_on_canonical_values(structure):
    """Every ⊕ order gives the same value, ``repr`` for ``repr``."""
    add, rng = structure.add, random.Random(3)
    values = _canonical_values(structure, 3)
    for _ in range(200):
        picked = rng.sample(values, 4)
        shuffled = rng.sample(picked, 4)
        left = add(add(add(picked[0], picked[1]), picked[2]), picked[3])
        right = add(shuffled[0], add(shuffled[1], add(shuffled[2], shuffled[3])))
        assert repr(left) == repr(right), picked


@pytest.mark.parametrize("op", ["add", "mul"])
def test_overriding_subclass_loses_the_canonical_form(op):
    def swapped(self, a, b):
        return getattr(TropicalPSemiring, op)(self, b, a)

    Reordered = type("Reordered", (TropicalPSemiring,), {op: swapped})
    assert Reordered(1).caps.canonical is None
    assert TropicalPSemiring(1).caps.canonical is not None


def _tc_kernel_source(pops):
    db = Database(pops=pops, relations={"E": {(1, 2): 1.0, (2, 3): 2.0}})
    prog = programs.transitive_closure()
    evaluator = NaiveEvaluator(prog, db, engine="codegen")
    bodies = sum(len(rule.bodies) for rule in prog.rules)
    return "\n".join(evaluator.kernel(i).source for i in range(bodies))


def test_overriding_mul_loses_the_native_source():
    class Shifted(TropicalSemiring):
        name = "Trop+shift"

        def mul(self, a, b):
            return a + b + 0.0

    shifted = Shifted()
    assert shifted.caps.native_source is None
    assert TROP.caps.native_source is not None
    assert "_mul(" in _tc_kernel_source(shifted)
    assert "_mul(" not in _tc_kernel_source(TROP)
