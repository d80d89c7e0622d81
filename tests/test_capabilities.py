"""``pops.caps``: every declared or probed capability holds on the samples.

Each engine shortcut reads one field of the capability record
(:mod:`repro.semirings.capabilities`), so a field that overstates its
value space would license an unsound skip.  The checks here re-verify
every field with :mod:`repro.semirings.properties`' law checkers over
``sample_values()``, for every exported structure and the
parameterised constructions.
"""

from __future__ import annotations

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
# Source templates (``native_source``) and the ``1 ⊗`` licence
# (``one_is_identity_on``).
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


def test_one_is_identity_on_declared_on_trop_p_only():
    named = {
        s.name for s in STRUCTURES if s.caps.one_is_identity_on is not None
    }
    assert named == {"Trop+_2"}


@pytest.mark.parametrize("p", [0, 1, 2])
def test_one_is_identity_on_means_one_fixes_the_value(p):
    tp = TropicalPSemiring(p)
    holds = tp.caps.one_is_identity_on
    values = tuple(tp.sample_values()) + (
        (3,) + (INF,) * p,
        (-0.0,) + (INF,) * p,
        (0.0,) * (p + 1),
    )
    for value in values:
        fixed = tp.mul(tp.one, value)
        exact = [_strict(x) for x in fixed] == [_strict(x) for x in value]
        if holds(value):
            assert exact, value
    assert holds(tp.one) and holds(tp.zero)


def test_one_is_identity_on_refused_next_to_minus():
    class Licensed(TropicalSemiring):
        name = "Trop+licensed"

        def mul(self, a, b):
            return a + b

        def one_is_identity_on(self, a):
            return type(a) is float

    with pytest.raises(TypeError, match="one_is_identity_on"):
        Licensed().caps


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
