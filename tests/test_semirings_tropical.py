"""Tropical structures: ``Trop+``, ``Trop+_p``, ``Trop+_≤η``.

Checks the worked arithmetic of Examples 2.9 / 2.10, the ``⊖`` of
Eq. (6), and the stability facts of Propositions 5.3 / 5.4.
"""

from __future__ import annotations

import math

import pytest

from repro.semirings import (
    INF,
    TROP,
    TropicalEtaSemiring,
    TropicalPSemiring,
)
from repro.semirings.properties import check_minus_laws
from repro.semirings.stability import (
    element_stability_index,
    is_p_stable_element,
    is_zero_stable,
)


class TestTropPlus:
    def test_min_plus(self):
        assert TROP.add(3.0, 5.0) == 3.0
        assert TROP.mul(3.0, 5.0) == 8.0
        assert TROP.add(INF, 2.0) == 2.0
        assert TROP.mul(INF, 2.0) == INF

    def test_units(self):
        assert TROP.zero == INF
        assert TROP.one == 0.0
        assert TROP.bottom == INF

    def test_order_is_reversed(self):
        assert TROP.leq(5.0, 3.0)
        assert not TROP.leq(3.0, 5.0)
        assert TROP.leq(INF, 0.0)

    def test_minus_eq6(self):
        assert TROP.minus(3.0, 5.0) == 3.0       # strictly better: keep
        assert TROP.minus(5.0, 3.0) == INF       # no improvement: drop
        assert TROP.minus(5.0, 5.0) == INF
        assert TROP.minus(3.0, INF) == 3.0

    def test_minus_laws(self):
        assert check_minus_laws(TROP, TROP.sample_values()) is None

    def test_zero_stable(self):
        assert is_zero_stable(TROP)
        report = element_stability_index(TROP, 7.5)
        assert report.stable and report.index == 0

    def test_violates_acc_but_stable(self):
        """1 > 1/2 > 1/3 > … ascends forever in ⊑, yet Trop+ is 0-stable."""
        chain = [1.0 / k for k in range(1, 50)]
        for lo, hi in zip(chain, chain[1:]):
            assert TROP.lt(lo, hi)


class TestTropP:
    def test_example_2_9_arithmetic(self):
        """{{3,7,9}} ⊕₂ {{3,7,7}} = {{3,3,7}} and ⊗₂ = {{6,10,10}}."""
        t2 = TropicalPSemiring(2)
        x = (3.0, 7.0, 9.0)
        y = (3.0, 7.0, 7.0)
        assert t2.add(x, y) == (3.0, 3.0, 7.0)
        assert t2.mul(x, y) == (6.0, 10.0, 10.0)

    def test_units(self):
        t1 = TropicalPSemiring(1)
        assert t1.zero == (INF, INF)
        assert t1.one == (0.0, INF)

    def test_identity_15_bag_then_minp(self):
        """min_p(min_p(x) ⊎ min_p(y)) = min_p(x ⊎ y) (Eq. 15)."""
        t1 = TropicalPSemiring(1)
        x = [5.0, 1.0, 3.0]
        y = [2.0, 2.0, 9.0]
        direct = t1.from_values(sorted(x + y))
        staged = t1.add(t1.from_values(x), t1.from_values(y))
        assert direct == staged

    def test_p0_is_trop(self):
        t0 = TropicalPSemiring(0)
        assert t0.add((3.0,), (5.0,)) == (3.0,)
        assert t0.mul((3.0,), (5.0,)) == (8.0,)

    def test_natural_order_closed_form(self):
        t1 = TropicalPSemiring(1)
        assert t1.leq((3.0, 7.0), (3.0, 5.0))
        assert not t1.leq((3.0, 7.0), (2.0, 6.0))
        assert t1.leq((3.0, 7.0), (0.0, 1.0))
        assert not t1.leq((0.0, 1.0), (3.0, 7.0))
        assert t1.leq(t1.zero, (0.0, 0.0))

    def test_order_matches_reachability_witness_search(self):
        """x ⪯ y iff some z gives x ⊕ z = y — cross-check on a grid."""
        t1 = TropicalPSemiring(1)
        universe = [
            (a, b)
            for a in (0.0, 1.0, 2.0, INF)
            for b in (0.0, 1.0, 2.0, INF)
            if a <= b
        ]
        for x in universe:
            for y in universe:
                witnessed = any(t1.add(x, z) == y for z in universe)
                assert witnessed == t1.leq(x, y), (x, y)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_proposition_5_3_p_stable(self, p):
        tp = TropicalPSemiring(p)
        for c in tp.sample_values():
            assert is_p_stable_element(tp, c, p)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_proposition_5_3_tightness(self, p):
        """The 1-element of Trop+_p is not (p−1)-stable."""
        tp = TropicalPSemiring(p)
        report = element_stability_index(tp, tp.one)
        assert report.index == p

    def test_from_values_pads_with_inf(self):
        t2 = TropicalPSemiring(2)
        assert t2.from_values([4.0]) == (4.0, INF, INF)
        assert t2.singleton(4.0) == (4.0, INF, INF)


class TestTropEta:
    def test_example_2_10_arithmetic(self):
        """η = 6.5: {3,7} ⊕ {5,9,10} = {3,5,7,9}; {1,6} ⊗ {1,2,3} = …"""
        te = TropicalEtaSemiring(6.5)
        assert te.add((3.0, 7.0), (5.0, 9.0, 10.0)) == (3.0, 5.0, 7.0, 9.0)
        assert te.mul((1.0, 6.0), (1.0, 2.0, 3.0)) == (
            2.0,
            3.0,
            4.0,
            7.0,
            8.0,
        )

    def test_units(self):
        te = TropicalEtaSemiring(2.0)
        assert te.zero == (INF,)
        assert te.one == (0.0,)

    def test_identity_16(self):
        """min_≤η(min_≤η(x) ∪ min_≤η(y)) = min_≤η(x ∪ y) (Eq. 16)."""
        te = TropicalEtaSemiring(2.0)
        x = [1.0, 2.5, 9.0]
        y = [0.5, 2.0, 2.6]
        direct = te.from_values(x + y)
        staged = te.add(te.from_values(x), te.from_values(y))
        assert direct == staged

    def test_eta_zero_is_trop(self):
        te = TropicalEtaSemiring(0.0)
        assert te.add((3.0,), (5.0,)) == (3.0,)
        assert te.mul((3.0,), (5.0,)) == (8.0,)

    def test_proposition_5_4_stability_index(self):
        """The exact index of {a} is ⌊η/a⌋ (the largest p with pa ≤ η);
        the paper's ⌈η/a⌉ is its stated upper bound."""
        eta = 6.5
        te = TropicalEtaSemiring(eta)
        for a in (1.0, 2.0, 3.0, 6.5):
            report = element_stability_index(te, te.singleton(a))
            assert report.stable
            assert report.index == math.floor(eta / a)
            assert report.index <= math.ceil(eta / a)

    def test_proposition_5_4_not_uniformly_stable(self):
        """Stability indices grow without bound as a → 0."""
        te = TropicalEtaSemiring(1.0)
        indices = [
            element_stability_index(te, te.singleton(1.0 / k), budget=200).index
            for k in (1, 2, 5, 10)
        ]
        assert indices == [1, 2, 5, 10]

    def test_stable_geometric_matches_definition(self):
        te = TropicalEtaSemiring(1.0)
        c = te.singleton(0.4)
        # c^(3): 0, .4, .8, 1.2 — keep ≤ min+η = 1.0 → {0, .4, .8}
        assert te.geometric(c, 3) == (0.0, 0.4, 0.8)

    def test_no_lattice_counterexample(self):
        """{3} and {3.5} (η = 1) have incomparable maximal lower bounds,
        so Trop+_≤η is not a complete distributive dioid (§6.1)."""
        te = TropicalEtaSemiring(1.0)
        x, y = (3.0,), (3.5,)
        lb1, lb2 = (4.6,), (5.0,)
        for lb in (lb1, lb2):
            assert te.leq(lb, x) and te.leq(lb, y)
        assert not te.leq(lb1, lb2) and not te.leq(lb2, lb1)
        assert not hasattr(te, "minus")


# ---------------------------------------------------------------------------
# Well-formed values of the bag spaces, and the ``1 ⊗`` licence next to them.
# ---------------------------------------------------------------------------


class TestBagValidity:
    """``is_valid`` answers ``False`` on every non-length element, as
    ``TROP.is_valid`` does — it never raises and never takes a bool."""

    @pytest.mark.parametrize("bad", [True, False, "a", None, -1.0, math.nan])
    def test_trop_rejects_non_lengths(self, bad):
        assert not TROP.is_valid(bad)

    @pytest.mark.parametrize(
        "bag",
        [(True, INF, INF), (0.0, True, INF), (1.0, 2.0, False), ("a", INF, INF),
         (1.0, "b", INF), (math.nan, INF, INF), (-1.0, INF, INF)],
    )
    def test_trop_p_rejects_non_length_elements(self, bag):
        assert not TropicalPSemiring(2).is_valid(bag)

    @pytest.mark.parametrize(
        "bag", [(0.0, INF, INF), (1, 2.0, INF), (3.0, 3.0, 5.0), (INF,) * 3]
    )
    def test_trop_p_accepts_sorted_length_bags(self, bag):
        assert TropicalPSemiring(2).is_valid(bag)

    @pytest.mark.parametrize(
        "value", [(True,), (False,), ("a",), (1.0, "b"), ("a", "b"), (math.nan,)]
    )
    def test_trop_eta_rejects_non_length_elements(self, value):
        assert not TropicalEtaSemiring(2.0).is_valid(value)

    @pytest.mark.parametrize("value", [(INF,), (0.0,), (1, 2.5), (1.0, 3.0)])
    def test_trop_eta_accepts_close_sets(self, value):
        assert TropicalEtaSemiring(2.0).is_valid(value)

    def test_trop_eta_rejects_spread_and_duplicates(self):
        te = TropicalEtaSemiring(2.0)
        assert not te.is_valid((1.0, 3.5))
        assert not te.is_valid((1.0, 1.0))
        assert not te.is_valid(())


class TestCanonicalForm:
    """``Trop+_p``'s canonical form ``1 ⊗ v``: sorted non-negative floats
    without ``-0.0``."""

    @pytest.mark.parametrize(
        "bag", [(0.0, INF, INF), (1.0, 2.5, 2.5), (INF,) * 3, (4.0, 5.0, 6.0)]
    )
    def test_float_bags_are_fixed(self, bag):
        fixed = TropicalPSemiring(2).caps.canonical(bag)
        assert [(type(x), repr(x)) for x in fixed] == [
            (type(x), repr(x)) for x in bag
        ]

    @pytest.mark.parametrize(
        "bag,canonical",
        [((3, INF, INF), "(3.0, inf, inf)"),
         ((-0.0, INF, INF), "(0.0, inf, inf)"),
         ((0.0, -0.0, INF), "(0.0, 0.0, inf)"),
         ((True, INF, INF), "(1.0, inf, inf)"),
         ((2.0, 1.0, INF), "(1.0, 2.0, inf)"),
         ((1.0, INF), "(1.0, inf, inf)"),
         ([1.0, INF, INF], "(1.0, inf, inf)")],
    )
    def test_ints_signed_zeros_and_malformed_bags_are_mapped(self, bag, canonical):
        assert repr(TropicalPSemiring(2).caps.canonical(bag)) == canonical

    def test_ints_and_signed_zeros_really_change(self):
        t2 = TropicalPSemiring(2)
        assert repr(t2.mul(t2.one, (3, INF, INF))) == "(3.0, inf, inf)"
        assert repr(t2.mul(t2.one, (-0.0, INF, INF))) == "(0.0, inf, inf)"
