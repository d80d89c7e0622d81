"""Engine internals: valuation enumeration, guards, ICO properties."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import programs
from repro.core import Database, Instance, NaiveEvaluator
from repro.core.ast import (
    BoolAtom,
    Compare,
    Constant,
    TrueCond,
    Variable,
    terms,
    var,
)
from repro.core.valuations import (
    FactorEvaluator,
    Guard,
    body_guards,
    enumerate_valuations,
    late_idb_guards,
)
from repro.core.rules import FuncFactor, Indicator, KeyAsValue, RelAtom, SumProduct, ValueConst
from repro.semirings import LIFTED_REAL, THREE, TROP
from repro.semirings.base import FunctionRegistry


def bool_lookup_factory(facts):
    return lambda rel, key: key in facts.get(rel, set())


class TestEnumeration:
    def test_no_variables_yields_single_empty_valuation(self):
        vals = list(
            enumerate_valuations([], [], ["a"], TrueCond(), lambda r, k: False)
        )
        assert vals == [{}]

    def test_guard_driven_join(self):
        guard1 = Guard(
            args=terms(["X", "Y"]),
            keys=lambda: [("a", "b"), ("b", "c")],
        )
        guard2 = Guard(args=terms(["Y", "Z"]), keys=lambda: [("b", "c")])
        vals = list(
            enumerate_valuations(
                ["X", "Y", "Z"],
                [guard1, guard2],
                [],
                TrueCond(),
                lambda r, k: False,
            )
        )
        assert vals == [{"X": "a", "Y": "b", "Z": "c"}]

    def test_constant_positions_filter(self):
        guard = Guard(
            args=(Constant("a"), Variable("Y")),
            keys=lambda: [("a", "b"), ("x", "y")],
        )
        vals = list(
            enumerate_valuations(
                ["Y"], [guard], [], TrueCond(), lambda r, k: False
            )
        )
        assert vals == [{"Y": "b"}]

    def test_fallback_product_with_condition(self):
        cond = Compare("!=", var("X"), var("Y"))
        vals = list(
            enumerate_valuations(
                ["X", "Y"], [], ["a", "b"], cond, lambda r, k: False
            )
        )
        assert len(vals) == 2
        assert all(v["X"] != v["Y"] for v in vals)

    def test_no_duplicate_valuations(self):
        guard1 = Guard(args=terms(["X"]), keys=lambda: [("a",), ("b",)])
        guard2 = Guard(args=terms(["X"]), keys=lambda: [("a",), ("b",)])
        vals = list(
            enumerate_valuations(
                ["X"], [guard1, guard2], [], TrueCond(), lambda r, k: False
            )
        )
        assert sorted(v["X"] for v in vals) == ["a", "b"]

    def test_mismatched_key_arity_skipped(self):
        guard = Guard(args=terms(["X"]), keys=lambda: [("a", "b"), ("c",)])
        vals = list(
            enumerate_valuations(
                ["X"], [guard], [], TrueCond(), lambda r, k: False
            )
        )
        assert vals == [{"X": "c"}]


class TestGuardEligibility:
    def test_sparse_semiring_uses_idb_and_edb_guards(self):
        db = Database(pops=TROP, relations={"E": {("a", "b"): 1.0}})
        body = SumProduct(
            (
                RelAtom("T", terms(["X", "Z"])),
                RelAtom("E", terms(["Z", "Y"])),
            )
        )
        guards = body_guards(
            body,
            TROP,
            db,
            frozenset({"T"}),
            late_idb_guards(lambda name: lambda: [("a", "a")]),
        )
        assert len(guards) == 2

    def test_three_only_bool_guards(self):
        """Over THREE, IDB atoms are not guard-eligible (⊥ ≠ 0)."""
        db = Database(pops=THREE, bool_relations={"E": {("a", "b")}})
        body = SumProduct(
            (
                RelAtom("E", terms(["X", "Y"])),
                RelAtom("W", terms(["Y"])),
            )
        )
        guards = body_guards(
            body, THREE, db, frozenset({"W"}),
            late_idb_guards(lambda n: lambda: []),
        )
        assert len(guards) == 1  # only the Boolean E atom

    def test_lifted_reals_no_relation_guards(self):
        db = Database(pops=LIFTED_REAL, relations={"C": {("a",): 1.0}})
        body = SumProduct((RelAtom("C", terms(["X"])),))
        guards = body_guards(
            body, LIFTED_REAL, db, frozenset(),
            late_idb_guards(lambda n: lambda: []),
        )
        assert guards == []

    def test_function_wrapped_atoms_never_guard(self):
        db = Database(pops=TROP, relations={"E": {("a", "b"): 1.0}})
        body = SumProduct(
            (FuncFactor("ident", (RelAtom("E", terms(["X", "Y"])),)),)
        )
        guards = body_guards(
            body, TROP, db, frozenset(),
            late_idb_guards(lambda n: lambda: []),
        )
        assert guards == []


class TestFactorEvaluator:
    def test_all_factor_kinds(self):
        registry = FunctionRegistry()
        registry.register("double", lambda v: v * 2)
        registry.register("as_float", float)
        db = Database(
            pops=TROP,
            relations={"E": {("a", "b"): 1.5}},
            bool_relations={"B": {("a",)}},
        )
        ev = FactorEvaluator(TROP, db, registry)
        idb = Instance(TROP, {"T": {("a",): 7.0}})
        idbs = frozenset({"T"})
        valuation = {"X": "a", "Y": "b", "C": 3}

        assert ev.factor_value(
            RelAtom("E", terms(["X", "Y"])), valuation, idb, idbs
        ) == 1.5
        assert ev.factor_value(
            RelAtom("T", terms(["X"])), valuation, idb, idbs
        ) == 7.0
        assert ev.factor_value(ValueConst(2.0), valuation, idb, idbs) == 2.0
        assert ev.factor_value(
            Indicator(BoolAtom("B", terms(["X"]))), valuation, idb, idbs
        ) == TROP.one
        assert ev.factor_value(
            Indicator(BoolAtom("B", terms(["Y"]))), valuation, idb, idbs
        ) == TROP.zero
        assert ev.factor_value(
            FuncFactor("double", (ValueConst(2.0),)), valuation, idb, idbs
        ) == 4.0
        assert ev.factor_value(
            KeyAsValue(var("C"), convert="as_float"), valuation, idb, idbs
        ) == 3.0
        assert ev.factor_value(
            KeyAsValue(var("C")), valuation, idb, idbs
        ) == 3

    def test_bool_relation_as_factor_embeds(self):
        db = Database(pops=THREE, bool_relations={"E": {("a", "b")}})
        ev = FactorEvaluator(THREE, db)
        idb = Instance(THREE)
        present = ev.factor_value(
            RelAtom("E", terms(["X", "Y"])), {"X": "a", "Y": "b"}, idb, frozenset()
        )
        missing = ev.factor_value(
            RelAtom("E", terms(["X", "Y"])), {"X": "b", "Y": "a"}, idb, frozenset()
        )
        assert present is True
        assert missing is False  # 0 of THREE, not ⊥


class TestIcoProperties:
    """Semantic properties of the immediate consequence operator."""

    edge_sets = st.sets(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=6,
    )

    @settings(max_examples=20, deadline=None)
    @given(edge_sets)
    def test_ico_monotone_over_trop(self, edges):
        db = Database(
            pops=TROP, relations={"E": {e: 1.0 for e in edges}}
        )
        evaluator = NaiveEvaluator(programs.apsp(), db)
        lo = Instance(TROP)
        hi = Instance(TROP)
        for i, e in enumerate(sorted(edges)):
            hi.set("T", e, float(i + 1))
            lo.set("T", e, float(i + 2))  # larger = lower in ⊑
        assert lo.leq(hi)
        assert evaluator.ico(lo).leq(evaluator.ico(hi))

    @settings(max_examples=20, deadline=None)
    @given(edge_sets)
    def test_naive_trace_is_omega_chain(self, edges):
        db = Database(
            pops=TROP, relations={"E": {e: 1.0 for e in edges}}
        )
        evaluator = NaiveEvaluator(programs.apsp(), db)
        result = evaluator.run(capture_trace=True)
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert earlier.leq(later)

    def test_ico_of_fixpoint_is_fixpoint(self, fig2a_trop_db):
        evaluator = NaiveEvaluator(programs.sssp("a"), fig2a_trop_db)
        result = evaluator.run()
        again = evaluator.ico(result.instance)
        assert again.equals(result.instance)
