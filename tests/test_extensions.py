"""Section 4.5 extensions: multiple value spaces, keys-to-values."""

from __future__ import annotations


from repro import programs
from repro.core import (
    BoolAtom,
    Database,
    HybridEvaluator,
    Indicator,
    Program,
    RelAtom,
    Rule,
    SumProduct,
    ThresholdRule,
    naive_fixpoint,
    terms,
)
from repro.semirings import REAL_PLUS, TROP
from repro.semirings.base import FunctionRegistry


def company_control_setup(shares):
    """Build Example 4.3: CV/T over R+, C Boolean, threshold > 0.5.

    ``shares``: dict (owner, owned) → fraction.
    """
    companies = sorted({c for pair in shares for c in pair})
    cv_rule = Rule(
        "CV",
        terms(["X", "Z", "Y"]),
        (
            SumProduct(
                (
                    Indicator(BoolAtom("Same", terms(["X", "Z"]))),
                    RelAtom("S", terms(["X", "Y"])),
                )
            ),
            SumProduct(
                (
                    Indicator(BoolAtom("C", terms(["X", "Z"]))),
                    RelAtom("S", terms(["Z", "Y"])),
                )
            ),
        ),
    )
    t_rule = Rule(
        "T",
        terms(["X", "Y"]),
        (
            SumProduct(
                (RelAtom("CV", terms(["X", "Z", "Y"])),),
                condition=BoolAtom("Company", terms(["Z"])),
            ),
        ),
    )
    program = Program(
        rules=[cv_rule, t_rule],
        edbs={"S": 2},
        bool_edbs={"Same": 2, "Company": 1, "C": 2},
    )
    threshold = ThresholdRule(
        head_relation="C",
        head_args=terms(["X", "Y"]),
        body=SumProduct(
            (RelAtom("T", terms(["X", "Y"])),),
            condition=BoolAtom("Company", terms(["X"]))
            & BoolAtom("Company", terms(["Y"])),
        ),
        predicate=lambda v: v > 0.5,
    )
    db = Database(
        pops=REAL_PLUS,
        relations={"S": {k: v for k, v in shares.items()}},
        bool_relations={
            "Company": {(c,) for c in companies},
            "Same": {(c, c) for c in companies},
        },
    )
    return program, threshold, db


class TestCompanyControl:
    def test_direct_majority(self):
        program, threshold, db = company_control_setup(
            {("a", "b"): 0.6, ("b", "c"): 0.3}
        )
        hybrid = HybridEvaluator(program, [threshold], db)
        hybrid.run()
        assert ("a", "b") in hybrid.bool_facts("C")
        assert ("b", "c") not in hybrid.bool_facts("C")

    def test_transitive_control_via_recursion(self):
        """a controls b directly; a+b's combined shares control c —
        the recursion-through-aggregation showcase of Example 4.3."""
        program, threshold, db = company_control_setup(
            {
                ("a", "b"): 0.6,
                ("a", "c"): 0.3,
                ("b", "c"): 0.3,
            }
        )
        hybrid = HybridEvaluator(program, [threshold], db)
        hybrid.run()
        control = hybrid.bool_facts("C")
        assert ("a", "b") in control
        assert ("a", "c") in control  # 0.3 direct + 0.3 via controlled b
        assert ("b", "c") not in control

    def test_no_control_without_majority(self):
        program, threshold, db = company_control_setup(
            {("a", "b"): 0.5, ("b", "a"): 0.5}
        )
        hybrid = HybridEvaluator(program, [threshold], db)
        hybrid.run()
        assert hybrid.bool_facts("C") == set()

    def test_chain_of_control(self):
        """Control propagates down a chain a→b→c→d."""
        program, threshold, db = company_control_setup(
            {
                ("a", "b"): 0.9,
                ("b", "c"): 0.9,
                ("c", "d"): 0.9,
            }
        )
        hybrid = HybridEvaluator(program, [threshold], db)
        hybrid.run()
        control = hybrid.bool_facts("C")
        assert {("a", "b"), ("a", "c"), ("a", "d")} <= control
        assert {("b", "c"), ("b", "d"), ("c", "d")} <= control


class TestHybridLeavesCallerDatabase:
    def test_threshold_facts_stay_in_the_evaluator(self):
        """Derived threshold facts live in the evaluator's derived
        database: the caller's ``db`` is unchanged after a run, so a
        second run over it starts from the same EDB."""
        program, threshold, db = company_control_setup(
            {("a", "b"): 0.6, ("b", "c"): 0.3}
        )
        relations = {rel: dict(s) for rel, s in db.relations.items()}
        bool_relations = {rel: set(k) for rel, k in db.bool_relations.items()}
        first = HybridEvaluator(program, [threshold], db)
        first.run()
        assert "C" not in db.bool_relations
        assert {rel: dict(s) for rel, s in db.relations.items()} == relations
        assert {
            rel: set(k) for rel, k in db.bool_relations.items()
        } == bool_relations
        second = HybridEvaluator(program, [threshold], db)
        second.run()
        assert first.bool_facts("C") == second.bool_facts("C") == {("a", "b")}


class TestKeysToValues:
    def test_shortest_length_from_bool_relation(self):
        prog = programs.shortest_length_from_bool()
        registry = FunctionRegistry()
        registry.register("key_to_trop", float)
        db = Database(
            pops=TROP,
            bool_relations={
                "Length": {("a", "b", 3), ("a", "b", 7), ("a", "c", 2)}
            },
        )
        result = naive_fixpoint(prog, db, functions=registry)
        assert result.instance.get("ShortestLength", ("a", "b")) == 3.0
        assert result.instance.get("ShortestLength", ("a", "c")) == 2.0
