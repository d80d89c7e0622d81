"""AST terms/conditions (§2.4) and rules/programs (§4, §4.5)."""

from __future__ import annotations

import pytest

from repro.core import (
    And,
    BoolAtom,
    Compare,
    FuncFactor,
    Indicator,
    KeyAsValue,
    KeyFunc,
    Not,
    Or,
    Program,
    ProgramError,
    RelAtom,
    Rule,
    SumProduct,
    TrueCond,
    ValueConst,
    case_rule,
    const,
    terms,
    var,
)
from repro.core.ast import (
    condition_holds,
    eval_term,
    positive_bool_atoms,
    term_variables,
)
from repro.core.rules import factor_atoms, factor_variables


class TestTerms:
    def test_coercion_convention(self):
        xs = terms(["X", "foo", 3, "Y2"])
        assert xs[0] == var("X")
        assert xs[1] == const("foo")
        assert xs[2] == const(3)
        assert xs[3] == var("Y2")

    def test_eval_term(self):
        assert eval_term(var("X"), {"X": 7}) == 7
        assert eval_term(const("a"), {}) == "a"
        succ = KeyFunc("succ", lambda d: d + 1, (var("D"),))
        assert eval_term(succ, {"D": 9}) == 10

    def test_nested_keyfunc_variables(self):
        inner = KeyFunc("succ", lambda d: d + 1, (var("D"),))
        outer = KeyFunc("dbl", lambda d: 2 * d, (inner,))
        assert [v.name for v in term_variables(outer)] == ["D"]
        assert eval_term(outer, {"D": 3}) == 8


class TestConditions:
    def lookup(self, rel, key):
        return rel == "E" and key in {("a", "b"), ("b", "c")}

    def test_bool_atom(self):
        cond = BoolAtom("E", terms(["X", "Y"]))
        assert condition_holds(cond, {"X": "a", "Y": "b"}, self.lookup)
        assert not condition_holds(cond, {"X": "a", "Y": "c"}, self.lookup)

    def test_connectives(self):
        e = BoolAtom("E", terms(["X", "Y"]))
        comp = Compare("==", var("X"), const("a"))
        both = e & comp
        either = e | comp
        negated = ~e
        v_good = {"X": "a", "Y": "b"}
        v_bad = {"X": "b", "Y": "a"}
        assert condition_holds(both, v_good, self.lookup)
        assert not condition_holds(both, v_bad, self.lookup)
        assert condition_holds(either, v_good, self.lookup)
        assert not condition_holds(either, v_bad, self.lookup)
        assert condition_holds(negated, v_bad, self.lookup)

    def test_compare_operators(self):
        for op, expected in [
            ("==", False), ("!=", True), ("<", True),
            ("<=", True), (">", False), (">=", False),
        ]:
            cond = Compare(op, var("A"), var("B"))
            assert cond.evaluate({"A": 1, "B": 2}) is expected

    def test_compare_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Compare("~", var("A"), var("B"))

    def test_positive_bool_atoms_only_conjunctive(self):
        e = BoolAtom("E", terms(["X", "Y"]))
        f = BoolAtom("F", terms(["Y"]))
        cond = And((e, Or((f, TrueCond())), Not(f)))
        found = [a.relation for a in positive_bool_atoms(cond)]
        assert found == ["E"]  # F is under Or/Not: filter-only

    def test_variables(self):
        cond = And((
            BoolAtom("E", terms(["X", "Y"])),
            Compare("<", var("Z"), const(5)),
        ))
        assert cond.variables() == {"X", "Y", "Z"}


class TestFactors:
    def test_factor_variables(self):
        assert set(factor_variables(RelAtom("T", terms(["X", "Y"])))) == {"X", "Y"}
        assert set(factor_variables(ValueConst(3))) == set()
        assert set(
            factor_variables(Indicator(Compare("==", var("X"), const(1))))
        ) == {"X"}
        fn = FuncFactor("not", (RelAtom("W", terms(["Y"])),))
        assert set(factor_variables(fn)) == {"Y"}
        assert set(factor_variables(KeyAsValue(var("C")))) == {"C"}

    def test_factor_atoms_under_function_flag(self):
        fn = FuncFactor("not", (RelAtom("W", terms(["Y"])),))
        atoms = list(factor_atoms(fn))
        assert atoms == [(RelAtom("W", terms(["Y"])), True)]
        plain = list(factor_atoms(RelAtom("W", terms(["Y"]))))
        assert plain == [(RelAtom("W", terms(["Y"])), False)]

    def test_with_atom_renamed_follows_atoms_order(self):
        """Occurrence ``pos`` of :meth:`SumProduct.atoms` is the one
        renamed, nested under a function too; identical atoms are told
        apart by position."""
        e_xy = RelAtom("E", terms(["X", "Y"]))
        body = SumProduct(
            (
                e_xy,
                FuncFactor("f", (e_xy, ValueConst(2), RelAtom("T", terms(["Y"])))),
                e_xy,
            ),
            BoolAtom("B", terms(["X"])),
        )
        before = [atom for atom, _under in body.atoms()]
        for pos in range(len(before)):
            renamed = body.with_atom_renamed(pos, "D")
            after = list(renamed.atoms())
            assert [under for _a, under in after] == [
                under for _a, under in body.atoms()
            ]
            for i, (atom, _under) in enumerate(after):
                if i == pos:
                    assert atom == RelAtom("D", before[i].args)
                else:
                    assert atom == before[i]
            assert renamed.condition == body.condition


class TestRules:
    def tc_rule(self):
        return Rule(
            "T",
            terms(["X", "Y"]),
            (
                SumProduct((RelAtom("E", terms(["X", "Y"])),)),
                SumProduct(
                    (
                        RelAtom("T", terms(["X", "Z"])),
                        RelAtom("E", terms(["Z", "Y"])),
                    )
                ),
            ),
        )

    def test_head_variables(self):
        assert self.tc_rule().head_variables() == {"X", "Y"}

    def test_linearity(self):
        prog = Program(rules=[self.tc_rule()])
        assert prog.is_linear()
        quad = Rule(
            "T",
            terms(["X", "Y"]),
            (
                SumProduct(
                    (
                        RelAtom("T", terms(["X", "Z"])),
                        RelAtom("T", terms(["Z", "Y"])),
                    )
                ),
            ),
        )
        assert not Program(rules=[quad]).is_linear()

    def test_program_merges_same_head(self):
        r1 = Rule("T", terms(["X", "Y"]),
                  (SumProduct((RelAtom("E", terms(["X", "Y"])),)),))
        r2 = Rule("T", terms(["X", "Y"]),
                  (SumProduct((RelAtom("F", terms(["X", "Y"])),)),))
        prog = Program(rules=[r1, r2])
        assert len(prog.rules) == 1
        assert len(prog.rules[0].bodies) == 2

    def test_program_rejects_arity_clash(self):
        r1 = Rule("T", terms(["X"]), (SumProduct((RelAtom("E", terms(["X", "X"])),)),))
        r2 = Rule("T", terms(["X", "Y"]),
                  (SumProduct((RelAtom("E", terms(["X", "Y"])),)),))
        with pytest.raises(ProgramError):
            Program(rules=[r1, r2])

    def test_program_rejects_unsafe_head(self):
        unsafe = Rule("T", terms(["X", "Y"]),
                      (SumProduct((RelAtom("E", terms(["X", "X"])),)),))
        with pytest.raises(ProgramError) as err:
            Program(rules=[unsafe])
        assert "head variables" in str(err.value)

    def test_program_infers_edb_arities(self):
        prog = Program(rules=[self.tc_rule()])
        assert prog.edbs == {"E": 2}
        assert prog.idbs == {"T": 2}

    def test_constants_collected(self):
        rule = Rule(
            "L",
            terms(["X"]),
            (
                SumProduct(
                    (Indicator(Compare("==", var("X"), const("a"))),)
                ),
                SumProduct(
                    (RelAtom("E", (var("X"), const(42))),),
                ),
            ),
        )
        prog = Program(rules=[rule])
        assert prog.constants() == {"a", 42}


class TestCaseRule:
    def test_desugaring_mutual_exclusion(self):
        c1 = Compare("==", var("I"), const(0))
        c2 = Compare("<", var("I"), const(10))
        body1 = SumProduct((RelAtom("V", (const(0),)),))
        body2 = SumProduct((RelAtom("W", (var("I"),)),))
        body3 = SumProduct((ValueConst(99),))
        rule = case_rule("W", (var("I"),), [(c1, body1), (c2, body2), (None, body3)])
        assert len(rule.bodies) == 3
        # Branch 2 must carry ¬C1 ∧ C2; branch 3 (else) ¬C1 ∧ ¬C2.
        cond2 = rule.bodies[1].condition
        assert isinstance(cond2, And)
        assert isinstance(cond2.parts[0], Not)
        cond3 = rule.bodies[2].condition
        assert isinstance(cond3, And)
        assert all(isinstance(p, Not) for p in cond3.parts)

    def test_else_only(self):
        body = SumProduct((ValueConst(1),))
        rule = case_rule("W", (var("I"),), [(None, body)])
        assert isinstance(rule.bodies[0].condition, TrueCond)

    def test_preserves_existing_body_condition(self):
        c1 = Compare("==", var("I"), const(0))
        guarded = SumProduct(
            (RelAtom("V", (var("I"),)),),
            condition=BoolAtom("Idx", (var("I"),)),
        )
        rule = case_rule("W", (var("I"),), [(c1, guarded)])
        cond = rule.bodies[0].condition
        assert isinstance(cond, And)
