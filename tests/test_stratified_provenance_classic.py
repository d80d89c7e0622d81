"""Extension tests: stratified negation, provenance, classic semirings."""

from __future__ import annotations

import pytest

from repro import analysis, programs, workloads
from repro.analysis import (
    derivation_count,
    monomial_support,
    provenance,
    symbol_for,
)
from repro.core import (
    BoolAtom,
    Database,
    Indicator,
    Not,
    Program,
    RelAtom,
    Rule,
    SumProduct,
    naive_fixpoint,
    seminaive_fixpoint,
    solve,
    terms,
)
from repro.negation import (
    GroundNormalProgram,
    NormalRule,
    StratificationError,
    alternating_fixpoint,
)
from repro.semirings import BOOL, BOTTLENECK, TROP, VITERBI
from repro.semirings.properties import check_minus_laws, check_pops
from repro.semirings.stability import is_zero_stable


class TestClassicSemirings:
    @pytest.mark.parametrize("pops", [BOTTLENECK, VITERBI], ids=lambda s: s.name)
    def test_axioms(self, pops):
        assert check_pops(pops) is None
        assert check_minus_laws(pops, pops.sample_values()) is None
        assert is_zero_stable(pops)

    def test_widest_path(self):
        edges = {
            ("s", "a"): 4.0,
            ("a", "t"): 3.0,
            ("s", "t"): 2.0,
        }
        db = Database(pops=BOTTLENECK, relations={"E": edges})
        result = naive_fixpoint(programs.apsp(), db)
        assert result.instance.get("T", ("s", "t")) == 3.0

    def test_widest_path_seminaive_agrees(self):
        edges = workloads.random_weighted_digraph(7, 0.35, seed=12)
        db = Database(pops=BOTTLENECK, relations={"E": dict(edges)})
        naive = naive_fixpoint(programs.apsp(), db)
        semi = seminaive_fixpoint(programs.apsp(), db)
        assert semi.instance.equals(naive.instance)

    def test_most_reliable_path(self):
        edges = {("s", "a"): 0.9, ("a", "t"): 0.9, ("s", "t"): 0.7}
        db = Database(pops=VITERBI, relations={"E": edges})
        result = naive_fixpoint(programs.apsp(), db)
        assert result.instance.get("T", ("s", "t")) == pytest.approx(0.81)

    def test_viterbi_cycles_converge(self):
        """Probabilities < 1 on a cycle decay; max-times is 0-stable so
        the fixpoint ignores loops entirely."""
        edges = {("a", "b"): 0.5, ("b", "a"): 0.5}
        db = Database(pops=VITERBI, relations={"E": edges})
        result = naive_fixpoint(programs.apsp(), db)
        assert result.instance.get("T", ("a", "b")) == 0.5
        assert result.instance.get("T", ("a", "a")) == 0.25


def reach_then_unreached():
    """Reach(x) from Src along E; Unreached(x) for the other nodes.

    One program: ``Unreached`` negates ``Reach`` in a condition, so the
    SCC scheduler evaluates it in a later stratum than ``Reach``.
    """
    reach = Rule(
        "Reach",
        terms(["X"]),
        (
            SumProduct(
                (Indicator(BoolAtom("Src", terms(["X"]))),),
                condition=BoolAtom("Node", terms(["X"])),
            ),
            SumProduct(
                (RelAtom("Reach", terms(["Z"])),),
                condition=BoolAtom("E", terms(["Z", "X"])),
            ),
        ),
    )
    unreached = Rule(
        "Unreached",
        terms(["X"]),
        (
            SumProduct(
                (Indicator(BoolAtom("Node", terms(["X"]))),),
                condition=BoolAtom("Node", terms(["X"]))
                & Not(BoolAtom("Reach", terms(["X"]))),
            ),
        ),
    )
    return Program(
        rules=[reach, unreached], bool_edbs={"Src": 1, "Node": 1, "E": 2}
    )


class TestStratified:
    def _db(self, edges, nodes, src):
        return Database(
            pops=BOOL,
            bool_relations={
                "E": set(edges),
                "Node": {(n,) for n in nodes},
                "Src": {(src,)},
            },
        )

    def test_reach_unreached(self):
        edges = {("a", "b"), ("b", "c"), ("d", "e")}
        nodes = "abcde"
        result = solve(reach_then_unreached(), self._db(edges, nodes, "a"))
        reached = {k[0] for k in result.instance.support("Reach")}
        unreached = {k[0] for k in result.instance.support("Unreached")}
        assert reached == {"a", "b", "c"}
        assert unreached == {"d", "e"}
        assert [r.relations for r in result.strata] == [
            ("Reach",), ("Unreached",)
        ]

    def test_matches_well_founded(self):
        """On a stratifiable program the WF model is total and equal."""
        edges = {("a", "b"), ("b", "c"), ("d", "e")}
        nodes = "abcde"
        result = solve(reach_then_unreached(), self._db(edges, nodes, "a"))

        rules = [NormalRule(head=("Reach", "a"))]
        for x, y in edges:
            rules.append(
                NormalRule(head=("Reach", y), positive=(("Reach", x),))
            )
        for n in nodes:
            rules.append(
                NormalRule(head=("Unreached", n), negative=(("Reach", n),))
            )
        wf = alternating_fixpoint(GroundNormalProgram(rules=rules))
        assert not wf.undefined_atoms
        for n in nodes:
            assert (
                result.instance.get("Reach", (n,)) is True
            ) == (wf.value(("Reach", n)) == "true")
            assert (
                result.instance.get("Unreached", (n,)) is True
            ) == (wf.value(("Unreached", n)) == "true")

    def test_rejects_negation_of_own_stratum(self):
        """Win negates Win in its own condition: no stratum below it."""
        win = Rule(
            "Win",
            terms(["X"]),
            (
                SumProduct(
                    (Indicator(BoolAtom("E", terms(["X", "Y"]))),),
                    condition=BoolAtom("E", terms(["X", "Y"]))
                    & Not(BoolAtom("Win", terms(["Y"]))),
                ),
            ),
        )
        db = self._db({("a", "b")}, "ab", "a")
        with pytest.raises(StratificationError) as err:
            solve(Program(rules=[win], bool_edbs={"E": 2}), db)
        assert "own" in str(err.value)

    def test_input_database_not_mutated(self):
        edges = {("a", "b")}
        db = self._db(edges, "ab", "a")
        before = set(db.bool_relations)
        solve(reach_then_unreached(), db)
        assert set(db.bool_relations) == before

    def test_pops_values_published_across_strata(self):
        """Far reads the tropical distances of a lower stratum as values
        and their support as a condition."""
        dist = programs.sssp("a", label="D")
        far = Rule(
            "Far",
            terms(["X"]),
            (
                SumProduct(
                    (RelAtom("D", terms(["X"])),),
                    condition=BoolAtom("D", terms(["X"])),
                ),
            ),
        )
        program = Program(rules=dist.rules + [far], edbs=dict(dist.edbs))
        db = Database(
            pops=TROP, relations={"E": workloads.fig_2a_graph()}
        )
        result = solve(program, db)
        assert result.instance.get("Far", ("d",)) == 8.0


class TestProvenance:
    def _tc_db(self):
        return Database(
            pops=BOOL,
            relations={"E": {("a", "b"): True, ("b", "c"): True}},
        )

    def test_single_edge_provenance(self):
        prov = provenance(programs.transitive_closure(), self._tc_db(), 1)
        element = prov[("T", ("a", "b"))]
        assert monomial_support(element) == ((symbol_for("E", ("a", "b")),),)
        assert derivation_count(element) == 1

    def test_two_hop_uses_both_edges(self):
        prov = provenance(programs.transitive_closure(), self._tc_db(), 3)
        element = prov[("T", ("a", "c"))]
        (bag,) = monomial_support(element)
        assert bag == (
            symbol_for("E", ("a", "b")),
            symbol_for("E", ("b", "c")),
        )

    def test_derivation_counting_on_diamond(self):
        """Two distinct derivations for the diamond's far corner."""
        db = Database(
            pops=BOOL,
            relations={
                "E": {
                    ("s", "l"): True,
                    ("s", "r"): True,
                    ("l", "t"): True,
                    ("r", "t"): True,
                }
            },
        )
        prov = provenance(programs.transitive_closure(), db, 4)
        element = prov[("T", ("s", "t"))]
        assert derivation_count(element) == 2
        assert len(monomial_support(element)) == 2

    def test_depth_truncation_is_lemma_5_6(self):
        """Provenance at depth q over a 3-chain: T(a,d) appears only
        once derivations of depth 3 are admitted."""
        db = Database(
            pops=BOOL,
            relations={
                "E": {("a", "b"): True, ("b", "c"): True, ("c", "d"): True}
            },
        )
        prog = programs.transitive_closure()
        assert ("T", ("a", "d")) not in provenance(prog, db, 2)
        assert ("T", ("a", "d")) in provenance(prog, db, 3)

    def test_recursive_cycle_provenance_grows(self):
        """Over a cycle the (unstable) free semiring accumulates one
        new walk per extra depth — no finite provenance exists."""
        db = Database(
            pops=BOOL,
            relations={"E": {("a", "b"): True, ("b", "a"): True}},
        )
        prog = programs.transitive_closure()
        counts = [
            derivation_count(
                provenance(prog, db, q).get(("T", ("a", "b")), ())
            )
            for q in (1, 3, 5)
        ]
        assert counts[0] < counts[1] < counts[2]


class TestConvergenceOfClassics:
    def test_classify_bottleneck_case_v(self):
        db = Database(
            pops=BOTTLENECK, relations={"E": {("a", "b"): 1.0}}
        )
        report = analysis.classify(programs.apsp(), db)
        assert report.taxonomy_case == "(v)"
