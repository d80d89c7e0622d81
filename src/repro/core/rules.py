"""Rules and programs of datalog° (Definitions 2.5, 2.7; Section 4).

A datalog° program is a set of **sum-sum-product rules**, one per IDB::

    T(X₁, …, X_k) :- E₁ ⊕ E₂ ⊕ …          (Eq. 26)

where each ``E_j`` is a *conditional sum-product*::

    ⊕_{X_{k+1}, …, X_p} { R₁(t̄₁) ⊗ … ⊗ R_m(t̄_m) | Φ(V) }   (Eq. 10)

Body factors may be:

* :class:`RelAtom` — a POPS-relation atom (EDB or IDB);
* :class:`ValueConst` — an explicit POPS constant;
* :class:`Indicator` — the bracket ``[C]ᵘᵥ`` mapping a condition to a
  pair of POPS values (Section 4.4), defaulting to ``(1, 0)``;
* :class:`FuncFactor` — an interpreted (monotone) function applied to
  sub-factors, e.g. ``not(W(y))`` over THREE (Section 7.2);
* :class:`KeyAsValue` — a key term injected into the value space
  (Section 4.5 "keys to values"), e.g. the path length ``C`` in the
  ShortestLength rule.

Case statements (Section 4.5) are provided as a constructor that
desugars to a sum-sum-product with mutually exclusive conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .ast import (
    And,
    BoolAtom,
    Condition,
    Not,
    Or,
    Term,
    TrueCond,
    term_variables,
)

Value = Any


# ---------------------------------------------------------------------------
# Body factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelAtom:
    """A POPS-relation atom ``R(t̄)`` contributing the value ``I[R(θt̄)]``."""

    relation: str
    args: Tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class ValueConst:
    """A POPS constant appearing as a factor."""

    value: Value

    def __str__(self) -> str:
        return f"⟨{self.value!r}⟩"


@dataclass(frozen=True)
class Indicator:
    """The indicator ``[C]ᵗᶠ``: ``t`` when ``C`` holds, else ``f``.

    With the default ``(one, zero)`` reading this is the bracket of
    Section 4.4; the SSSP example uses ``[X = a]`` with values
    ``(0, ∞)`` in ``Trop+`` — i.e. its ``(one, zero)``.  ``true_value``
    / ``false_value`` of ``None`` mean "the structure's one/zero".
    """

    condition: Condition
    true_value: Optional[Value] = None
    false_value: Optional[Value] = None

    def __str__(self) -> str:
        return f"[{self.condition}]"


@dataclass(frozen=True)
class FuncFactor:
    """An interpreted value-space function applied to sub-factors.

    The function is resolved by name against the engine's
    :class:`~repro.semirings.base.FunctionRegistry`; it must be monotone
    w.r.t. the POPS order for the least-fixpoint semantics to apply
    (Section 4.5 / Section 7).
    """

    name: str
    args: Tuple["Factor", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class KeyAsValue:
    """A key term used as a POPS value (Section 4.5, "keys to values").

    ``convert`` (resolved by name, like :class:`FuncFactor`) maps the
    key to a POPS value; ``None`` means the identity embedding.
    """

    term: Term
    convert: Optional[str] = None

    def __str__(self) -> str:
        return f"val({self.term})"


Factor = Union[RelAtom, ValueConst, Indicator, FuncFactor, KeyAsValue]


def factor_variables(factor: Factor) -> Iterator[str]:
    """Yield names of key variables occurring in a factor."""
    if isinstance(factor, RelAtom):
        for arg in factor.args:
            for v in term_variables(arg):
                yield v.name
    elif isinstance(factor, Indicator):
        yield from factor.condition.variables()
    elif isinstance(factor, FuncFactor):
        for sub in factor.args:
            yield from factor_variables(sub)
    elif isinstance(factor, KeyAsValue):
        for v in term_variables(factor.term):
            yield v.name


def factor_atoms(factor: Factor) -> Iterator[Tuple[RelAtom, bool]]:
    """Yield ``(atom, under_function)`` for every RelAtom in a factor.

    ``under_function`` is true when the atom sits beneath a
    :class:`FuncFactor`; such atoms must not be skipped when absent
    (the function may map ``0``/``⊥`` to something else).
    """
    if isinstance(factor, RelAtom):
        yield (factor, False)
    elif isinstance(factor, FuncFactor):
        for sub in factor.args:
            for atom, _ in factor_atoms(sub):
                yield (atom, True)


def _map_atoms(factor: Factor, fn: Callable[[RelAtom], RelAtom]) -> Factor:
    """``factor`` with every RelAtom replaced by ``fn(atom)``, called in
    :func:`factor_atoms` order (the same descent: a RelAtom is a leaf,
    a :class:`FuncFactor` visits its arguments left to right)."""
    if isinstance(factor, RelAtom):
        return fn(factor)
    if isinstance(factor, FuncFactor):
        return FuncFactor(
            factor.name, tuple(_map_atoms(sub, fn) for sub in factor.args)
        )
    return factor


def _condition_reads(
    cond: Condition, negated: bool
) -> Iterator[Tuple[BoolAtom, bool]]:
    if isinstance(cond, BoolAtom):
        yield (cond, negated)
    elif isinstance(cond, Not):
        yield from _condition_reads(cond.inner, not negated)
    elif isinstance(cond, (And, Or)):
        for part in cond.parts:
            yield from _condition_reads(part, negated)


def _indicator_reads(factor: Factor) -> Iterator[Tuple[BoolAtom, bool]]:
    if isinstance(factor, Indicator):
        yield from _condition_reads(factor.condition, False)
    elif isinstance(factor, FuncFactor):
        for sub in factor.args:
            yield from _indicator_reads(sub)


# ---------------------------------------------------------------------------
# Sum-products and rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumProduct:
    """A conditional sum-product body ``⊕_{bound} {∏ factors | Φ}``.

    The bound variables are those occurring in the body but not in the
    rule head; they are aggregated with ``⊕``.
    """

    factors: Tuple[Factor, ...]
    condition: Condition = field(default_factory=TrueCond)

    def variables(self) -> FrozenSet[str]:
        """Return all key-variable names in factors and condition."""
        names = set(self.condition.variables())
        for f in self.factors:
            names.update(factor_variables(f))
        return frozenset(names)

    def atoms(self) -> Iterator[Tuple[RelAtom, bool]]:
        """Yield every RelAtom with its ``under_function`` flag."""
        for f in self.factors:
            yield from factor_atoms(f)

    def with_atom_renamed(self, pos: int, relation: str) -> "SumProduct":
        """This body with atom occurrence ``pos`` (in :meth:`atoms`
        order) reading ``relation`` instead; the condition is kept."""
        seen = -1

        def rename(atom: RelAtom) -> RelAtom:
            nonlocal seen
            seen += 1
            if seen == pos:
                return RelAtom(relation, atom.args)
            return atom

        factors = tuple(_map_atoms(f, rename) for f in self.factors)
        return SumProduct(factors, self.condition)

    def bool_reads(self) -> Iterator[Tuple[BoolAtom, bool]]:
        """Yield ``(atom, negated)`` for every Boolean atom a condition
        of the body reads: its own ``Φ`` and every :class:`Indicator`,
        including those under a :class:`FuncFactor`.  ``negated`` is
        true under an odd number of negations."""
        yield from _condition_reads(self.condition, False)
        for f in self.factors:
            yield from _indicator_reads(f)

    def enumeration_order(self) -> List[str]:
        """Deterministic variable order for valuation enumeration.

        Every engine (naïve, semi-naïve, grounding) enumerates a body's
        valuations over the same variable order so their join plans,
        work counters and traces are comparable.
        """
        return sorted(self.variables())

    def __str__(self) -> str:
        prod = " ⊗ ".join(map(str, self.factors)) or "1"
        if isinstance(self.condition, TrueCond):
            return prod
        return f"{{ {prod} | {self.condition} }}"


@dataclass(frozen=True)
class Rule:
    """A sum-sum-product rule ``T(t̄) :- E₁ ⊕ … ⊕ E_q`` (Definition 2.7)."""

    head_relation: str
    head_args: Tuple[Term, ...]
    bodies: Tuple[SumProduct, ...]

    def head_variables(self) -> FrozenSet[str]:
        """Return the names of the head (free) variables."""
        return frozenset(
            v.name for arg in self.head_args for v in term_variables(arg)
        )

    def idb_occurrences(self, idbs: FrozenSet[str]) -> int:
        """Return the max number of IDB atoms in any one sum-product.

        A program is *linear* when this is ≤ 1 for every rule
        (Section 4: "each sum-product expression contains at most one
        IDB predicate").
        """
        worst = 0
        for body in self.bodies:
            count = sum(1 for atom, _ in body.atoms() if atom.relation in idbs)
            worst = max(worst, count)
        return worst

    def __str__(self) -> str:
        head = f"{self.head_relation}({', '.join(map(str, self.head_args))})"
        return f"{head} :- " + " ⊕ ".join(map(str, self.bodies))


def case_rule(
    head_relation: str,
    head_args: Sequence[Term],
    cases: Sequence[Tuple[Optional[Condition], SumProduct]],
) -> Rule:
    """Desugar a case statement into a sum-sum-product rule (§4.5).

    ``cases`` is a list of ``(condition, body)`` pairs; a ``None``
    condition marks the final ``else`` branch.  Branch ``i`` fires under
    ``¬C₁ ∧ … ∧ ¬C_{i−1} ∧ C_i``, making the branches mutually
    exclusive, exactly as in the paper's desugaring.
    """
    bodies: List[SumProduct] = []
    seen: List[Condition] = []
    for cond, body in cases:
        negations: Tuple[Condition, ...] = tuple(Not(c) for c in seen)
        if cond is None:
            guard: Condition = And(negations) if negations else TrueCond()
        else:
            guard = And(negations + (cond,)) if negations else cond
            seen.append(cond)
        merged = (
            guard
            if isinstance(body.condition, TrueCond)
            else And((guard, body.condition))
        )
        bodies.append(SumProduct(factors=body.factors, condition=merged))
    return Rule(head_relation, tuple(head_args), tuple(bodies))


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class ProgramError(ValueError):
    """Raised when a program fails validation."""


@dataclass
class Program:
    """A datalog° program: rules plus vocabulary declarations (Eq. 26).

    Attributes:
        rules: One rule per IDB (multiple rules with the same head are
            merged into one sum-sum-product at construction, following
            the paper's convention).
        edbs: Arities of the POPS-valued EDB relations (``σ``).
        bool_edbs: Arities of the Boolean EDB relations (``σ_B``).
        idbs: Arities of the IDB relations (``τ``), inferred from heads
            when not given.
    """

    rules: List[Rule]
    edbs: Dict[str, int] = field(default_factory=dict)
    bool_edbs: Dict[str, int] = field(default_factory=dict)
    idbs: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Rules with the same head *and the same head terms* merge into
        # one sum-sum-product (the paper's convention); same-head rules
        # with different head terms (e.g. magic rules generated from
        # different call sites) are kept separate — the engines sum
        # contributions per ground head atom either way.
        merged: Dict[Tuple[str, Tuple[Term, ...]], Rule] = {}
        order: List[Tuple[str, Tuple[Term, ...]]] = []
        for rule in self.rules:
            name = rule.head_relation
            declared_arity = next(
                (
                    len(k[1])
                    for k in order
                    if k[0] == name
                ),
                None,
            )
            if declared_arity is not None and declared_arity != len(rule.head_args):
                raise ProgramError(f"inconsistent arity for IDB {name}")
            key = (name, rule.head_args)
            if key in merged:
                prev = merged[key]
                merged[key] = Rule(
                    name, prev.head_args, prev.bodies + rule.bodies
                )
            else:
                merged[key] = rule
                order.append(key)
        self.rules = [merged[key] for key in order]
        for rule in self.rules:
            self.idbs.setdefault(rule.head_relation, len(rule.head_args))
        self._validate()

    # ------------------------------------------------------------------
    def idb_names(self) -> FrozenSet[str]:
        """Return the set of IDB relation names."""
        return frozenset(self.idbs)

    def is_linear(self) -> bool:
        """Return whether every sum-product has ≤ 1 IDB atom (§4)."""
        idbs = self.idb_names()
        return all(rule.idb_occurrences(idbs) <= 1 for rule in self.rules)

    def condition_idbs(self) -> FrozenSet[str]:
        """IDBs some body reads in a condition.

        Conditions see Boolean stores only, so a condition reads an IDB
        as the key set of its finished fixpoint: the stratum scheduler
        publishes that view when the IDB's component is frozen, which is
        stratified negation (§7) when the read is negated.
        """
        idbs = self.idb_names()
        return frozenset(
            atom.relation
            for rule in self.rules
            for body in rule.bodies
            for atom, _negated in body.bool_reads()
            if atom.relation in idbs
        )

    def constants(self) -> FrozenSet[Any]:
        """Return all key constants mentioned by the program."""
        from .ast import Constant, KeyFunc

        found: set = set()

        def walk_term(t: Term) -> None:
            if isinstance(t, Constant):
                found.add(t.value)
            elif isinstance(t, KeyFunc):
                for a in t.args:
                    walk_term(a)

        def walk_condition(c: Condition) -> None:
            from .ast import Compare

            if isinstance(c, BoolAtom):
                for a in c.args:
                    walk_term(a)
            elif isinstance(c, Compare):
                walk_term(c.left)
                walk_term(c.right)
            elif isinstance(c, Not):
                walk_condition(c.inner)
            elif isinstance(c, (And, Or)):
                for p in c.parts:
                    walk_condition(p)

        def walk_factor(f: Factor) -> None:
            if isinstance(f, RelAtom):
                for a in f.args:
                    walk_term(a)
            elif isinstance(f, Indicator):
                walk_condition(f.condition)
            elif isinstance(f, FuncFactor):
                for sub in f.args:
                    walk_factor(sub)
            elif isinstance(f, KeyAsValue):
                walk_term(f.term)

        for rule in self.rules:
            for t in rule.head_args:
                walk_term(t)
            for body in rule.bodies:
                walk_condition(body.condition)
                for f in body.factors:
                    walk_factor(f)
        return frozenset(found)

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        """Check vocabulary consistency and head safety."""
        idbs = self.idb_names()
        for rule in self.rules:
            declared = self.idbs.get(rule.head_relation)
            if declared is not None and declared != len(rule.head_args):
                raise ProgramError(
                    f"IDB {rule.head_relation} declared with arity {declared}"
                    f" but used with arity {len(rule.head_args)}"
                )
            for body in rule.bodies:
                for atom, _ in body.atoms():
                    if atom.relation in idbs:
                        expected = self.idbs[atom.relation]
                    elif atom.relation in self.edbs:
                        expected = self.edbs[atom.relation]
                    else:
                        # Treat undeclared body relations as POPS EDBs.
                        self.edbs[atom.relation] = len(atom.args)
                        expected = len(atom.args)
                    if expected != len(atom.args):
                        raise ProgramError(
                            f"relation {atom.relation} used with arity "
                            f"{len(atom.args)}, expected {expected}"
                        )
            head_vars = rule.head_variables()
            for body in rule.bodies:
                missing = head_vars - body.variables()
                if missing:
                    raise ProgramError(
                        f"head variables {sorted(missing)} of "
                        f"{rule.head_relation} do not occur in body {body}"
                    )

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)
