"""Demand-driven query path: magic sets as a planner stage (PR 10).

The textbook value-annotated magic transformation guards each rule with
``supp(m_R_α(x̄))``, where ``supp`` maps ``0 ↦ 0`` and everything else
to ``1``.  Written as an interpreted
:class:`~repro.core.rules.FuncFactor` wrapping an IDB atom, that guard
(a) cannot feed the enumeration core as a probe guard, (b) resolves
through the function registry on every valuation, and (c) has no
differential affinity, so semi-naïve evaluation rejects it.

This module builds the rewrite as a *planner stage* whose output is
an ordinary datalog° program running unchanged — and at full speed —
through every modern layer (SCC scheduling, Plan IR, closure kernels,
codegen, batched columns, sharding).  The trick is an invariant instead
of a function call:

**every magic predicate's value is exactly ``1``** (the POPS one).

* The seed rule derives ``m_Q_α(x̄) :- seed_Q_α(x̄)`` from a one-tuple
  POPS relation ``__demand_seed_<Q>_<α> = {c̄ ↦ 1}`` that each query
  adds to the database (:meth:`~repro.core.instance.Database.derive`):
  the rewritten program holds no query constant, so it serves every
  query of the adornment, and the seed reaches the kernels through an
  ordinary guard.  Reading it is a one-key scan, counted like any
  other (the textbook seed ``m_Q_α(c̄) :- 1`` read nothing).
* A magic rule's body is the *parent* magic atom (value ``1``) alone;
  the sideways-passing prefix joins in through **Boolean support
  views**: for each prefix EDB atom ``E(t̄)`` the rewrite emits the
  condition atom ``supp_E(t̄)`` over an injected Boolean relation
  ``supp_E = support(E)``.  Conditions are key-only — they restrict and
  generate bindings through the existing bool-guard/pushdown-filter
  slots of the enumeration core, never touching the value product.
  This is exactly "``supp`` lowers to the pushdown-filter slot": on a
  naturally ordered POPS the stores hold no zero entries, so
  *membership in the support* and ``supp(value) = 1`` coincide.
* An answer rule is the original body with one extra **plain**
  ``RelAtom`` factor, ``m_R_α(bound x̄)``.  Its carried value is ``1``,
  the multiplicative identity — so the factor is semantically the
  textbook ``supp`` guard, while structurally it is an ordinary
  value-carrying index probe that every backend already compiles, and
  an ordinary linear IDB occurrence the semi-naïve differential
  handles.

The invariant holds exactly on the **supported fragment** (checked by
:func:`demand_verdict`): a naturally ordered semiring (``⊥ = 0``, only
non-zero values stored) with idempotent ``⊕`` (``1 ⊕ 1 = 1`` across
seed/magic-rule derivations and across multiple adornments of one
relation) and no zero divisors (``supp`` distributes over ``⊗``), on
programs whose sideways prefixes are **EDB-only** (an IDB atom feeding
a later occurrence's bindings — e.g. the quadratic ``T(X,Z)·T(Z,Y)`` —
would need the evolving IDB *support* as a view, which is no longer a
static Boolean relation), whose reached conditions read no IDB (a
stratified negation ``¬D(X)`` reads ``D``'s whole fixpoint, which a
demanded part does not provide) and whose reached bodies put no IDB
under an interpreted function (no binding pattern is demanded of it,
so it would read ``⊥``).  Everything outside the fragment
falls back to full evaluation with a counted
``stats["demand_fallbacks"]``.

Demanded atoms keep their full-evaluation values byte-for-byte (the
classic magic-set correctness argument, which the ``supp``-homomorphism
conditions above make value-aware).  Dropping a restriction is always
sound here — it only *over*-demands, and over-demanded atoms still
converge to their full-fixpoint values — so the rewrite drops any
condition conjunct it cannot bind rather than rejecting the program.
The differential tests assert byte-parity across four semirings × four
engines × every schedule.

**Prepared queries.**  Everything but the seed is the same for every
constant, so :func:`demand_solve` prepares it once per (program
content, database, query relation and adornment) and keeps it in a
process-wide LRU of :data:`PREPARED_CACHE_SIZE`
:class:`PreparedQuery` entries: the rewrite, the views-derived database,
the fragment verdict, the pruned SCC condensation with one sub-program
per stratum, the pre-flight verdict and the codegen kernels
(:class:`~repro.core.kernels.KernelScope`).  A later query of the same
adornment derives its seed and re-binds those kernels to its own
``JoinStats`` and budget poll: it builds no join plan and generates no
source.  The program is keyed by content (its rules and vocabularies),
the database by weak identity: databases are immutable, so a mutation
derives a new one that misses, and the old one's entries are dropped
when it is collected.  Queries whose constants lie outside the entry's
domain (active domain plus program constants) change ``N`` and the
kernels' enumeration domain; they reuse the rewrite and strata but
build their kernels and pre-flight afresh.  The other engines, and
the sharded strata of ``engine_workers > 1``, reuse the rewrite and
build their kernels per solve.

**Plan policy.**  A prepared query's join plans are the ones its
first solve chose (from that solve's relation sizes); later constants
reuse them.  The fragment's ``⊕`` is idempotent, so the order matches
are accumulated in cannot change a value: only ``keys_examined`` and
``probes`` may differ from planning every query afresh.
"""

from __future__ import annotations

import re
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..semirings.base import FunctionRegistry, POPS
from . import guardrails
from .ast import (
    And,
    BoolAtom,
    Condition,
    Constant,
    Not,
    Term,
    TrueCond,
    Variable,
    positive_bool_atoms,
    term_variables,
)
from .instance import Database, Instance
from .kernels import KernelScope
from .naive import EvaluationResult
from .rules import (
    FuncFactor,
    Indicator,
    KeyAsValue,
    Program,
    ProgramError,
    RelAtom,
    Rule,
    SumProduct,
    ValueConst,
    factor_atoms,
)
from .scheduler import Strata, stratify

#: Reserved name prefixes of the rewrite's auxiliary relations.  Magic
#: predicates are IDBs of the rewritten program (stripped from the
#: returned instance); support views are Boolean relations injected
#: into the augmented database; the seed is the one-tuple POPS relation
#: holding the query's constants.
MAGIC_PREFIX = "__demand_m_"
VIEW_PREFIX = "__demand_supp_"
SEED_PREFIX = "__demand_seed_"

Adornment = str  # e.g. "bf": first argument bound, second free.


class DemandError(ValueError):
    """Raised for malformed demand queries (not for unsupported
    fragments — those produce an unsupported :class:`DemandVerdict`
    and a counted fallback instead)."""


# ---------------------------------------------------------------------------
# Query patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemandQuery:
    """A query pattern: ``pattern`` binds positions to constants, with
    ``None`` marking free positions — ``DemandQuery("T", ("a", None))``
    asks for ``T(a, Y)``."""

    relation: str
    pattern: Tuple[Any, ...]

    @property
    def adornment(self) -> Adornment:
        return "".join("f" if v is None else "b" for v in self.pattern)

    @property
    def bindings(self) -> Tuple[Any, ...]:
        return tuple(v for v in self.pattern if v is not None)

    def matches(self, key: Tuple[Any, ...]) -> bool:
        """Whether a ground key fits the bound positions."""
        return len(key) == len(self.pattern) and all(
            p is None or p == k for p, k in zip(self.pattern, key)
        )

    def __str__(self) -> str:
        inner = ", ".join("?" if v is None else str(v) for v in self.pattern)
        return f"{self.relation}({inner})"


_QUERY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")


def parse_query(text: str) -> DemandQuery:
    """Parse the CLI/HTTP query syntax ``T(a, ?)``.

    Arguments: ``?``/``_`` mark free positions; integer-looking atoms
    are coerced to ``int`` (matching the serve front end's key
    parsing); everything else is a string constant (quotes stripped).
    """
    match = _QUERY_RE.match(text)
    if not match:
        raise DemandError(
            f"unparseable query {text!r}; expected RELATION(arg, ...) "
            "with '?' or '_' for free positions"
        )
    relation, inner = match.group(1), match.group(2).strip()
    pattern: List[Any] = []
    if inner:
        for position, atom in enumerate(inner.split(",")):
            atom = atom.strip()
            if not atom:
                raise DemandError(
                    f"query {text!r} has an empty argument at position "
                    f"{position}; write '?' or '_' for a free position"
                )
            if atom in ("?", "_"):
                pattern.append(None)
                continue
            try:
                pattern.append(int(atom))
            except ValueError:
                pattern.append(atom.strip("'\""))
    return DemandQuery(relation, tuple(pattern))


QueryLike = Union[DemandQuery, str, Tuple[str, Sequence[Any]]]


def normalize_query(query: QueryLike) -> DemandQuery:
    """Coerce the accepted query spellings into a :class:`DemandQuery`.

    Accepts a :class:`DemandQuery`, the string form ``"T(a,?)"``, or
    the tuple form ``("T", ("a", None))``.
    """
    if isinstance(query, DemandQuery):
        return query
    if isinstance(query, str):
        return parse_query(query)
    try:
        relation, pattern = query
    except (TypeError, ValueError) as exc:
        raise DemandError(
            f"bad query {query!r}; use ('T', ('a', None)) or 'T(a,?)'"
        ) from exc
    if not isinstance(relation, str):
        raise DemandError(f"query relation must be a string, got {relation!r}")
    if isinstance(pattern, str) or not isinstance(pattern, (tuple, list)):
        raise DemandError(
            f"query pattern must be a tuple of constants/None, got {pattern!r}"
        )
    for position, constant in enumerate(pattern):
        try:
            hash(constant)
        except TypeError:
            raise DemandError(
                f"query constant {constant!r} at position {position} is "
                "unhashable; keys hold hashable values only"
            ) from None
    return DemandQuery(relation, tuple(pattern))


# ---------------------------------------------------------------------------
# Verdict: is (program, query, POPS) inside the supported fragment?
# ---------------------------------------------------------------------------


@dataclass
class DemandVerdict:
    """Whether the demand path applies, and why not when it doesn't.

    ``adornments`` lists the reachable ``(relation, adornment)`` pairs
    of the sideways-passing closure (meaningful even when unsupported —
    it names where the structural walk got stuck).
    """

    supported: bool
    reasons: Tuple[str, ...] = ()
    adornments: Tuple[Tuple[str, Adornment], ...] = ()

    def describe(self) -> str:
        if self.supported:
            return (
                "demand path supported "
                f"({len(self.adornments)} adorned predicates)"
            )
        return "demand path unsupported: " + "; ".join(self.reasons)


def _magic_name(relation: str, adornment: Adornment) -> str:
    return f"{MAGIC_PREFIX}{relation}_{adornment}"


def _view_name(relation: str) -> str:
    return f"{VIEW_PREFIX}{relation}"


def _seed_name(relation: str, adornment: Adornment) -> str:
    return f"{SEED_PREFIX}{relation}_{adornment}"


def _pops_reasons(pops: POPS) -> List[str]:
    """The value-space half of the fragment check, read off
    :attr:`pops.caps <repro.semirings.base.PreSemiring.caps>`: a sparse
    (naturally ordered) semiring whose ``0 ⪯ v`` probe holds, with an
    idempotent ``⊕`` and no zero divisors on the probe values."""
    caps = pops.caps
    if not (caps.sparse and caps.natural_preorder):
        # The remaining probes presume semiring laws.
        return [
            f"{pops.name} is not a naturally ordered semiring "
            "(natural-preorder probe 0 ⪯ v failed)"
        ]
    reasons: List[str] = []
    if not pops.eq(pops.bottom, pops.zero):
        reasons.append(
            f"{pops.name} has ⊥ ≠ 0: stored support and non-zero support "
            "disagree, so membership views cannot stand in for supp"
        )
    if not caps.idempotent_add:
        reasons.append(
            f"{pops.name} has a non-idempotent ⊕ (v ⊕ v ≠ v for "
            f"{caps.non_idempotent[0]!r}): seed/magic-rule derivations "
            "would double-count"
        )
    if caps.zero_divisors is not None:
        a, b = caps.zero_divisors
        reasons.append(
            f"{pops.name} has zero divisors ({a!r} ⊗ {b!r} = 0): "
            "supp does not distribute over ⊗"
        )
    return reasons


def _atom_adornment(
    atom: RelAtom, bound_vars: Set[str]
) -> Optional[Adornment]:
    """Adornment of an occurrence, ``None`` for interpreted-key args."""
    letters = []
    for arg in atom.args:
        if isinstance(arg, Constant):
            letters.append("b")
        elif isinstance(arg, Variable):
            letters.append("b" if arg.name in bound_vars else "f")
        else:
            return None
    return "".join(letters)


def _bound_args(
    args: Sequence[Term], adornment: Adornment
) -> Tuple[Term, ...]:
    return tuple(a for a, c in zip(args, adornment) if c == "b")


def _conjuncts(cond: Condition) -> List[Condition]:
    """Flatten the top-level ``And`` spine into conjuncts."""
    if isinstance(cond, TrueCond):
        return []
    if isinstance(cond, And):
        out: List[Condition] = []
        for part in cond.parts:
            out.extend(_conjuncts(part))
        return out
    return [cond]


def _and(parts: Sequence[Condition]) -> Condition:
    if not parts:
        return TrueCond()
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def _plain_args(atom: RelAtom) -> bool:
    return all(isinstance(a, (Constant, Variable)) for a in atom.args)


@dataclass
class _Prefix:
    """The Boolean residue of a body's sideways-passing prefix."""

    conditions: List[Condition] = field(default_factory=list)
    bound_vars: Set[str] = field(default_factory=set)
    views: Set[str] = field(default_factory=set)
    dead: bool = False  # a statically-zero factor: demands nothing
    problems: List[str] = field(default_factory=list)


def _lower_prefix(
    factors: Sequence[Any],
    head_bound_vars: Set[str],
    program: Program,
    pops: POPS,
    context: str,
) -> _Prefix:
    """Lower a prefix of value factors to key-only Boolean conditions.

    Each factor's *support* becomes a condition with the same keys:
    EDB atoms become support-view atoms (binding their variables),
    indicators keep or negate their condition depending on which branch
    is zero, constants either vanish (non-zero) or kill the demand
    (zero).  Restrictions whose variables cannot be bound here are
    dropped — over-demanding is sound.  IDB atoms and value-function
    factors have no static Boolean support: they are reported as
    problems (→ Tier-B fallback).
    """
    out = _Prefix(bound_vars=set(head_bound_vars))
    idbs = program.idb_names()
    for factor in factors:
        if isinstance(factor, RelAtom):
            if factor.relation in idbs:
                out.problems.append(
                    f"{context}: IDB atom {factor.relation} in a sideways "
                    "prefix (non-linear demand, e.g. T(X,Z)·T(Z,Y)) needs "
                    "an evolving support view"
                )
                continue
            if not _plain_args(factor):
                out.problems.append(
                    f"{context}: prefix atom {factor.relation} carries "
                    "interpreted key functions"
                )
                continue
            if factor.relation in program.bool_edbs:
                out.conditions.append(BoolAtom(factor.relation, factor.args))
            else:
                out.views.add(factor.relation)
                out.conditions.append(
                    BoolAtom(_view_name(factor.relation), factor.args)
                )
            for arg in factor.args:
                for v in term_variables(arg):
                    out.bound_vars.add(v.name)
        elif isinstance(factor, Indicator):
            true_value = (
                factor.true_value
                if factor.true_value is not None
                else pops.one
            )
            false_value = (
                factor.false_value
                if factor.false_value is not None
                else pops.zero
            )
            t_zero = pops.eq(true_value, pops.zero)
            f_zero = pops.eq(false_value, pops.zero)
            if t_zero and f_zero:
                out.dead = True
            elif f_zero and not t_zero:
                gen_vars = {
                    v.name
                    for atom in positive_bool_atoms(factor.condition)
                    for arg in atom.args
                    for v in term_variables(arg)
                }
                if factor.condition.variables() <= out.bound_vars | gen_vars:
                    out.conditions.append(factor.condition)
                    out.bound_vars |= gen_vars
            elif t_zero and not f_zero:
                if factor.condition.variables() <= out.bound_vars:
                    out.conditions.append(Not(factor.condition))
            # Both branches non-zero: supp ≡ 1 — no restriction.
        elif isinstance(factor, ValueConst):
            if pops.eq(factor.value, pops.zero):
                out.dead = True
        elif isinstance(factor, (FuncFactor, KeyAsValue)):
            out.problems.append(
                f"{context}: {type(factor).__name__} in a sideways prefix "
                "(its supp is not statically known)"
            )
        else:
            out.problems.append(
                f"{context}: unsupported factor {type(factor).__name__} "
                "in a sideways prefix"
            )
    return out


@dataclass
class _Rewrite:
    """Shared output of the structural walk (verdict + rewrite)."""

    rules: List[Rule] = field(default_factory=list)
    views: Set[str] = field(default_factory=set)
    adornments: List[Tuple[str, Adornment]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _walk(program: Program, query: DemandQuery, pops: POPS) -> _Rewrite:
    """Run the sideways-information-passing worklist once.

    Produces the rewritten rules *and* the structural problems in one
    pass, so :func:`demand_verdict` and :func:`demand_rewrite` cannot
    drift apart.  Problems are collected, not raised: a non-empty
    ``problems`` list means "outside the fragment — fall back", and
    the partially-built rules are discarded.
    """
    out = _Rewrite()
    idbs = program.idb_names()
    reserved = sorted(
        name
        for name in set(program.idbs)
        | set(program.edbs)
        | set(program.bool_edbs)
        if name.startswith((MAGIC_PREFIX, VIEW_PREFIX, SEED_PREFIX))
    )
    if reserved:
        out.problems.append(f"program uses reserved demand names {reserved}")
        return out

    rules_by_head: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        rules_by_head.setdefault(rule.head_relation, []).append(rule)

    seen: Set[Tuple[str, Adornment]] = set()
    worklist: List[Tuple[str, Adornment]] = [(query.relation, query.adornment)]

    # Seed: m_Q_α(x̄) :- seed_Q_α(x̄), the seed relation holding c̄ ↦ 1.
    seed = RelAtom(
        _seed_name(query.relation, query.adornment),
        tuple(Variable(f"X{i}") for i in range(len(query.bindings))),
    )
    out.rules.append(
        Rule(
            _magic_name(query.relation, query.adornment),
            seed.args,
            (SumProduct((seed,)),),
        )
    )

    while worklist:
        relation, adornment = worklist.pop()
        if (relation, adornment) in seen:
            continue
        seen.add((relation, adornment))
        out.adornments.append((relation, adornment))
        magic_rel = _magic_name(relation, adornment)
        for rule in rules_by_head.get(relation, ()):
            context = f"{relation}^{adornment}"
            head_bound = _bound_args(rule.head_args, adornment)
            if any(
                not isinstance(t, (Constant, Variable)) for t in head_bound
            ):
                out.problems.append(
                    f"{context}: bound head positions carry interpreted "
                    "key functions"
                )
                continue
            head_bound_vars = {
                v.name for t in head_bound for v in term_variables(t)
            }
            for body in rule.bodies:
                stratified = sorted(
                    {a.relation for a, _ in body.bool_reads()} & idbs
                )
                if stratified:
                    out.problems.append(
                        f"{context}: a condition reads the IDB(s) "
                        f"{stratified} (stratified negation), which needs "
                        "their whole fixpoint, not a demanded part"
                    )
                nested = sorted(
                    {
                        atom.relation
                        for factor in body.factors
                        for atom, under_fn in factor_atoms(factor)
                        if under_fn and atom.relation in idbs
                    }
                )
                if nested:
                    out.problems.append(
                        f"{context}: the IDB(s) {nested} sit under an "
                        "interpreted function, which demands no binding "
                        "pattern of them"
                    )
                guard = RelAtom(magic_rel, head_bound)
                occurrence_at = [
                    i
                    for i, f in enumerate(body.factors)
                    if isinstance(f, RelAtom) and f.relation in idbs
                ]
                if len(occurrence_at) > 1:
                    names = [body.factors[i].relation for i in occurrence_at]
                    out.problems.append(
                        f"{context}: body joins {len(occurrence_at)} IDB "
                        f"atoms {names} — the earlier ones sit in the "
                        "later ones' sideways prefixes (non-linear "
                        "demand, e.g. T(X,Z)·T(Z,Y))"
                    )
                elif occurrence_at:
                    position = occurrence_at[0]
                    occ_atom = body.factors[position]
                    prefix = _lower_prefix(
                        body.factors[:position],
                        head_bound_vars,
                        program,
                        pops,
                        context,
                    )
                    out.problems.extend(prefix.problems)
                    out.views |= prefix.views
                    occ = _atom_adornment(occ_atom, prefix.bound_vars)
                    if occ is None:
                        out.problems.append(
                            f"{context}: occurrence of {occ_atom.relation} "
                            "has interpreted key-function arguments"
                        )
                    elif not prefix.problems and not prefix.dead:
                        usable = [
                            c
                            for c in _conjuncts(body.condition)
                            if c.variables() <= prefix.bound_vars
                        ]
                        out.rules.append(
                            Rule(
                                _magic_name(occ_atom.relation, occ),
                                _bound_args(occ_atom.args, occ),
                                (
                                    SumProduct(
                                        (guard,),
                                        condition=_and(
                                            prefix.conditions + usable
                                        ),
                                    ),
                                ),
                            )
                        )
                        worklist.append((occ_atom.relation, occ))
                # Answer rule: the original body guarded by the plain
                # magic atom (value 1 — the multiplicative identity).
                out.rules.append(
                    Rule(
                        relation,
                        rule.head_args,
                        (
                            SumProduct(
                                (guard,) + body.factors, body.condition
                            ),
                        ),
                    )
                )
    return out


def _validate_query(program: Program, q: DemandQuery) -> None:
    """Reject queries that are malformed *for this program* — these
    raise (user error) rather than fall back (unsupported fragment)."""
    if q.relation not in program.idbs:
        raise DemandError(
            f"query relation {q.relation!r} is not an IDB of the program "
            f"(IDBs: {sorted(program.idbs)})"
        )
    if len(q.pattern) != program.idbs[q.relation]:
        raise DemandError(
            f"query pattern {q} has {len(q.pattern)} positions; "
            f"{q.relation} has arity {program.idbs[q.relation]}"
        )


def _analyse(
    program: Program, q: DemandQuery, pops: POPS
) -> Tuple[DemandVerdict, _Rewrite]:
    """The verdict and the rewrite of one validated query: the
    structural walk runs once and serves both."""
    reasons = _pops_reasons(pops)
    walk = _walk(program, q, pops)
    reasons.extend(dict.fromkeys(walk.problems))  # dedup, keep order
    verdict = DemandVerdict(
        supported=not reasons,
        reasons=tuple(reasons),
        adornments=tuple(walk.adornments),
    )
    return verdict, walk


def demand_verdict(
    program: Program, query: QueryLike, pops: POPS
) -> DemandVerdict:
    """Classify (program, query, POPS) against the supported fragment.

    Malformed queries (unknown relation, arity mismatch) raise
    :class:`DemandError`; everything else returns a verdict whose
    ``reasons`` name the offending fragment or value-space law.
    """
    q = normalize_query(query)
    _validate_query(program, q)
    return _analyse(program, q, pops)[0]


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------


def demand_rewrite(
    program: Program,
    query: QueryLike,
    database: Database,
) -> Tuple[Program, Database, DemandVerdict]:
    """Rewrite (program, database) for a supported demand query.

    Returns the rewritten program, the augmented database (the original
    stores plus the Boolean support views the magic rules read and the
    query's seed relation), and the supporting verdict.  The rewritten
    program holds no query constant: only the seed relation
    ``__demand_seed_<R>_<α>`` does, so the program serves every query
    of the same adornment.  Raises :class:`DemandError` when the
    verdict is unsupported — callers wanting the counted fallback
    should check :func:`demand_verdict` first (or use
    :func:`demand_solve`, which does).
    """
    q = normalize_query(query)
    _validate_query(program, q)
    rewritten, augmented, verdict = _rewrite(program, q, database)
    return rewritten, _seeded(augmented, q), verdict


def _rewrite(
    program: Program, q: DemandQuery, database: Database
) -> Tuple[Program, Database, DemandVerdict]:
    """:func:`demand_rewrite` of a validated query, without the seed.

    Each support view is the key set of an EDB relation the database
    already holds, so the augmented database is derived from it: the
    view shares the relation's store and its index, nothing is copied
    and nothing re-validated.
    """
    verdict, walk = _analyse(program, q, database.pops)
    if not verdict.supported:
        raise DemandError(verdict.describe())
    bool_edbs = dict(program.bool_edbs)
    views: Dict[str, str] = {}
    for relation in sorted(walk.views):
        arity = program.edbs.get(relation)
        if arity is None:
            support = database.support(relation)
            arity = len(next(iter(support))) if support else 0
        bool_edbs[_view_name(relation)] = arity
        views[_view_name(relation)] = relation
    rewritten = Program(
        rules=walk.rules,
        edbs=dict(program.edbs),
        bool_edbs=bool_edbs,
    )
    return rewritten, database.derive(key_views=views), verdict


def _seeded(database: Database, q: DemandQuery) -> Database:
    """``database`` plus (or with a new) seed relation for ``q``: its
    constants carrying ``1``."""
    seed = {q.bindings: database.pops.one}
    return database.derive(relations={_seed_name(q.relation, q.adornment): seed})


def strip_demand_relations(instance: Instance) -> Tuple[Instance, int]:
    """Drop the auxiliary magic relations from a result instance.

    Returns the cleaned instance and the number of magic tuples that
    were materialized (the demand frontier size — a useful stat).
    """
    cleaned = Instance(instance.pops)
    magic_tuples = 0
    for relation in list(instance.relations()):
        support = instance.support(relation)
        if relation.startswith(MAGIC_PREFIX):
            magic_tuples += len(support)
            continue
        for key, value in support.items():
            cleaned.set(relation, key, value)
    return cleaned, magic_tuples


# ---------------------------------------------------------------------------
# Prepared queries
# ---------------------------------------------------------------------------


#: How many prepared queries the process keeps (least recently used
#: first out).
PREPARED_CACHE_SIZE = 64


@dataclass(eq=False)
class PreparedQuery:
    """Everything a demand query's solve needs that its constants do
    not change, kept for one (program content, database, adornment).

    ``program`` is the rewritten program (it holds no query constant)
    and ``database`` the views-derived database :func:`demand_rewrite`
    seeded for the preparing query; every solve, that one's included,
    runs on a database that replaces the seed with its own, so no
    solve's seed store is ``database``'s.  ``strata`` is the scheduler's
    pruned condensation of ``program``; ``domain`` is the prepared-from
    database's active domain plus ``program``'s constants.  ``kernels``
    holds the codegen kernel templates of
    :class:`~repro.core.kernels.KernelScope` and ``preflight_verdict``
    the pre-flight verdict, both filled by the first solve and read by
    later ones.  ``owner`` weakly references
    the database the entry was prepared from.  A query whose constants
    leave ``domain`` changes ``N = |GA(τ, D₀)|`` and the kernels' enumeration
    domain, so it runs on an unshared copy (``shared=False``) that
    builds both afresh.
    """

    program: Program
    database: Database
    verdict: DemandVerdict
    strata: Strata
    domain: frozenset
    owner: Any = None
    shared: bool = True
    kernels: Dict[Any, Any] = field(default_factory=dict)
    preflight_verdict: Any = None

    def kernel_scope(
        self, index: int, plan: str, functions: Optional[FunctionRegistry]
    ) -> Optional[KernelScope]:
        """The kernels of stratum ``index`` under ``plan`` and what
        ``functions`` holds (a kernel calls the functions its names
        resolved to when it was generated, so a registry whose contents
        changed must not reuse it)."""
        if not self.shared:
            return None
        registry = functions.snapshot() if functions is not None else None
        prefix = (plan, registry, index)
        try:
            hash(prefix)
        except TypeError:  # an unhashable registered callable
            return None
        return KernelScope(self.kernels, prefix, self.database)

    def preflight(self, program: Program, database: Database) -> Any:
        """The pre-flight verdict of a query's solve: it depends on the
        query only through ``N``, which an in-``domain`` query keeps."""
        verdict = self.preflight_verdict if self.shared else None
        if verdict is None:
            verdict = guardrails.preflight(program, database)
            if self.shared:
                self.preflight_verdict = verdict
        return verdict


_PREPARED: "OrderedDict[Tuple, PreparedQuery]" = OrderedDict()
_PREPARED_LOCK = threading.Lock()


def _forget(key: Tuple) -> Any:
    """The weakref callback dropping ``key``'s entry with its database.

    It takes no lock: it may run inside a collection triggered while
    this thread holds ``_PREPARED_LOCK``, and one dict pop is atomic.
    """

    def callback(ref: Any) -> None:
        entry = _PREPARED.get(key)
        if entry is not None and entry.owner is ref:
            _PREPARED.pop(key, None)

    return callback


def _entry_key(
    program: Program, q: DemandQuery, database: Database
) -> Optional[Tuple]:
    """The cache key of a query's prepared entry, ``None`` when the
    program holds an unhashable constant (it is then prepared, not kept)."""
    key = (
        id(database),
        q.relation,
        q.adornment,
        tuple(program.rules),
        tuple(program.edbs.items()),
        tuple(program.bool_edbs.items()),
        tuple(program.idbs.items()),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _prepare(
    program: Program, q: DemandQuery, database: Database
) -> Tuple[PreparedQuery, Database, bool]:
    """The prepared query for ``q`` over (program, database), the
    query's seeded database, and whether the entry was a cache hit.

    The key is the program's content (a mutable :class:`Program` is
    keyed by its frozen rules and vocabularies, not its identity), the
    query relation and adornment, and the database's identity, held
    weakly: a database is immutable, so a mutation derives a new one
    and misses, and the old one's entries go when it is collected.
    """
    key = _entry_key(program, q, database)
    entry = None
    if key is not None:
        with _PREPARED_LOCK:
            entry = _PREPARED.get(key)
            if entry is not None and entry.owner() is database:
                _PREPARED.move_to_end(key)
            else:
                entry = None
    hit = entry is not None
    if entry is None:
        rewritten, augmented, verdict = demand_rewrite(program, q, database)
        entry = PreparedQuery(
            program=rewritten,
            database=augmented,
            verdict=verdict,
            strata=stratify(rewritten, (q.relation,)),
            domain=database.active_domain() | rewritten.constants(),
        )
        if key is not None:
            entry.owner = weakref.ref(database, _forget(key))
            with _PREPARED_LOCK:
                _PREPARED[key] = entry
                while len(_PREPARED) > PREPARED_CACHE_SIZE:
                    _PREPARED.popitem(last=False)
    if not all(c in entry.domain for c in q.bindings):
        entry = replace(entry, shared=False)
    return entry, _seeded(entry.database, q), hit


# ---------------------------------------------------------------------------
# Solve entry point
# ---------------------------------------------------------------------------


def demand_solve(
    program: Program,
    database: Database,
    query: QueryLike,
    method: str = "naive",
    functions: Optional[FunctionRegistry] = None,
    **solve_kwargs: Any,
) -> EvaluationResult:
    """Evaluate only the part of the fixpoint a query pattern demands.

    The engine behind ``solve(..., query=...)`` and ``datalogo run
    --query``: when the verdict says the fragment is supported, the
    magic-rewritten program runs through the ordinary ``solve``
    pipeline — every schedule/engine/worker knob applies — with the
    stratum scheduler pruned to the SCCs the query's adornment reaches,
    and the auxiliary magic relations stripped from the result.
    ``stats["demand_prepared_hits"]`` is 1 when the query reused a
    :class:`PreparedQuery` (see the module docstring), 0 when it
    prepared one.  Otherwise the original program runs to its full
    fixpoint, counted in ``stats["demand_fallbacks"]`` and explained in
    ``stats["demand_unsupported"]``.

    Demanded atoms (keys matching the query pattern) are byte-identical
    to the full fixpoint either way.
    """
    from .engine import solve  # local import: engine imports this module

    q = normalize_query(query)
    _validate_query(program, q)  # user errors raise; they never fall back
    fallback_reason: Optional[str] = None
    prepared: Optional[PreparedQuery] = None
    if method not in ("naive", "seminaive"):
        fallback_reason = (
            f"method={method!r} grounds one-shot; the demand rewrite "
            "targets the iterative methods"
        )
    elif solve_kwargs.get("capture_trace"):
        fallback_reason = (
            "capture_trace asks for the original program's iteration "
            "chain, which only full evaluation produces"
        )
    else:
        try:
            prepared, seeded, hit = _prepare(program, q, database)
        except (DemandError, ProgramError) as exc:
            fallback_reason = str(exc)
    if prepared is None:
        result = solve(
            program,
            database,
            method=method,
            functions=functions,
            **solve_kwargs,
        )
        result.stats["demand_fallbacks"] = (
            result.stats.get("demand_fallbacks", 0) + 1
        )
        result.stats["demand_unsupported"] = fallback_reason
        return result

    result = solve(
        prepared.program,
        seeded,
        method=method,
        functions=functions,
        _prepared=prepared,
        **solve_kwargs,
    )
    cleaned, magic_tuples = strip_demand_relations(result.instance)
    result.instance = cleaned
    result.stats["demand_fallbacks"] = 0
    result.stats["demand_adornments"] = len(prepared.verdict.adornments)
    result.stats["demand_magic_tuples"] = magic_tuples
    result.stats["demand_prepared_hits"] = int(hit)
    return result
