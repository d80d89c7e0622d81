"""Incremental maintenance of datalog° fixpoints (DRed over semirings).

A long-running service (see :mod:`repro.core.serve`) holds a solved
fixpoint warm and applies EDB mutations without re-solving from scratch.
The paper's semiring framing makes this precise:

* **Insertions / value growth** (the new value dominates the old in the
  natural order): the old fixpoint ``J`` satisfies ``J ⊑ F′(J)`` — the
  grown immediate-consequence operator ``F′`` only ⊕-adds matches and
  grows factor products — and ``J ⊑ lfp(F′)`` because ``F`` grows
  pointwise.  The Kleene chain *restarted from J* therefore converges
  to the new least fixpoint, and the semi-naïve differential rule
  (Theorem 6.5) rides it with one restricted bootstrap step as ``δ⁽⁰⁾``.
* **Deletions / value shrink**: DRed-style over-delete/re-derive.  The
  over-deletion pass marks, bottom-up from the shrunk EDB facts, every
  IDB atom with *some* derivation through a shrunk fact (enumerated
  against the pre-mutation database and fixpoint), erases the marked
  atoms, and restarts the chain from the surviving instance ``J⁻``:
  every surviving atom's value is exactly the ⊕-sum of its surviving
  derivation trees, hence ``J⁻ ⊑ F′(J⁻)`` and ``J⁻ ⊑ lfp(F′)`` — the
  same warm-restart lemma applies.
* **Everything else** — non-naturally-ordered spaces (``THREE``, lifted
  orders: an EDB mutation is not monotone in the knowledge order, so no
  warm restart is sound), Boolean-relation mutations (they gate
  conditions non-monotonically), domain shrinkage, a blown DRed marking
  cap (``dred_cap``) or a continuation that exceeds ``max_iterations``
  — degrades honestly to a full re-solve, counted in
  ``stats["incremental_fallbacks"]``.

The maintained fixpoint is **byte-identical** to ``solve()`` from
scratch on the mutated EDB (the hypothesis suite in
``tests/test_incremental.py`` asserts this across TROP/BOOL/THREE),
because both run the same engines over the same domain ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..semirings.base import FunctionRegistry
from .guardrails import BudgetExceeded
from .instance import Database, Instance, Key
from .io import decode_value, encode_value
from .naive import NaiveEvaluator, _relation_equal
from .rules import Program, RelAtom
from .seminaive import SemiNaiveError, SemiNaiveEvaluator
from .valuations import Guard, enumerate_matches
from .ast import eval_term


def fingerprint(instance: Instance) -> str:
    """A byte-exact rendering of an instance's support.

    ``repr`` distinguishes ``0.0`` from ``-0.0`` and ``1`` from ``1.0``,
    so equality of fingerprints is equality of stored bytes, not just
    ``pops.eq`` — the differential invariant the incremental engine
    promises against ``solve()`` from scratch.
    """
    return "|".join(
        "%s:%s"
        % (
            rel,
            sorted(
                (repr(k), repr(v)) for k, v in instance.support(rel).items()
            ),
        )
        for rel in sorted(instance.relations())
    )


class DredBudgetExceeded(RuntimeError):
    """Internal: the over-deletion pass blew its marking budget."""


@dataclass(frozen=True)
class Mutation:
    """One EDB mutation: insert/overwrite or delete a single fact.

    ``op`` is ``"insert"`` (POPS relations: assign ``value``; Boolean
    relations: add the key) or ``"delete"`` (erase the key).  Updates
    are inserts over an existing key.
    """

    op: str
    relation: str
    key: Key
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise ValueError(
                f"mutation op must be 'insert' or 'delete', got {self.op!r}"
            )
        object.__setattr__(self, "key", tuple(self.key))

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "op": self.op,
            "relation": self.relation,
            "key": list(self.key),
        }
        if self.value is not None:
            out["value"] = encode_value(self.value)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Mutation":
        value = data.get("value")
        return cls(
            op=data["op"],
            relation=data["relation"],
            key=tuple(data["key"]),
            value=decode_value(value) if value is not None else None,
        )


@dataclass
class ApplySummary:
    """What one :meth:`IncrementalInstance.apply` did."""

    #: ``"noop"`` / ``"seminaive"`` / ``"warm-naive"`` / ``"resolve"``.
    path: str
    mutations: int = 0
    dred_marked: int = 0
    dred_rounds: int = 0
    steps: int = 0
    wall_s: float = 0.0
    changed_relations: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "mutations": self.mutations,
            "dred_marked": self.dred_marked,
            "dred_rounds": self.dred_rounds,
            "steps": self.steps,
            "wall_s": self.wall_s,
            "changed_relations": list(self.changed_relations),
        }


class IncrementalInstance:
    """A warm fixpoint plus the machinery to maintain it under mutations.

    Databases are immutable, so the instance starts from the caller's
    own (nothing is copied) and :meth:`apply` derives a copy-on-write
    successor per batch: only the relations the batch touches are
    copied, every other store — and its index — is shared.  ``apply``
    classifies the batch, picks the cheapest sound maintenance path
    and *assigns* ``self.database`` and ``self.instance`` together at
    the end — all intermediate work happens on the unpublished
    successor and on copies, so concurrent readers (the serve front
    end) always see a consistent EDB and fixpoint without taking the
    writer's lock, and a reader's snapshot never changes under it.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        functions: Optional[FunctionRegistry] = None,
        plan: str = "indexed",
        engine: str = "auto",
        max_iterations: int = 100_000,
        dred_cap: Optional[int] = None,
        warm_instance: Optional[Instance] = None,
        warm_steps: int = 0,
    ):
        self.program = program
        self.pops = database.pops
        self.database = database
        self.functions = functions
        self.plan = plan
        self.engine = engine
        self.max_iterations = max_iterations
        #: Over-deletion marking budget; ``None`` scales with the
        #: fixpoint (a DRed pass that erases more than the whole warm
        #: instance is doing strictly more work than a re-solve).
        self.dred_cap = dred_cap
        #: Per-relation change counters: the serve layer's cache keys.
        self.versions: Dict[str, int] = {}
        self.stats: Dict[str, int] = {
            "incremental_applies": 0,
            "incremental_inserts": 0,
            "incremental_deletes": 0,
            "incremental_fallbacks": 0,
            "dred_rounds": 0,
            "dred_deletions": 0,
            "warm_iterations": 0,
            "full_solves": 0,
        }
        self.steps = warm_steps
        self._idb_names = program.idb_names()
        self._naturally_ordered = bool(
            self.pops.is_semiring and self.pops.is_naturally_ordered
        )
        self._seminaive_ok = False
        if getattr(self.pops, "supports_minus", False):
            try:
                SemiNaiveEvaluator(program, self.database, functions=functions)
                self._seminaive_ok = True
            except SemiNaiveError:
                self._seminaive_ok = False
        if warm_instance is not None:
            self.instance = warm_instance
            self._bump_versions(self._all_relations())
        else:
            self.instance = self._resolve(database)
        self._domain = self._domain_of(database)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _all_relations(self) -> Set[str]:
        return (
            set(self.program.idbs)
            | set(self.database.relations)
            | set(self.database.bool_relations)
        )

    def _domain_of(self, database: Database) -> Set[Any]:
        return set(database.active_domain()) | set(self.program.constants())

    def _bump_versions(self, relations: Iterable[str]) -> None:
        for rel in relations:
            self.versions[rel] = self.versions.get(rel, 0) + 1

    def _is_bool_relation(self, relation: str) -> bool:
        return (
            relation in self.database.bool_relations
            or relation in self.program.bool_edbs
        )

    def query(self, relation: str, key: Key) -> Any:
        """Point lookup: IDB atoms from the fixpoint, EDB from the DB."""
        key = tuple(key)
        if relation in self._idb_names:
            return self.instance.get(relation, key)
        if self._is_bool_relation(relation):
            return self.database.bool_holds(relation, key)
        return self.database.value(relation, key)

    # ------------------------------------------------------------------
    # full solve (initial state + the fallback rung)
    # ------------------------------------------------------------------
    def _resolve(self, database: Database) -> Instance:
        """The fixpoint over ``database`` from scratch."""
        from .engine import solve

        method = "seminaive" if self._seminaive_ok else "naive"
        result = solve(
            self.program,
            database,
            method=method,
            functions=self.functions,
            max_iterations=self.max_iterations,
            plan=self.plan,
            engine=self.engine,
            preflight="off",
        )
        self.steps = result.steps
        self.stats["full_solves"] += 1
        return result.instance

    # ------------------------------------------------------------------
    # mutation application
    # ------------------------------------------------------------------
    def validate(self, mutations: Sequence[Mutation]) -> None:
        """Reject malformed batches before any state (or disk) changes.

        The durability layer (:mod:`repro.core.journal`) calls this
        *before* journaling, so a bad batch can never poison the
        write-ahead log.
        """
        self._validate(mutations)

    def _validate(self, mutations: Sequence[Mutation]) -> None:
        for m in mutations:
            if m.relation in self._idb_names:
                raise ValueError(
                    f"cannot mutate IDB relation {m.relation!r}: mutations "
                    "target the EDB; derived facts are maintained"
                )
            known = (
                m.relation in self.database.relations
                or m.relation in self.program.edbs
                or self._is_bool_relation(m.relation)
            )
            if not known:
                raise ValueError(
                    f"unknown EDB relation {m.relation!r} (declared: "
                    f"{sorted(set(self.program.edbs) | set(self.program.bool_edbs))})"
                )
            if self._is_bool_relation(m.relation):
                if m.value is not None:
                    raise ValueError(
                        f"Boolean relation {m.relation!r} facts carry no value"
                    )
            elif m.op == "insert" and m.value is None:
                raise ValueError(
                    f"insert into POPS relation {m.relation!r} needs a value"
                )

    def _mutated_database(self, mutations: Sequence[Mutation]) -> Database:
        """The post-batch EDB, derived copy-on-write: each touched
        relation is copied once and mutated in the copy; the published
        database is not written."""
        pops = self.pops
        database = self.database
        relations: Dict[str, Dict[Key, Any]] = {}
        bool_relations: Dict[str, Set[Key]] = {}
        for m in mutations:
            if self._is_bool_relation(m.relation):
                store = bool_relations.get(m.relation)
                if store is None:
                    store = bool_relations[m.relation] = set(
                        database.bool_relations.get(m.relation, ())
                    )
                if m.op == "insert":
                    store.add(m.key)
                else:
                    store.discard(m.key)
            else:
                support = relations.get(m.relation)
                if support is None:
                    support = relations[m.relation] = dict(
                        database.raw_support(m.relation) or {}
                    )
                if m.op == "delete" or pops.eq(m.value, pops.bottom):
                    support.pop(m.key, None)
                else:
                    support[m.key] = m.value
        return database.derive(
            relations=relations,
            bool_relations={
                rel: frozenset(keys) for rel, keys in bool_relations.items()
            },
        )

    def apply(self, mutations: Sequence[Any]) -> ApplySummary:
        """Apply a mutation batch, maintaining the fixpoint.

        Raises :class:`ValueError` on malformed batches (unknown or IDB
        relation, missing value) *before* any state changes.  Expected
        degradations (budget blown, non-maintainable space) never raise
        — they re-solve and count an ``incremental_fallback``.
        """
        muts = [
            m if isinstance(m, Mutation) else Mutation.from_dict(m)
            for m in mutations
        ]
        self._validate(muts)
        started = time.perf_counter()
        self.stats["incremental_applies"] += 1
        pops = self.pops

        # Classify against the current EDB; drop no-ops.
        grow: List[Mutation] = []
        shrink: List[Tuple[str, Key]] = []
        bool_changes = 0
        effective: List[Mutation] = []
        for m in muts:
            if self._is_bool_relation(m.relation):
                present = m.key in self.database.bool_relations.get(
                    m.relation, set()
                )
                if (m.op == "insert") == present:
                    continue
                bool_changes += 1
                effective.append(m)
                continue
            old = self.database.value(m.relation, m.key)
            if m.op == "delete" or pops.eq(m.value, pops.bottom):
                if pops.eq(old, pops.bottom):
                    continue
                shrink.append((m.relation, m.key))
                effective.append(m)
                continue
            if pops.eq(old, m.value):
                continue
            effective.append(m)
            if pops.leq(old, m.value):
                grow.append(m)
            else:
                # Update that shrinks (or is incomparable): over-delete
                # the old value's derivations, then re-derive with the
                # new one on the warm path.
                shrink.append((m.relation, m.key))
                grow.append(m)
        self.stats["incremental_inserts"] += sum(
            1 for m in effective if m.op == "insert"
        )
        self.stats["incremental_deletes"] += sum(
            1 for m in effective if m.op == "delete"
        )
        if not effective:
            return ApplySummary(
                path="noop",
                mutations=0,
                wall_s=time.perf_counter() - started,
            )

        # Pick the path.  Non-naturally-ordered spaces (THREE, lifted
        # orders) admit no sound warm restart: the knowledge order makes
        # EDB mutations non-monotone.  Boolean-relation changes gate
        # conditions both ways.  Shrink without ⊖ has no differential
        # continuation.
        fallback = (
            bool_changes > 0
            or not self._naturally_ordered
            or (bool(shrink) and not self._seminaive_ok)
        )
        j_minus: Optional[Instance] = None
        dred_marked = 0
        dred_rounds = 0
        dred_relations: Set[str] = set()
        if not fallback and shrink:
            try:
                j_minus, dred_marked, dred_rounds, dred_relations = (
                    self._overdelete(shrink)
                )
            except DredBudgetExceeded:
                fallback = True

        before = self.instance
        database = self._mutated_database(effective)
        new_domain = self._domain_of(database)
        if self._domain - new_domain:
            # Constants left the active domain: totalization sets and
            # enumeration fallbacks shrink, which no warm state predicts.
            fallback = True
        domain_grew = bool(new_domain - self._domain)

        if fallback:
            path = "resolve"
        else:
            if j_minus is None:
                # Insert-only growth: warm-restart straight from the
                # current fixpoint (the continuation works on copies).
                j_minus = self.instance
            affected = (
                {rel for rel, _key in shrink}
                | {m.relation for m in grow}
                | dred_relations
            )
            try:
                if self._seminaive_ok:
                    path = "seminaive"
                    instance = self._continue_seminaive(
                        database, j_minus, affected,
                        full_bootstrap=domain_grew,
                    )
                else:
                    path = "warm-naive"
                    instance = self._warm_naive(database, j_minus)
            except (BudgetExceeded, SemiNaiveError):
                path = "resolve"
        if path == "resolve":
            instance = self._resolve(database)
            self.stats["incremental_fallbacks"] += 1
        # Publish the successor EDB with its fixpoint; until here every
        # reader saw the previous pair.
        self.database, self.instance = database, instance
        self._domain = new_domain
        return self._summary(
            path, before, effective, started, dred_marked, dred_rounds
        )

    def _summary(
        self,
        path: str,
        before: Instance,
        effective: Sequence[Mutation],
        started: float,
        dred_marked: int,
        dred_rounds: int,
    ) -> ApplySummary:
        changed = sorted(
            {m.relation for m in effective} | self._changed_idbs(before)
        )
        self._bump_versions(changed)
        return ApplySummary(
            path=path,
            mutations=len(effective),
            dred_marked=dred_marked,
            dred_rounds=dred_rounds,
            steps=self.steps,
            wall_s=time.perf_counter() - started,
            changed_relations=changed,
        )

    def _changed_idbs(self, before: Instance) -> Set[str]:
        after = self.instance
        changed: Set[str] = set()
        for rel in set(before.relations()) | set(after.relations()):
            if not _relation_equal(
                self.pops, after.support(rel), before.support(rel)
            ):
                changed.add(rel)
        return changed

    # ------------------------------------------------------------------
    # DRed over-deletion
    # ------------------------------------------------------------------
    def _overdelete(
        self, shrink: Sequence[Tuple[str, Key]]
    ) -> Tuple[Instance, int, int, Set[str]]:
        """Mark-and-erase every IDB atom with a derivation through a
        shrunk fact, bottom-up against the *pre-mutation* database and
        fixpoint.  Returns the surviving instance ``J⁻`` plus marking
        telemetry.  Over-marking is always sound: re-derivation restores
        anything erased too eagerly.
        """
        pops = self.pops
        database = self.database
        working = self.instance.copy()
        cap = self.dred_cap
        if cap is None:
            cap = max(256, 2 * self.instance.size())
        domain = sorted(self._domain, key=repr)
        marked_total = 0
        rounds = 0
        marked_relations: Set[str] = set()
        frontier: Dict[str, Dict[Key, bool]] = {}
        for rel, key in shrink:
            frontier.setdefault(rel, {})[tuple(key)] = True
        while frontier:
            rounds += 1
            hits: Dict[str, Set[Key]] = {}
            for rule in self.program.rules:
                for body in rule.bodies:
                    factors = body.factors
                    for i, factor in enumerate(factors):
                        if not isinstance(factor, RelAtom):
                            continue
                        if factor.relation not in frontier:
                            continue
                        guards = self._dred_guards(
                            factors, i, frontier[factor.relation], working
                        )
                        for valuation, _slots in enumerate_matches(
                            body.enumeration_order(),
                            guards,
                            domain,
                            body.condition,
                            database.bool_holds,
                            plan="naive",
                        ):
                            head_key = tuple(
                                eval_term(t, valuation)
                                for t in rule.head_args
                            )
                            if pops.eq(
                                working.get(rule.head_relation, head_key),
                                pops.bottom,
                            ):
                                continue
                            hits.setdefault(
                                rule.head_relation, set()
                            ).add(head_key)
            next_frontier: Dict[str, Dict[Key, bool]] = {}
            for rel, keys in hits.items():
                for key in keys:
                    working.set(rel, key, pops.bottom)
                    marked_total += 1
                    marked_relations.add(rel)
                    next_frontier.setdefault(rel, {})[key] = True
            if marked_total > cap:
                raise DredBudgetExceeded(
                    f"over-deletion marked {marked_total} atoms "
                    f"(cap {cap}); re-solving is cheaper"
                )
            frontier = next_frontier
        self.stats["dred_rounds"] += rounds
        self.stats["dred_deletions"] += marked_total
        return working, marked_total, rounds, marked_relations

    def _dred_guards(
        self,
        factors: Tuple,
        frontier_pos: int,
        front: Dict[Key, bool],
        working: Instance,
    ) -> List[Guard]:
        """Guards for one over-deletion enumeration: the frontier drives
        position ``frontier_pos``; other positive atoms read the working
        instance (IDB) or the pre-mutation database (EDB/Boolean).
        Skipping absent atoms is sound here because the DRed path only
        runs over naturally ordered semirings."""
        guards: List[Guard] = []
        for k, factor in enumerate(factors):
            if not isinstance(factor, RelAtom):
                continue
            rel = factor.relation
            if k == frontier_pos:
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda f=front: f,
                        name=f"front:{rel}",
                    )
                )
            elif rel in self._idb_names:
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda w=working, r=rel: w.support(r),
                        name=f"idb:{rel}",
                    )
                )
            elif rel in self.database.bool_relations:
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda s=self.database.bool_relations[rel]: s,
                        name=f"bool:{rel}",
                    )
                )
            else:
                guards.append(
                    Guard(
                        args=factor.args,
                        keys=lambda d=self.database, r=rel: d.support(r),
                        name=f"edb:{rel}",
                    )
                )
        return guards

    # ------------------------------------------------------------------
    # warm continuation
    # ------------------------------------------------------------------
    def _continue_seminaive(
        self,
        database: Database,
        j_minus: Instance,
        affected: Set[str],
        full_bootstrap: bool,
    ) -> Instance:
        """Restart the semi-naïve chain from ``J⁻`` over the mutated
        ``database``; returns the new fixpoint.

        Bootstrap: one naïve ICO application restricted to the rules of
        head relations whose bodies mention an affected relation (a
        mutated EDB relation or an over-deleted IDB relation) — every
        other head relation's immediate consequences over ``J⁻`` equal
        its ``J⁻`` values exactly, so its δ⁽⁰⁾ is empty by construction.
        A grown active domain voids that argument (new constants reach
        every rule through enumeration fallbacks), so it bootstraps the
        full program.  The differential loop is
        :meth:`SemiNaiveEvaluator.run`, entered mid-chain.
        """
        evaluator = SemiNaiveEvaluator(
            self.program,
            database,
            functions=self.functions,
            max_iterations=self.max_iterations,
            plan=self.plan,
            engine=self.engine,
        )
        if full_bootstrap:
            restricted = self.program
        else:
            touched: Set[str] = set()
            for rule in self.program.rules:
                for body in rule.bodies:
                    if any(
                        atom.relation in affected
                        for atom, _under in body.atoms()
                    ):
                        touched.add(rule.head_relation)
                        break
            rules = [
                r for r in self.program.rules if r.head_relation in touched
            ]
            if not rules:
                # No rule reads a mutated relation: the fixpoint is
                # exactly the surviving instance.
                return j_minus
            restricted = Program(
                rules=rules,
                edbs=dict(self.program.edbs),
                bool_edbs=dict(self.program.bool_edbs),
                idbs=dict(self.program.idbs),
            )
        bootstrap = NaiveEvaluator(
            restricted,
            database,
            functions=self.functions,
            max_iterations=1,
            plan=self.plan,
            domain=evaluator.domain,
            stats=evaluator.stats,
            indexes=evaluator.indexes,
            engine=self.engine,
        )
        image = bootstrap.ico(j_minus)
        # δ⁽⁰⁾ = F(J⁻) ⊖ J⁻, applied to a copy: a failed continuation
        # must leave the surviving instance as it was.
        delta, new = evaluator.advance(
            {rel: image.support(rel) for rel in image.relations()},
            j_minus.copy(),
        )
        if delta.size() == 0:
            return new
        result = evaluator.run(start=(delta, new, j_minus))
        self.steps = result.steps
        self.stats["warm_iterations"] += result.steps
        return result.instance

    def _warm_naive(self, database: Database, j_minus: Instance) -> Instance:
        """Warm restart without ⊖: iterate the naïve ICO from ``J⁻``
        over the mutated ``database``; returns the new fixpoint."""
        evaluator = NaiveEvaluator(
            self.program,
            database,
            functions=self.functions,
            max_iterations=self.max_iterations,
            plan=self.plan,
            engine=self.engine,
        )
        result = evaluator.run(start=j_minus)
        self.steps = result.steps
        self.stats["warm_iterations"] += result.steps + 1
        return result.instance
