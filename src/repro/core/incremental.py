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
  IDB atom with *some* derivation through a shrunk fact, erases the
  marked atoms, and restarts the chain from the surviving instance
  ``J⁻``.  Marking is a key-only evaluation of delta rules (Gupta,
  Mumick & Subrahmanian), which is what the frontier's delta bodies
  are: each round asks :meth:`NaiveEvaluator.affected
  <repro.core.naive.NaiveEvaluator.affected>`, over the pre-mutation
  database and fixpoint, on the engine's kernels.  Then
  every surviving atom's value is exactly the ⊕-sum of its surviving
  derivation trees, hence ``J⁻ ⊑ F′(J⁻)`` and ``J⁻ ⊑ lfp(F′)`` — the
  same warm-restart lemma applies.
* **The bootstrap is batch-sized.**  On the semi-naïve path ``δ⁽⁰⁾ =
  F′(J⁻) ⊖ J⁻`` is computed from the batch's footprint, not from all
  of ``J⁻``: *delta bodies* — each occurrence of a grown relation
  reading only the batch's grown facts — and *re-derivation bodies* —
  the rules of each relation with erased atoms, restricted to the
  erased head keys.  Both are ordinary bodies over relations the batch
  adds with :meth:`Database.derive`, so every engine runs them; why
  they give the same ``δ⁽⁰⁾`` key for key is argued on
  :meth:`IncrementalInstance._continue_seminaive`.  Marking is driven
  by each round's frontier, so neither pass re-joins the whole
  fixpoint.  Without ``⊖`` (Trop+_p) the warm naïve chain seeds round
  1's frontier with the batch's grown EDB keys instead.
* **Indexes are derived, not rebuilt.**  The instance keeps one frozen
  :class:`~repro.core.indexes.KeyIndex` per IDB relation a body reads,
  over the published fixpoint (*resident* indexes).  DRed's finder and
  the bootstrap read them through views (:meth:`NaiveEvaluator.pin_indexes
  <repro.core.naive.NaiveEvaluator.pin_indexes>`); each batch derives
  them (:meth:`KeyIndex.derive <repro.core.indexes.KeyIndex.derive>`)
  by the erased keys to ``J⁻`` and by the continuation's merged δs to
  the new ``J``, with every mask table they carry.  They are dropped
  when a batch re-solves or takes the warm naïve path, and the next
  batch that needs them builds them again.  The EDB stores a batch
  replaces derive their indexes from the published database's in the
  same way (:meth:`Database.derive`).  A derived index enumerates
  exactly as a fresh one would, so join orders, probe order, ⊕ order
  and every work counter but ``index_builds`` are unchanged.
* **The active domain counts only where a body reads it.**  A variable
  no guard binds is enumerated over (or checked against) ``ADom``; a
  program whose plans have none (:meth:`NaiveEvaluator.reads_domain
  <repro.core.naive.NaiveEvaluator.reads_domain>`) is range restricted,
  and its fixpoint does not depend on the domain, so a batch that adds
  or removes constants takes the same paths as any other.
* **A session is kept across batches.**  Besides the resident indexes,
  the instance keeps what every batch's evaluators would otherwise
  work out again from the whole program or fixpoint:

  - the enumeration domain every warm evaluator enumerates.  A
    range-restricted program keeps it empty, and its batches walk no
    store for it; where a plan reads it, each batch takes the mutated
    database's :meth:`~repro.core.instance.Database.enumeration_domain`
    and compares it with the last one;
  - the codegen kernels earlier batches generated, keyed by plan IR
    (:meth:`BodyKernels.session_kernel
    <repro.core.kernels.BodyKernels.session_kernel>`).  Each batch
    plans every body itself, so its join orders and work counters are
    the ones it would have alone; a kernel generated before for the
    same plan and body is re-bound to the batch's counters.  A kernel
    that holds one of a batch's stores, or reads the domain, is built
    per batch.  A re-solve drops neither (a kernel holds no batch's
    state), and an apply that raises commits nothing to them.

  A warm semi-naïve batch writes ``J`` at the erased and the merged
  keys only, so the relations it changed — which bump
  :attr:`IncrementalInstance.versions`, the serve layer's cache keys —
  are found by comparing ``J`` before and after at those keys; the
  ``warm-naive`` and ``resolve`` paths compare every relation.  DRed's
  ``J⁻`` is the batch's own copy of ``J``, and the continuation merges
  into it: a batch copies the fixpoint once.
* **Everything else** — non-naturally-ordered spaces (``THREE``, lifted
  orders: an EDB mutation is not monotone in the knowledge order, so no
  warm restart is sound), Boolean-relation mutations and programs whose
  conditions read an IDB (both gate conditions non-monotonically),
  domain shrinkage under a program that reads the domain, a blown DRed
  marking cap (``dred_cap``) or a continuation that exceeds
  ``max_iterations``
  — degrades honestly to a full re-solve, counted in
  ``stats["incremental_fallbacks"]``.

The maintained fixpoint is **byte-identical** to ``solve()`` from
scratch on the mutated EDB (the hypothesis suite in
``tests/test_incremental.py`` asserts this across TROP/BOOL/THREE and,
over five program shapes, across TROP/BOOL/BOTTLENECK/VITERBI),
because both run the same engines over the same domain ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..semirings.base import FunctionRegistry
from .engine import collector_paused
from .guardrails import BudgetExceeded
from .indexes import KeyIndex
from .instance import Database, Instance, Key
from .io import decode_value, encode_value
from .naive import AFFECTED_PREFIX, DELTA_PREFIX, EvalStats, EvaluationResult
from .naive import _ABSENT, NaiveEvaluator, _relation_equal, footprint_program
from .rules import Program
from .seminaive import SemiNaiveEvaluator, seminaive_refusal


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
    #: ⊗-products the apply computed: bootstrap (delta and
    #: re-derivation bodies), continuation, or the full re-solve.
    products: int = 0
    #: Candidate keys its joins examined, over-deletion marking included.
    keys_examined: int = 0
    #: Mask tables its joins built (:attr:`JoinStats.index_builds
    #: <repro.core.indexes.JoinStats.index_builds>`).
    index_builds: int = 0
    wall_s: float = 0.0
    changed_relations: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "mutations": self.mutations,
            "dred_marked": self.dred_marked,
            "dred_rounds": self.dred_rounds,
            "steps": self.steps,
            "products": self.products,
            "keys_examined": self.keys_examined,
            "index_builds": self.index_builds,
            "wall_s": self.wall_s,
            "changed_relations": list(self.changed_relations),
        }


class _Continuation(SemiNaiveEvaluator):
    """The warm chain's evaluator.  It also collects what every
    :meth:`advance` merges into ``J``: per relation, each merged key's
    last value, keys in the order they were first merged — the order
    in which the instance's dict appends them."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.merged: Dict[str, Dict[Key, Any]] = {}

    def advance(
        self, buckets: Dict[str, Dict[Key, Any]], new: Instance
    ) -> Tuple[Instance, Instance]:
        delta, merged_into = super().advance(buckets, new)
        for rel in delta.relations():
            values = merged_into.support(rel)
            self.merged.setdefault(rel, {}).update(
                (key, values[key]) for key in delta.support(rel)
            )
        return delta, merged_into


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
            "incremental_products": 0,
        }
        self.steps = warm_steps
        self._idb_names = program.idb_names()
        #: The IDB relations some body reads, and the resident indexes
        #: over them (module docstring): ``(instance, {relation:
        #: index})``, valid while ``instance`` is the published one.
        self._idb_reads = sorted({
            atom.relation
            for rule in program.rules
            for body in rule.bodies
            for atom, _ in body.atoms()
            if atom.relation in self._idb_names
        })
        self._resident: Tuple[Optional[Instance], Dict[str, KeyIndex]] = (None, {})
        #: Conditions that read an IDB (stratified negation) make the
        #: ICO non-monotone in that IDB: no warm restart is sound.
        self._stratified = bool(program.condition_idbs())
        self._seminaive_ok = seminaive_refusal(program, self.pops) is None
        #: Whether the fixpoint depends on the active domain at all.
        self._reads_domain = NaiveEvaluator(
            program, database, functions=self.functions,
            plan=self.plan, engine=self.engine, domain=(),
        ).reads_domain()
        # The maintenance session (module docstring).
        #: The domain every warm evaluator enumerates; empty where no
        #: plan reads it.
        self._domain: List[Any] = (
            self._domain_of(database) if self._reads_domain else []
        )
        #: Per function registry snapshot, the session's kernel templates.
        self._kernel_templates: Dict[Any, Dict[Any, Any]] = {}
        if warm_instance is not None:
            self.instance = warm_instance
            self._bump_versions(self._all_relations())
        else:
            self.instance = self._resolve(database).instance

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _all_relations(self) -> Set[str]:
        return (
            set(self.program.idbs)
            | set(self.database.relations)
            | set(self.database.bool_relations)
        )

    def _domain_of(self, database: Database) -> List[Any]:
        return database.enumeration_domain(self.program.constants())

    def _session_templates(self) -> Optional[Dict[Any, Any]]:
        """The session's generated kernels under the current function
        registry (``None`` when a registered function cannot key them)."""
        registry = self.functions.snapshot() if self.functions is not None else None
        try:
            return self._kernel_templates.setdefault(registry, {})
        except TypeError:
            return None

    def _fixpoint_indexes(self) -> Dict[str, KeyIndex]:
        """The resident indexes over the published fixpoint, building
        the ones missing (the first batch, or the first after a
        re-solve)."""
        instance, indexes = self._resident
        if instance is not self.instance:
            indexes = {}
            self._resident = (self.instance, indexes)
        for rel in self._idb_reads:
            if rel not in indexes:
                indexes[rel] = KeyIndex(self.instance.support(rel))
        return indexes

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
    def _resolve(self, database: Database) -> EvaluationResult:
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
        return result

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
        relation is copied once and mutated in the copy, each key once
        (``mutations`` are net); the published database is not written,
        and each copy's index is derived from the published one's."""
        pops = self.pops
        database = self.database
        relations: Dict[str, Dict[Key, Any]] = {}
        changed: Dict[str, List[Key]] = {}
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
                changed.setdefault(m.relation, []).append(m.key)
        return database.derive(
            relations=relations,
            bool_relations={
                rel: frozenset(keys) for rel, keys in bool_relations.items()
            },
            changed=changed,
        )

    @collector_paused()
    def apply(self, mutations: Sequence[Any]) -> ApplySummary:
        """Apply a mutation batch, maintaining the fixpoint.

        Only each ``(relation, key)``'s last write in the batch counts:
        a key written and then restored is a no-op.  Written values take
        the space's canonical form (``pops.caps.canonical``), the one
        :class:`Database` stores hold, before they are compared.  Raises
        :class:`ValueError` on malformed batches (unknown or IDB
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
        canonical = pops.caps.canonical
        if canonical is not None:
            muts = [
                m if m.value is None else replace(m, value=canonical(m.value))
                for m in muts
            ]

        # Classify each (relation, key) by its net effect — the batch's
        # last write to it against the current EDB; drop net no-ops.
        last: Dict[Tuple[str, Key], Mutation] = {}
        for m in muts:
            last[(m.relation, m.key)] = m
        grow: List[Mutation] = []
        shrink: List[Tuple[str, Key]] = []
        bool_changes = 0
        effective: List[Mutation] = []
        for m in last.values():
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
        # EDB mutations non-monotone.  Boolean-relation changes, and
        # any change under a condition that reads an IDB, gate
        # conditions both ways.  Shrink without ⊖ has no differential
        # continuation.
        fallback = (
            bool_changes > 0
            or self._stratified
            or not self.pops.caps.sparse
            or (bool(shrink) and not self._seminaive_ok)
        )
        work = EvalStats()
        templates = self._session_templates()
        j_minus: Optional[Instance] = None
        erased: Dict[str, Dict[Key, bool]] = {}
        dred_rounds = 0
        if not fallback and shrink:
            try:
                j_minus, erased, dred_rounds = self._overdelete(
                    shrink, work, self._fixpoint_indexes(), templates
                )
            except DredBudgetExceeded:
                fallback = True

        before = self.instance
        database = self._mutated_database(effective)
        new_domain, domain_grew = self._domain, False
        if self._reads_domain:
            new_domain = self._domain_of(database)
            old, new = set(self._domain), set(new_domain)
            domain_grew = bool(new - old)
            if old - new:
                # Constants left the active domain: totalization sets and
                # enumeration fallbacks shrink, which no warm state predicts.
                fallback = True

        resident: Dict[str, KeyIndex] = {}
        merged: Dict[str, Dict[Key, Any]] = {}
        if fallback:
            path = "resolve"
        else:
            # DRed's surviving instance is the batch's own copy; the
            # current fixpoint is published, so the continuation copies it.
            private = j_minus is not None
            if j_minus is None:
                # Insert-only growth: warm-restart straight from the
                # current fixpoint.
                j_minus = self.instance
            grown: Dict[str, Dict[Key, bool]] = {}
            for m in grow:
                grown.setdefault(m.relation, {})[m.key] = True
            try:
                if self._seminaive_ok:
                    path = "seminaive"
                    instance, resident, merged = self._continue_seminaive(
                        database, j_minus, grown, erased, work,
                        full_bootstrap=domain_grew,
                        indexes=self._fixpoint_indexes(),
                        domain=new_domain, templates=templates, private=private,
                    )
                else:
                    path = "warm-naive"
                    instance = self._warm_naive(
                        database, j_minus, work, None if domain_grew else grown,
                        new_domain, templates,
                    )
            except BudgetExceeded:
                path = "resolve"
        resolved_keys = resolved_builds = 0
        if path == "resolve":
            result = self._resolve(database)
            instance = result.instance
            work.products += result.stats.get("products", 0)
            resolved_keys = result.stats.get("keys_examined", 0)
            resolved_builds = result.stats.get("index_builds", 0)
            self.stats["incremental_fallbacks"] += 1
        # Publish the successor EDB with its fixpoint; until here every
        # reader saw the previous pair.
        self.database, self.instance = database, instance
        self._resident = (instance, resident)
        self._domain = new_domain
        self.stats["incremental_products"] += work.products
        # A warm semi-naïve batch wrote the erased and the merged keys
        # only; any other path is compared in full.
        touched = [*erased.items(), *merged.items()] if path == "seminaive" else None
        changed = sorted(
            {m.relation for m in effective} | self._changed_idbs(before, touched)
        )
        self._bump_versions(changed)
        return ApplySummary(
            path=path,
            mutations=len(effective),
            dred_marked=sum(len(keys) for keys in erased.values()),
            dred_rounds=dred_rounds,
            steps=self.steps,
            products=work.products,
            keys_examined=work.join.keys_examined + resolved_keys,
            index_builds=work.join.index_builds + resolved_builds,
            wall_s=time.perf_counter() - started,
            changed_relations=changed,
        )

    def _changed_idbs(
        self,
        before: Instance,
        touched: Optional[Sequence[Tuple[str, Iterable[Key]]]] = None,
    ) -> Set[str]:
        """The IDB relations where the published fixpoint differs from
        ``before``: compared at the ``touched`` keys of each relation,
        where a batch that wrote only those keys can differ, or, without
        them, everywhere."""
        after = self.instance
        if touched is None:
            return {
                rel
                for rel in set(before.relations()) | set(after.relations())
                if not _relation_equal(self.pops, after.support(rel), before.support(rel))
            }
        eq = self.pops.eq
        changed: Set[str] = set()
        for rel, keys in touched:
            old, new = before.support(rel), after.support(rel)
            for key in keys:
                value = new.get(key, _ABSENT)
                was = old.get(key, _ABSENT)
                if (value is _ABSENT) is not (was is _ABSENT) or (
                    value is not _ABSENT and not eq(value, was)
                ):
                    changed.add(rel)
                    break
        return changed

    # ------------------------------------------------------------------
    # DRed over-deletion
    # ------------------------------------------------------------------
    def _overdelete(
        self,
        shrink: Sequence[Tuple[str, Key]],
        stats: EvalStats,
        indexes: Dict[str, KeyIndex],
        templates: Optional[Dict[Any, Any]],
    ) -> Tuple[Instance, Dict[str, Dict[Key, bool]], int]:
        """Mark-and-erase every IDB atom with a derivation through a
        shrunk fact, bottom-up against the *pre-mutation* database and
        fixpoint.  Returns the surviving instance ``J⁻``, the erased
        keys per relation and the number of marking rounds.
        Over-marking is always sound: re-derivation restores anything
        erased too eagerly.  ``J⁻`` is the batch's own copy of ``J``.

        Each round asks :meth:`NaiveEvaluator.affected` — the frontier's
        delta bodies, key-only on the engine's kernels — for the heads
        with a grounding through an atom of the round's frontier (an
        occurrence under a :class:`FuncFactor` too, since a monotone
        function of a shrunk value may shrink), every other atom read
        from the pre-mutation stores.  Reading ``J`` rather than the
        instance erased so far is what finds a head whose derivation
        joins two atoms erased in the same round; a match through an
        atom erased in an earlier round finds a head that round already
        erased, and is dropped here.  The fixpoint is read through its
        resident ``indexes``.
        """
        pops = self.pops
        before = self.instance
        working = before.copy()
        cap = self.dred_cap
        if cap is None:
            cap = max(256, 2 * before.size())
        finder = NaiveEvaluator(
            self.program, self.database, functions=self.functions,
            plan=self.plan, engine=self.engine, stats=stats,
            domain=self._domain, kernel_templates=templates,
        )
        finder.pin_indexes(indexes, before)
        erased: Dict[str, Dict[Key, bool]] = {}
        marked_total = 0
        rounds = 0
        frontier: Dict[str, Dict[Key, bool]] = {}
        for rel, key in shrink:
            frontier.setdefault(rel, {})[tuple(key)] = True
        while frontier:
            rounds += 1
            next_frontier: Dict[str, Dict[Key, bool]] = {}
            for rel, heads in finder.affected(frontier, before).items():
                for key in heads:
                    if pops.eq(working.get(rel, key), pops.bottom):
                        continue
                    working.set(rel, key, pops.bottom)
                    marked_total += 1
                    erased.setdefault(rel, {})[key] = True
                    next_frontier.setdefault(rel, {})[key] = True
            if marked_total > cap:
                raise DredBudgetExceeded(
                    f"over-deletion marked {marked_total} atoms "
                    f"(cap {cap}); re-solving is cheaper"
                )
            frontier = next_frontier
        self.stats["dred_rounds"] += rounds
        self.stats["dred_deletions"] += marked_total
        return working, erased, rounds

    # ------------------------------------------------------------------
    # warm continuation
    # ------------------------------------------------------------------
    def _continue_seminaive(
        self,
        database: Database,
        j_minus: Instance,
        grown: Dict[str, Dict[Key, bool]],
        erased: Dict[str, Dict[Key, bool]],
        stats: EvalStats,
        full_bootstrap: bool,
        indexes: Dict[str, KeyIndex],
        domain: List[Any],
        templates: Optional[Dict[Any, Any]],
        private: bool,
    ) -> Tuple[Instance, Dict[str, KeyIndex], Dict[str, Dict[Key, Any]]]:
        """Restart the semi-naïve chain from ``J⁻`` over the mutated
        ``database`` and its ``domain``; returns the new fixpoint, its
        resident indexes, derived from ``J``'s (``indexes``): to ``J⁻``
        by the erased keys, which the bootstrap reads, then by every δ
        the chain merges, and those δs' keys with their merged values.
        The chain merges into ``J⁻`` itself where it is ``private`` (the
        batch's own copy), else into a copy.

        The bootstrap computes ``δ⁽⁰⁾ = F′(J⁻) ⊖ J⁻`` from the batch's
        footprint alone, with one naïve ICO application of two kinds of
        body (:func:`~repro.core.naive.footprint_program`):

        * **delta bodies** — for every occurrence of a relation whose
          facts grew (``grown``), the body with that occurrence reading
          only the batch's grown facts at their post-batch values; the
          other occurrences read the mutated database and ``J⁻``;
        * **re-derivation bodies** — every body of a relation with
          over-deleted atoms (``erased``), restricted to the erased head
          keys.

        This is the parent's ``F′(J⁻) ⊖ J⁻``, key for key.  DRed leaves
        no surviving atom with a one-step valuation through a shrunk
        fact or an erased atom, and ``J = F(J)``, so ``F′(J⁻) = J⁻``
        outside the erased heads and the heads the delta bodies touch.
        An erased head's ``J⁻`` value is ``0`` and its re-derivation
        bodies sum exactly its ``F′(J⁻)``; every delta valuation is a
        valuation of ``F′(J⁻)`` (or ⊑ one, where a function reads a
        grown relation's absent key), which idempotent ``⊕`` absorbs.
        On a touched survivor, ``F′(J⁻) = J ⊕ D`` for the delta bodies'
        sum ``D`` — the old values of grown facts are ⊑ their new ones
        — and ``(J ⊕ D) ⊖ J = D ⊖ J`` by Eq. 58 under idempotent ``⊕``.
        The semi-naïve path only runs on complete distributive dioids,
        where all of this holds.

        A grown active domain voids the argument (new constants reach
        every rule through enumeration fallbacks), so it bootstraps the
        full program over ``J⁻``.  The differential loop is
        :meth:`SemiNaiveEvaluator.run`, entered mid-chain.
        """
        indexes = {
            rel: index.derive(removed=erased[rel]) if rel in erased else index
            for rel, index in indexes.items()
        }
        if full_bootstrap:
            program, boot_database = self.program, database
        else:
            program = footprint_program(self.program, grown=grown, restricted=erased)
            if program is None:
                # No rule reads a changed relation: the fixpoint is
                # exactly the surviving instance.
                self.steps = 0
                return j_minus, indexes, {}
            deltas: Dict[str, Dict[Key, Any]] = {}
            for rel, keys in grown.items():
                # Post-batch values: each grown key's last write.
                store = database.support(rel)
                deltas[DELTA_PREFIX + rel] = {key: store[key] for key in keys}
            boot_database = database.derive(
                relations=deltas,
                bool_relations={
                    AFFECTED_PREFIX + rel: frozenset(keys)
                    for rel, keys in erased.items()
                },
            )
        evaluator = _Continuation(
            self.program,
            database,
            functions=self.functions,
            max_iterations=self.max_iterations,
            plan=self.plan,
            domain=domain,
            engine=self.engine,
            stats=stats,
            kernel_templates=templates,
        )
        bootstrap = NaiveEvaluator(
            program,
            boot_database,
            functions=self.functions,
            max_iterations=1,
            plan=self.plan,
            domain=evaluator.domain,
            stats=evaluator.stats,
            indexes=evaluator.indexes,
            engine=self.engine,
            kernel_templates=templates,
        )
        bootstrap.pin_indexes(indexes, j_minus)
        image = bootstrap.ico(j_minus)
        bootstrap.unpin_indexes(indexes)
        # δ⁽⁰⁾ = F′(J⁻) ⊖ J⁻.  A failed continuation must leave the
        # published fixpoint as it was.
        delta, new = evaluator.advance(
            {rel: image.support(rel) for rel in image.relations()},
            j_minus if private else j_minus.copy(),
        )
        if delta.size() == 0:
            self.steps = 0
        else:
            result = evaluator.run(start=(delta, new, j_minus))
            self.steps = result.steps
            self.stats["warm_iterations"] += result.steps
            new = result.instance
        merged = evaluator.merged
        return new, {
            rel: index.derive(upserted=merged[rel]) if rel in merged else index
            for rel, index in indexes.items()
        }, merged

    def _warm_naive(
        self,
        database: Database,
        j_minus: Instance,
        stats: EvalStats,
        grown: Optional[Dict[str, Dict[Key, bool]]],
        domain: List[Any],
        templates: Optional[Dict[Any, Any]],
    ) -> Instance:
        """Warm restart without ⊖: iterate the naïve ICO from ``J⁻``
        over the mutated ``database`` and its ``domain``; returns the new
        fixpoint.  The batch's ``grown`` keys (``None`` when the active
        domain grew) seed round 1's frontier."""
        evaluator = NaiveEvaluator(
            self.program,
            database,
            functions=self.functions,
            max_iterations=self.max_iterations,
            plan=self.plan,
            domain=domain,
            engine=self.engine,
            stats=stats,
            kernel_templates=templates,
        )
        result = evaluator.run(start=j_minus, changed=grown)
        self.steps = result.steps
        self.stats["warm_iterations"] += result.steps + 1
        return result.instance
