"""P-instances: finite-support maps from ground atoms to POPS values (§2.3).

A ``P``-instance assigns a POPS value to every ground atom, with finite
support (all but finitely many atoms map to ``⊥``).  We store only the
support.  Two stores exist:

* :class:`Database` — the EDB input ``(I, I_B)``: POPS-valued relations
  over ``σ`` plus standard Boolean relations over ``σ_B``;
* :class:`Instance` — an IDB instance ``J`` over ``τ``, the object the
  naïve algorithm's chain ``J⁽⁰⁾ ⊑ J⁽¹⁾ ⊑ …`` ranges over.

Both expose ``⊥``-defaulting lookups so the engines can treat instances
as the total functions of the formal semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..semirings.base import POPS, Value
from .indexes import KeyIndex

Key = Tuple[Any, ...]

#: The store of a relation a database does not hold.
_NO_STORE: Mapping[Key, Value] = MappingProxyType({})
_NO_KEYS: FrozenSet[Key] = frozenset()


def _freeze_key(key: Iterable[Any]) -> Key:
    return tuple(key)


class _IndexCell:
    """One store's frozen :class:`~repro.core.indexes.KeyIndex`, made
    on first demand.

    Every database holding the store holds the same cell
    (:meth:`Database.derive` hands untouched relations' cells on), so a
    store is indexed at most once and the mask tables
    solves publish into its index serve all of them.  A cell that
    replaced a store whose index was built, with the keys the batch
    changed, derives its index from that one (:meth:`KeyIndex.derive
    <repro.core.indexes.KeyIndex.derive>`) instead of building it.  Two
    threads racing on the first demand each get a complete index; the
    last one stays.
    """

    __slots__ = ("store", "index", "_parent")

    def __init__(
        self,
        store: Any,
        parent: Optional[Tuple[KeyIndex, Iterable[Key]]] = None,
    ):
        self.store = store
        self.index: Optional[KeyIndex] = None
        #: ``(replaced store's index, changed keys)`` until the first demand.
        self._parent = parent

    def get(self) -> KeyIndex:
        index = self.index
        if index is None:
            parent, store = self._parent, self.store
            if parent is None:
                index = KeyIndex(store)
            else:
                base, changed = parent
                index = base.derive(
                    removed=[key for key in changed if key not in store],
                    upserted={key: store[key] for key in changed if key in store},
                )
            self.index, self._parent = index, None
        return index


@dataclass(frozen=True)
class Database:
    """The EDB input: POPS relations ``I`` and Boolean relations ``I_B``.

    Args:
        pops: The value space ``P`` shared by all ``σ`` relations.
        relations: ``{name: {key_tuple: value}}`` — only non-``⊥``
            entries should be stored (``⊥`` entries are dropped).
        bool_relations: ``{name: set(key_tuple)}`` — standard relations.

    A database is immutable.  Construction copies and validates the
    stores once (tuple keys, ``⊥`` dropped, values in the space's
    canonical form ``1 ⊗ v`` where it declares one, see
    :mod:`repro.semirings.capabilities`); afterwards ``relations``
    maps each name to a read-only mapping and ``bool_relations`` to a
    frozen key set, and writing through either raises ``TypeError``.
    Everything derived from the stores is computed at most once per
    object and shared by every solve over it: :meth:`active_domain`,
    and per relation the frozen index of :meth:`index` /
    :meth:`bool_index`.  To change an EDB, build a new database or
    maintain it through :class:`~repro.core.incremental.IncrementalInstance`;
    engines derive changed databases with :meth:`derive`.
    """

    pops: POPS
    relations: Mapping[str, Mapping[Key, Value]] = field(default_factory=dict)
    bool_relations: Mapping[str, AbstractSet[Key]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        eq, bottom = self.pops.eq, self.pops.bottom
        stores = {
            name: {_freeze_key(k): v for k, v in rel.items() if not eq(v, bottom)}
            for name, rel in self.relations.items()
        }
        canonical = self.pops.caps.canonical
        if canonical is not None:
            stores = {
                name: {k: canonical(v) for k, v in store.items()}
                for name, store in stores.items()
            }
        self._install(
            stores,
            {
                name: frozenset(_freeze_key(k) for k in rel)
                for name, rel in self.bool_relations.items()
            },
            cells={},
        )

    def _install(
        self,
        stores: Dict[str, Dict[Key, Value]],
        bool_stores: Dict[str, AbstractSet[Key]],
        cells: Dict[Tuple[str, str], _IndexCell],
    ) -> None:
        """Set the private state (the dataclass is frozen)."""
        for kind, by_name in (("edb", stores), ("bool", bool_stores)):
            for name, store in by_name.items():
                if (kind, name) not in cells:
                    cells[kind, name] = _IndexCell(store)
        put = object.__setattr__
        put(self, "_stores", stores)
        put(self, "_bool_stores", bool_stores)
        put(self, "_cells", cells)
        put(self, "_domain", None)
        put(self, "_ordered", None)
        put(self, "_grown_from", None)
        put(
            self,
            "relations",
            MappingProxyType(
                {name: MappingProxyType(s) for name, s in stores.items()}
            ),
        )
        put(self, "bool_relations", MappingProxyType(bool_stores))

    def derive(
        self,
        relations: Optional[Mapping[str, Dict[Key, Value]]] = None,
        bool_relations: Optional[Mapping[str, AbstractSet[Key]]] = None,
        key_views: Optional[Mapping[str, str]] = None,
        changed: Optional[Mapping[str, Iterable[Key]]] = None,
    ) -> "Database":
        """The one constructor for a changed database.

        The result shares this database's stores — and with each store
        its frozen index — for every relation not named here.
        ``relations`` / ``bool_relations`` add or replace stores, taken
        as they are: tuple keys, no ``⊥`` values, never written again
        (nothing is re-validated).  ``changed`` names, for a relation
        whose store ``relations`` replaces, the keys where the new store
        differs from this database's: a copy of it in which each was
        deleted, overwritten in place or added, once and in this order.
        Where the replaced store's index is built, the new store's is
        then derived from it on first demand (sharing every untouched
        entry, bucket and published mask table) instead of built from
        scratch.  ``key_views`` adds Boolean relations
        that are the key set of one of the result's POPS relations
        (this database's, or one ``relations`` adds), sharing its store
        and its index.  A result that only adds key views reuses this
        database's active domain.  One that adds relations, or replaces
        relations an earlier such derive added, to a database whose
        domain is known works its domain out on first demand as that
        domain plus the constants of the added stores (sharing its order
        when they add none).  The two databases keep no reference to
        each other.
        """
        relations = relations or {}
        bool_relations = bool_relations or {}
        stores = dict(self._stores)
        stores.update(relations)
        bool_stores = dict(self._bool_stores)
        bool_stores.update(bool_relations)
        cells = {
            name: cell
            for name, cell in self._cells.items()
            if name[1] not in (relations if name[0] == "edb" else bool_relations)
        }
        for name, keys in (changed or {}).items():
            built = self._cells.get(("edb", name))
            if built is not None and built.index is not None:
                cells["edb", name] = _IndexCell(relations[name], (built.index, keys))
        for view, relation in (key_views or {}).items():
            store = stores.get(relation, _NO_STORE)
            cell = cells.get(("edb", relation))
            if cell is None:
                cell = cells["edb", relation] = _IndexCell(store)
            bool_stores[view] = store.keys()
            cells["bool", view] = cell
        derived = object.__new__(Database)
        object.__setattr__(derived, "pops", self.pops)
        derived._install(stores, bool_stores, cells)
        if not (relations or bool_relations):
            # Key views add no constant: share the domain and its order.
            object.__setattr__(derived, "_domain", self.active_domain())
            object.__setattr__(derived, "_ordered", self._ordered_domain())
        else:
            object.__setattr__(
                derived,
                "_grown_from",
                self._growth(relations, bool_relations, key_views or {}),
            )
        return derived

    def _growth(
        self,
        relations: Mapping[str, Dict[Key, Value]],
        bool_relations: Mapping[str, AbstractSet[Key]],
        key_views: Mapping[str, str],
    ) -> Optional[Tuple[FrozenSet[Any], Optional[List[Any]], Dict]]:
        """How a database derived from this one by adding ``relations``
        and ``bool_relations`` works its domain out: ``(domain, order,
        added stores)``, the domain and order (if sorted yet) of the
        database the stores were added to.  ``None`` when that domain is
        not known yet, or a store is replaced that no such derive added.
        """
        if self._grown_from is not None:
            domain, ordered, added = self._grown_from
        elif self._domain is not None:
            domain, ordered, added = self._domain, self._ordered, {}
        else:
            return None
        replaced = [("edb", n) for n in relations if n in self._stores] + [
            ("bool", n)
            for n in (*bool_relations, *key_views)
            if n in self._bool_stores
        ]
        if any(name not in added for name in replaced):
            return None
        added = dict(added)
        added.update((("edb", n), store) for n, store in relations.items())
        added.update((("bool", n), keys) for n, keys in bool_relations.items())
        for view in key_views:  # a view's keys are its relation's
            added.pop(("bool", view), None)
        return domain, ordered, added

    # ------------------------------------------------------------------
    def value(self, relation: str, key: Key) -> Value:
        """Return ``I[R(key)]`` with missing atoms mapping to ``⊥``."""
        return self._stores.get(relation, _NO_STORE).get(key, self.pops.bottom)

    def bool_holds(self, relation: str, key: Key) -> bool:
        """Return whether the Boolean atom holds in ``I_B``."""
        return key in self._bool_stores.get(relation, _NO_KEYS)

    def support(self, relation: str) -> Mapping[Key, Value]:
        """Return the stored (non-``⊥``) entries of a POPS relation."""
        return self.relations.get(relation, _NO_STORE)

    def raw_support(self, relation: str) -> Optional[Dict[Key, Value]]:
        """The store :meth:`support` wraps read-only (``None`` when the
        relation is not stored): compiled kernels bind its ``get`` on
        their hot path and never write it."""
        return self._stores.get(relation)

    def active_domain(self) -> FrozenSet[Any]:
        """Return ``ADom(I)``: constants in the support of any relation,
        computed on the first call."""
        dom = self._domain
        if dom is None:
            if self._grown_from is not None:
                dom, _ordered, added = self._grown_from
                extra = {
                    c for store in added.values() for key in store for c in key
                } - dom
                if extra:
                    dom = dom | extra
            else:
                constants: Set[Any] = set()
                for rel in self._stores.values():
                    for key in rel:
                        constants.update(key)
                for keys in self._bool_stores.values():
                    for key in keys:
                        constants.update(key)
                dom = frozenset(constants)
            object.__setattr__(self, "_domain", dom)
        return dom

    def enumeration_domain(self, constants: Iterable[Any] = ()) -> List[Any]:
        """``ADom(I) ∪ constants`` sorted by ``repr``: the domain every
        evaluator enumerates over.  The sort of ``ADom(I)`` is done once
        per database; constants outside it are merged in per call."""
        ordered = self._ordered_domain()
        dom = self.active_domain()
        extra = [c for c in set(constants) if c not in dom]
        if not extra:
            return list(ordered)
        return sorted(ordered + extra, key=repr)

    def _ordered_domain(self) -> List[Any]:
        ordered = self._ordered
        if ordered is None:
            grown, dom = self._grown_from, self.active_domain()
            if grown is not None and dom is grown[0] and grown[1] is not None:
                ordered = grown[1]  # nothing added
            else:
                ordered = sorted(dom, key=repr)
            object.__setattr__(self, "_ordered", ordered)
        return ordered

    def index(self, relation: str) -> KeyIndex:
        """The frozen, value-carrying index over ``support(relation)``.

        Built on the first call and shared by every solve over this
        database (and every database derived from it that keeps the
        store); solves probe it through
        :meth:`~repro.core.indexes.IndexManager.frozen` views.
        """
        return self._cell("edb", relation).get()

    def bool_index(self, relation: str) -> KeyIndex:
        """The frozen key index over a Boolean relation, like
        :meth:`index`."""
        return self._cell("bool", relation).get()

    def _cell(self, kind: str, relation: str) -> _IndexCell:
        cell = self._cells.get((kind, relation))
        if cell is None:  # not stored: index the empty store
            cell = self._cells.setdefault((kind, relation), _IndexCell(_NO_STORE))
        return cell


class Instance:
    """An IDB instance ``J``: finite-support map over ground IDB atoms.

    Supports ``⊥``-defaulting access, pointwise comparison in the POPS
    order and snapshots for traces.  Only non-``⊥`` values are stored,
    mirroring a real engine where "present" tuples are those ``≠ ⊥``
    (Section 1.1's discussion of semi-naïve storage).
    """

    def __init__(self, pops: POPS, data: Mapping[str, Mapping[Key, Value]] | None = None):
        self.pops = pops
        # ``⊥`` and ``eq`` are bound once: ``get``/``set`` sit on every
        # engine's hot path and the property/attribute lookups cost
        # more than the dict access itself.
        self._bottom = pops.bottom
        self._eq = pops.eq
        self._data: Dict[str, Dict[Key, Value]] = {}
        if data:
            for rel, entries in data.items():
                for key, value in entries.items():
                    self.set(rel, key, value)

    # ------------------------------------------------------------------
    def get(self, relation: str, key: Key) -> Value:
        """Return ``J[T(key)]`` (``⊥`` when absent)."""
        rel = self._data.get(relation)
        if rel is None:
            return self._bottom
        if type(key) is not tuple:
            key = tuple(key)
        return rel.get(key, self._bottom)

    def set(self, relation: str, key: Key, value: Value) -> None:
        """Assign a value; ``⊥`` assignments erase the entry, and the
        relation with its last entry (:meth:`relations` lists only
        relations with non-empty support)."""
        if type(key) is not tuple:
            key = tuple(key)
        if self._eq(value, self._bottom):
            rel = self._data.get(relation)
            if rel is not None:
                rel.pop(key, None)
                if not rel:
                    del self._data[relation]
        else:
            self._data.setdefault(relation, {})[key] = value

    def merge(self, relation: str, key: Key, value: Value) -> None:
        """``J[T(key)] ⊕= value`` (the accumulation step of the ICO)."""
        if type(key) is not tuple:
            key = tuple(key)
        rel = self._data.get(relation)
        if rel is None:
            rel = {}
        merged = self.pops.add(rel.get(key, self._bottom), value)
        if self._eq(merged, self._bottom):
            rel.pop(key, None)
            if not rel:
                self._data.pop(relation, None)
        else:
            self._data.setdefault(relation, rel)[key] = merged

    def update(self, relation: str, entries: Mapping[Key, Value]) -> None:
        """Bulk ``J[T(key)] = value`` over already-stored entries.

        The raw-store path of the semi-naïve step and the stratum
        freeze: ``entries`` must hold tuple keys and non-``⊥`` values
        (another instance's support, or values ⊒ a non-``⊥`` one), so
        the per-atom checks of :meth:`set` are vacuous.
        """
        rel = self._data.get(relation)
        if rel is None:
            if entries:
                self._data[relation] = dict(entries)
        else:
            rel.update(entries)

    def support(self, relation: str) -> Mapping[Key, Value]:
        """Return stored entries for one relation."""
        return self._data.get(relation, {})

    def support_keys(self, relation: str) -> Iterable[Key]:
        """Return the keys of one relation's support (index feed)."""
        return self._data.get(relation, {}).keys()

    def relations(self) -> Iterator[str]:
        """Iterate over relation names with non-empty support."""
        return iter(self._data)

    def copy(self) -> "Instance":
        """Return a deep-enough snapshot (values are immutable)."""
        snap = Instance(self.pops)
        snap._data = {rel: dict(entries) for rel, entries in self._data.items()}
        return snap

    def size(self) -> int:
        """Return the number of stored (non-``⊥``) ground atoms."""
        return sum(len(entries) for entries in self._data.values())

    # ------------------------------------------------------------------
    def equals(self, other: "Instance") -> bool:
        """Pointwise equality (used as the naïve algorithm's stop test)."""
        rels = set(self._data) | set(other._data)
        for rel in rels:
            keys = set(self._data.get(rel, {})) | set(other._data.get(rel, {}))
            for key in keys:
                if not self.pops.eq(self.get(rel, key), other.get(rel, key)):
                    return False
        return True

    def leq(self, other: "Instance") -> bool:
        """Pointwise order ``J ⊑ J'`` (trace sanity checks)."""
        rels = set(self._data) | set(other._data)
        for rel in rels:
            keys = set(self._data.get(rel, {})) | set(other._data.get(rel, {}))
            for key in keys:
                if not self.pops.leq(self.get(rel, key), other.get(rel, key)):
                    return False
        return True

    def as_dict(self) -> Dict[str, Dict[Key, Value]]:
        """Return a plain-dict snapshot of the support."""
        return {rel: dict(entries) for rel, entries in self._data.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for rel in sorted(self._data):
            for key in sorted(self._data[rel], key=repr):
                parts.append(f"{rel}{key}={self._data[rel][key]!r}")
        return "Instance(" + ", ".join(parts) + ")"
