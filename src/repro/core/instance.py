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
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple

from ..semirings.base import POPS, Value

Key = Tuple[Any, ...]


def _freeze_key(key: Iterable[Any]) -> Key:
    return tuple(key)


@dataclass
class Database:
    """The EDB input: POPS relations ``I`` and Boolean relations ``I_B``.

    Args:
        pops: The value space ``P`` shared by all ``σ`` relations.
        relations: ``{name: {key_tuple: value}}`` — only non-``⊥``
            entries should be stored (``⊥`` entries are dropped).
        bool_relations: ``{name: set(key_tuple)}`` — standard relations.
    """

    pops: POPS
    relations: Dict[str, Dict[Key, Value]] = field(default_factory=dict)
    bool_relations: Dict[str, Set[Key]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: Dict[str, Dict[Key, Value]] = {}
        for name, rel in self.relations.items():
            cleaned[name] = {
                _freeze_key(k): v
                for k, v in rel.items()
                if not self.pops.eq(v, self.pops.bottom)
            }
        self.relations = cleaned
        self.bool_relations = {
            name: {_freeze_key(k) for k in rel}
            for name, rel in self.bool_relations.items()
        }

    # ------------------------------------------------------------------
    def value(self, relation: str, key: Key) -> Value:
        """Return ``I[R(key)]`` with missing atoms mapping to ``⊥``."""
        return self.relations.get(relation, {}).get(key, self.pops.bottom)

    def bool_holds(self, relation: str, key: Key) -> bool:
        """Return whether the Boolean atom holds in ``I_B``."""
        return key in self.bool_relations.get(relation, set())

    def support(self, relation: str) -> Mapping[Key, Value]:
        """Return the stored (non-``⊥``) entries of a POPS relation."""
        return self.relations.get(relation, {})

    def active_domain(self) -> FrozenSet[Any]:
        """Return ``ADom(I)``: constants in the support of any relation."""
        dom: Set[Any] = set()
        for rel in self.relations.values():
            for key in rel:
                dom.update(key)
        for rel in self.bool_relations.values():
            for key in rel:
                dom.update(key)
        return frozenset(dom)


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
        """Assign a value; ``⊥`` assignments erase the entry."""
        if type(key) is not tuple:
            key = tuple(key)
        if self._eq(value, self._bottom):
            rel = self._data.get(relation)
            if rel is not None:
                rel.pop(key, None)
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
