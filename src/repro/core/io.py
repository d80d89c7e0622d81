"""JSON (de)serialization of databases and instances.

Value spaces use Python objects that JSON cannot express directly
(``⊥``/``⊤`` sentinels, ``inf``, tuples-as-bags, frozensets); this
module defines a reversible tagged encoding:

* ``null``                     — ``⊥`` (BOTTOM)
* ``{"⊤": true}``              — ``⊤`` (TOP)
* ``{"inf": true}``            — ``math.inf``
* ``{"bag": [...]}``           — tuple values (``Trop+_p`` / ``Trop+_≤η``)
* ``{"set": [...]}``           — frozensets (powerset POPS)
* ``{"pair": [a, b]}``         — product-POPS pairs
* numbers / booleans / strings — themselves

Keys are encoded as JSON arrays.  The functions are total inverses on
the value shapes produced by the library's structures, which the tests
verify by round-tripping every POPS's sample values.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, List, Mapping, Optional

from ..semirings.base import POPS
from ..semirings.lifted import BOTTOM, TOP
from .instance import Database, Instance


def encode_value(value: Any) -> Any:
    """Encode one POPS value into JSON-compatible data."""
    if type(value) is float:  # the common case, first
        return {"inf": value > 0} if math.isinf(value) else value
    if value is BOTTOM:
        return None
    if value is TOP:
        return {"⊤": True}
    if isinstance(value, float) and math.isinf(value):
        return {"inf": value > 0}
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, tuple):
        return {"bag": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {"set": sorted((encode_value(v) for v in value), key=repr)}
    raise TypeError(f"cannot encode value of type {type(value).__name__}")


def decode_value(data: Any) -> Any:
    """Invert :func:`encode_value`."""
    if data is None:
        return BOTTOM
    if isinstance(data, dict):
        if data.get("⊤"):
            return TOP
        if "inf" in data:
            return math.inf if data["inf"] else -math.inf
        if "bag" in data:
            return tuple(decode_value(v) for v in data["bag"])
        if "set" in data:
            return frozenset(decode_value(v) for v in data["set"])
        if "pair" in data:
            a, b = data["pair"]
            return (decode_value(a), decode_value(b))
        raise ValueError(f"unknown tagged value {data!r}")
    return data


def _encode_support(support: Mapping[Any, Any]) -> List[List[Any]]:
    """``[[key, value], …]`` pairs of one relation, ordered by ``repr(key)``."""
    return [
        [list(key), encode_value(support[key])]
        for key in sorted(support, key=repr)
    ]


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Serialize an instance's support to plain data."""
    return {
        rel: _encode_support(instance.support(rel))
        for rel in sorted(instance.relations())
    }


def instance_from_dict(pops: POPS, data: Mapping[str, Any]) -> Instance:
    """Deserialize an instance (inverse of :func:`instance_to_dict`)."""
    instance = Instance(pops)
    for rel, entries in data.items():
        for key, value in entries:
            instance.set(rel, tuple(key), decode_value(value))
    return instance


def database_to_dict(database: Database) -> Dict[str, Any]:
    """Serialize a database (relations + Boolean relations)."""
    return {
        "relations": {
            rel: _encode_support(support)
            for rel, support in sorted(database.relations.items())
        },
        "bool_relations": {
            rel: sorted([list(key) for key in keys], key=repr)
            for rel, keys in sorted(database.bool_relations.items())
        },
    }


def database_from_dict(pops: POPS, data: Mapping[str, Any]) -> Database:
    """Deserialize a database (inverse of :func:`database_to_dict`)."""
    relations = {
        rel: {tuple(key): decode_value(value) for key, value in entries}
        for rel, entries in data.get("relations", {}).items()
    }
    bool_relations = {
        rel: {tuple(key) for key in keys}
        for rel, keys in data.get("bool_relations", {}).items()
    }
    return Database(
        pops=pops, relations=relations, bool_relations=bool_relations
    )


def dump_instance(instance: Instance, fp: IO[str], indent: Optional[int] = 2) -> None:
    """Write an instance as JSON to a file object."""
    json.dump(instance_to_dict(instance), fp, indent=indent, ensure_ascii=False)


def load_instance(pops: POPS, fp: IO[str]) -> Instance:
    """Read an instance from a JSON file object."""
    return instance_from_dict(pops, json.load(fp))
