"""Symbolic provenance of datalog° programs (Green et al.'s programme).

Section 2.4 builds datalog° on K-relations and provenance polynomials;
this module exposes them as a user feature: map every EDB fact to a
fresh generator of the free commutative semiring ``ℕ[x̄]`` and run the
grounded program over it.  Because ``ℕ[x̄]`` — like ``ℕ`` — is *not*
stable, recursive programs have no finite provenance; we therefore
compute the **depth-q truncation**, which by Lemma 5.6 is exactly the
⊕-sum of the yields of derivation trees of depth ≤ q: each monomial of
the result is one derivation's bag of EDB facts, its coefficient the
number of distinct derivation trees using that bag.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.grounding import ground_program
from ..core.instance import Database, Key
from ..core.polynomial import VarId
from ..core.rules import Program
from ..semirings.free import FREE, FreeElement


def symbol_for(relation: str, key: Key) -> str:
    """The generator name used for an EDB fact."""
    inner = ",".join(str(k) for k in key)
    return f"{relation}({inner})"


def symbolic_database(database: Database) -> Database:
    """Re-key every POPS-EDB fact to a fresh ℕ[x̄] generator.

    Boolean relations stay Boolean (they guard, they don't annotate);
    the paper's provenance semantics annotates the ``σ`` facts only.
    """
    relations = {
        rel: {
            key: FREE.generator(symbol_for(rel, key))
            for key in support
        }
        for rel, support in database.relations.items()
    }
    return Database(
        pops=FREE,
        relations=relations,
        bool_relations={
            rel: set(keys) for rel, keys in database.bool_relations.items()
        },
    )


def provenance(
    program: Program,
    database: Database,
    depth: int,
) -> Dict[VarId, FreeElement]:
    """Depth-``depth`` truncated provenance of every derivable IDB atom.

    Args:
        program: A datalog° program (its own value constants must be
            absent or trivial — provenance is about the EDB facts).
        database: The concrete instance whose facts get annotated.
        depth: Truncation depth ``q``; the result is
            ``f^{(q)}(0)`` over ``ℕ[x̄]`` — all derivations of depth ≤ q
            (Lemma 5.6).

    Returns:
        Mapping from ground IDB atom to its provenance polynomial;
        atoms with empty provenance at this depth are omitted.
    """
    sym_db = symbolic_database(database)
    system = ground_program(program, sym_db)
    state = {v: FREE.zero for v in system.order}
    for _ in range(depth):
        state = system.apply(state)
    return {
        var: value
        for var, value in state.items()
        if not FREE.eq(value, FREE.zero)
    }


def derivation_count(element: FreeElement) -> int:
    """Total number of derivation trees a provenance element records."""
    return sum(coeff for _, coeff in element)


def monomial_support(element: FreeElement) -> Tuple[Tuple[str, ...], ...]:
    """The distinct EDB-fact bags (as sorted symbol tuples) used."""
    out = []
    for mono, _coeff in element:
        symbols = []
        for sym, exp in mono:
            symbols.extend([sym] * exp)
        out.append(tuple(sorted(symbols)))
    return tuple(sorted(out))
