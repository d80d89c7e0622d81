"""Seeded input generators owned by the benchmark (frozen: do not edit
to make a change look better).

Every generator takes a ``random.Random`` and returns plain data; the
program under test only ever sees the files/objects built from it.
Edge weights are small integers stored as floats so every ``min``/``+``
chain is exact and an oracle can compare with ``==``.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Tuple

Edge = Tuple[str, str]
Edges = Dict[Edge, float]


def _labels(rng: random.Random, n: int) -> List[str]:
    """Node labels uncorrelated with the topological order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [f"v{p}" for p in perm]


def block_dag(
    rng: random.Random, n: int, m: int, alpha: float, blocks: int
) -> Tuple[List[str], Edges]:
    """``blocks`` disjoint Chung–Lu power-law DAGs, ``n`` nodes and ``m``
    edges in total.

    Inside a block both endpoints are drawn with probability
    ∝ ``(rank+1)^-alpha`` and oriented low → high rank, so low ranks are
    hubs.  One such graph has a heavy-tailed closure size (measured
    IQR/median 9–13 % over seeds at the sizes used here); the union of
    16+ independent blocks brings that under 2 %, which is what lets runs
    with different seeds be compared at all.  A point query still touches
    one block only.  Returns ``(labels, edges)``; ``labels[i]`` is node
    ``i`` in topological (rank) order.
    """
    size, per_block = n // blocks, m // blocks
    cum = list(itertools.accumulate((i + 1) ** -alpha for i in range(size)))
    labels = _labels(rng, size * blocks)
    edges: Edges = {}
    for block in range(blocks):
        base = block * size
        placed = set()
        while len(placed) < per_block:
            a, b = rng.choices(range(size), cum_weights=cum, k=2)
            if a == b:
                continue
            pair = (min(a, b), max(a, b))
            if pair in placed:
                continue
            placed.add(pair)
            edges[(labels[base + pair[0]], labels[base + pair[1]])] = float(
                rng.randint(1, 9)
            )
    return labels, edges


def layered_ring(
    rng: random.Random, layers: int, width: int, out_degree: int
) -> Tuple[List[str], Edges]:
    """A cyclic digraph: ``layers`` layers of ``width`` nodes closed into a
    ring, every node with ``out_degree`` distinct successors in the next
    layer.

    Every cycle is ``layers`` hops long.  How many naïve iterations a bag
    semiring needs depends on how many walks of each hop count join a
    pair, that is on the wiring: with 3 of 6 successors drawn at random
    it took 14–16 iterations and the join count spread 5.6 % over seeds
    (15–22 % for a uniform random digraph of the same size).  With
    ``out_degree == width``, which the benchmark uses, the wiring is
    complete and the seed decides labels and weights only: iterations and
    join count are the same on every seed."""
    labels = _labels(rng, layers * width)
    edges: Edges = {}
    for layer in range(layers):
        nxt = (layer + 1) % layers
        for i in range(width):
            for j in rng.sample(range(width), out_degree):
                edge = (labels[layer * width + i], labels[nxt * width + j])
                edges[edge] = float(rng.randint(1, 9))
    return labels, edges


def edb_document(edges: Edges) -> dict:
    """The CLI's JSON EDB format for one weighted relation ``E``."""
    return {
        "relations": {
            "E": [[[a, b], w] for (a, b), w in sorted(edges.items())]
        }
    }


def write_edb(path: str, edges: Edges) -> None:
    with open(path, "w") as handle:
        json.dump(edb_document(edges), handle)
