"""Benchmark-owned reference answers (never the engine under test).

``Trop+`` workloads are checked against textbook Dijkstra over the
benchmark's own copy of the EDB; the ``Trop+_p`` workload against a
k-shortest-walks search (walks, not simple paths; equal lengths count
once per walk, as bag addition does).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Tuple

Edges = Dict[Tuple[str, str], float]
Adjacency = Dict[str, Dict[str, float]]


def adjacency(edges: Edges) -> Adjacency:
    adj: Adjacency = {}
    for (a, b), w in edges.items():
        adj.setdefault(a, {})[b] = w
    return adj


def dijkstra(adj: Adjacency, source: str) -> Dict[str, float]:
    """Shortest non-empty-walk lengths from ``source`` (``T(source, ·)``).

    The source itself is reported only when a cycle returns to it.
    """
    dist: Dict[str, float] = {}
    heap = [(w, b) for b, w in adj.get(source, {}).items()]
    heapq.heapify(heap)
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nxt, w in adj.get(node, {}).items():
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return dist


def apsp(edges: Edges, sources: Iterable[str] = None) -> Dict[Tuple[str, str], float]:
    """``T`` of ``T(x,y) :- E(x,y) | T(x,z) * E(z,y)`` over ``Trop+``."""
    adj = adjacency(edges)
    out: Dict[Tuple[str, str], float] = {}
    for s in adj if sources is None else sources:
        for node, d in dijkstra(adj, s).items():
            out[(s, node)] = d
    return out


def graph_views(edges: Edges) -> Dict[str, Dict[tuple, float]]:
    """Every view of the ``graph_analytics`` program from one APSP."""
    t = apsp(edges)
    entry: Dict[tuple, float] = {}
    exit_: Dict[tuple, float] = {}
    for (x, y), d in t.items():
        if d < entry.get((y,), math.inf):
            entry[(y,)] = d
        if d < exit_.get((x,), math.inf):
            exit_[(x,)] = d
    return {
        "T": t,
        "Rev": {(y, x): d for (x, y), d in t.items()},
        "C": entry,
        "Out": exit_,
    }


def k_shortest_walks(
    edges: Edges, k: int
) -> Dict[Tuple[str, str], Tuple[float, ...]]:
    """The ``k`` smallest non-empty-walk lengths for every pair, as the
    sorted, ∞-padded tuples ``Trop+_{k-1}`` stores."""
    adj = adjacency(edges)
    out: Dict[Tuple[str, str], Tuple[float, ...]] = {}
    for source in adj:
        found: Dict[str, List[float]] = {}
        heap = [(w, b) for b, w in adj[source].items()]
        heapq.heapify(heap)
        while heap:
            d, node = heapq.heappop(heap)
            lengths = found.setdefault(node, [])
            if len(lengths) == k:
                continue
            lengths.append(d)
            for nxt, w in adj.get(node, {}).items():
                if len(found.get(nxt, ())) < k:
                    heapq.heappush(heap, (d + w, nxt))
        for node, lengths in found.items():
            out[(source, node)] = tuple(lengths) + (math.inf,) * (
                k - len(lengths)
            )
    return out
