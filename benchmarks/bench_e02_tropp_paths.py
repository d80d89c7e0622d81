"""E2 — Example 4.1 over ``Trop+_1``: two shortest path lengths.

Paper artifact: the converged bags on Fig. 2(a),
``L(a)={{0,3}}, L(b)={{1,4}}, L(c)={{4,5}}, L(d)={{8,9}}``.
Also sweeps ``p`` on a larger random graph and cross-checks the bags
against brute-force k-shortest-path enumeration.
"""

from __future__ import annotations

from conftest import emit_table, sized

from repro import core, programs, semirings, workloads
from repro.core.incremental import IncrementalInstance, Mutation, fingerprint

PAPER = {
    "a": (0.0, 3.0),
    "b": (1.0, 4.0),
    "c": (4.0, 5.0),
    "d": (8.0, 9.0),
}


def _run_fig2a(p: int):
    tp = semirings.TropicalPSemiring(p)
    db = core.Database(
        pops=tp,
        relations={
            "E": {
                e: tp.singleton(w)
                for e, w in workloads.fig_2a_graph().items()
            }
        },
    )
    prog = programs.sssp("a", source_value=tp.one, missing_value=tp.zero)
    return core.solve(prog, db)


def brute_force_k_shortest(edges, source, target, k, max_hops=12):
    """Enumerate all ≤max_hops walks, return the k smallest lengths."""
    lengths = []
    frontier = [(source, 0.0)]
    for _ in range(max_hops):
        nxt = []
        for node, dist in frontier:
            for (a, b), w in edges.items():
                if a == node:
                    nd = dist + w
                    nxt.append((b, nd))
                    if b == target:
                        lengths.append(nd)
        frontier = nxt
    pad = [float("inf")] * k
    return tuple(sorted(lengths + pad)[:k])


def test_e02_fig2a_bags_match_paper(benchmark):
    result = benchmark(lambda: _run_fig2a(1))
    measured = {n: result.instance.get("L", (n,)) for n in "abcd"}
    emit_table(
        "E2: Trop+_1 two-shortest bags on Fig. 2(a)",
        ("node", "paper", "measured"),
        [(n, PAPER[n], measured[n]) for n in "abcd"],
    )
    assert measured == PAPER


def test_e02_bags_match_brute_force(benchmark):
    p = 2
    edges = workloads.random_weighted_digraph(7, 0.35, seed=21)
    tp = semirings.TropicalPSemiring(p)
    db = core.Database(
        pops=tp,
        relations={"E": {e: tp.singleton(w) for e, w in edges.items()}},
    )
    prog = programs.sssp(0, source_value=tp.one, missing_value=tp.zero)
    result = benchmark(lambda: core.solve(prog, db))
    nodes = sorted({n for e in edges for n in e})
    for target in nodes:
        if target == 0:
            continue
        expected = brute_force_k_shortest(edges, 0, target, p + 1)
        assert result.instance.get("L", (target,)) == expected, target


def test_e02_indexed_join_core_vs_seed(benchmark, quick):
    """Indexed planning vs the seed scan join on E2's largest graph.

    Same differential gate as E12: identical bags, ≥5× fewer join-core
    operations (``keys_examined``) at the full configured size.
    """
    n = sized(quick, 16, 8)
    edges = workloads.random_weighted_digraph(n, 0.35, seed=21)
    tp = semirings.TropicalPSemiring(1)
    db = core.Database(
        pops=tp,
        relations={"E": {e: tp.singleton(w) for e, w in edges.items()}},
    )
    prog = programs.sssp(0, source_value=tp.one, missing_value=tp.zero)

    def run_pair():
        indexed = core.solve(prog, db, plan="indexed")
        seed = core.solve(prog, db, plan="naive")
        assert indexed.instance.equals(seed.instance)
        return seed.stats["keys_examined"], indexed.stats["keys_examined"]

    s_ops, i_ops = benchmark(run_pair)
    ratio = round(s_ops / i_ops, 1)
    emit_table(
        f"E2: join-core ops on random digraph(n={n}), Trop+_1",
        ("plan", "keys examined"),
        [("seed scan join", s_ops), ("indexed", i_ops), ("ratio", ratio)],
    )
    assert ratio >= (3.0 if quick else 5.0)


def test_e02_p_sweep_row_counts(benchmark):
    """Shape: larger p keeps more path lengths (weakly) per node."""
    def sweep():
        out = {}
        for p in (0, 1, 2, 3):
            res = _run_fig2a(p)
            out[p] = {
                n: res.instance.get("L", (n,)) for n in "abcd"
            }
        return out

    bags = benchmark(sweep)
    finite_counts = {
        p: sum(
            sum(1 for x in bags[p][n] if x != float("inf")) for n in "abcd"
        )
        for p in bags
    }
    emit_table(
        "E2: finite path lengths kept vs p (Fig. 2a)",
        ("p", "finite entries"),
        sorted(finite_counts.items()),
    )
    assert finite_counts[0] < finite_counts[1] <= finite_counts[2] <= finite_counts[3]


def test_e02_frontier_naive_apsp(benchmark, quick, counters):
    """Algorithm 1 over ``Trop+_2`` (no ⊖, so no semi-naïve) with frontier
    rounds: only the heads whose body reads a changed atom are
    recomputed.  The fixpoint is the interpreted engine's (plain
    Algorithm 1) byte for byte, in as many steps, with fewer products;
    the gated ``valuations`` ceiling fails if the rounds fall back."""
    n = sized(quick, 16, 10)
    edges = workloads.random_weighted_digraph(n, 0.35, seed=21)
    tp = semirings.TropicalPSemiring(2)
    db = core.Database(
        pops=tp,
        relations={"E": {e: tp.singleton(w) for e, w in edges.items()}},
    )
    prog = programs.apsp()
    frontier = benchmark(lambda: core.solve(prog, db, method="naive"))
    counters.record("e02/apsp-tropp2/frontier-naive", frontier.stats)
    plain = core.solve(prog, db, method="naive", engine="interpreted")
    emit_table(
        f"E2: naïve APSP over Trop+_2 on random digraph(n={n})",
        ("evaluation", "steps", "products", "heads recomputed"),
        [
            ("Algorithm 1 (interpreted)", plain.steps, plain.stats["products"],
             plain.stats["heads_recomputed"]),
            ("frontier", frontier.steps, frontier.stats["products"],
             frontier.stats["heads_recomputed"]),
        ],
    )
    assert "frontier_refusal" not in frontier.stats
    assert fingerprint(frontier.instance) == fingerprint(plain.instance)
    assert frontier.steps == plain.steps
    assert frontier.stats["products"] < plain.stats["products"]


def test_e02_warm_insert_apsp(benchmark, quick, counters):
    """A one-edge insert through :class:`IncrementalInstance` over
    ``Trop+_2``: the warm-naïve path seeds round 1's frontier with the
    new ``E`` atom, so round 1 recomputes only the heads that read it.
    The maintained fixpoint is a cold solve's byte for byte, for fewer
    products; the gated ``valuations`` (the apply's products) ceiling
    fails if round 1 goes back to recomputing every head."""
    n = sized(quick, 16, 10)
    edges = workloads.random_weighted_digraph(n, 0.35, seed=21)
    tp = semirings.TropicalPSemiring(2)
    db = core.Database(
        pops=tp,
        relations={"E": {e: tp.singleton(w) for e, w in edges.items()}},
    )
    prog = programs.apsp()
    new = next((a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in edges)
    batch = [Mutation("insert", "E", new, tp.singleton(1.0))]

    def apply():
        inc = IncrementalInstance(prog, db)
        return inc, inc.apply(batch)

    inc, summary = benchmark(apply)
    counters.record(
        "e02/apsp-tropp2/warm-insert",
        {"valuations": summary.products, "keys_examined": summary.keys_examined},
    )
    cold = core.solve(prog, inc.database, method="naive")
    emit_table(
        f"E2: one-edge insert, APSP over Trop+_2 on random digraph(n={n})",
        ("evaluation", "steps", "products"),
        [
            ("cold solve", cold.steps, cold.stats["products"]),
            ("warm insert", summary.steps, summary.products),
        ],
    )
    assert summary.path == "warm-naive"
    assert fingerprint(inc.instance) == fingerprint(cold.instance)
    assert summary.products < cold.stats["products"]
