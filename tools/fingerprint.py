"""A parent-vs-change differential over strict fixpoint fingerprints.

A fixpoint's fingerprint is :func:`repro.core.incremental.fingerprint`,
the byte-exact rendering of every stored atom by ``repr`` of key and
value: two fixpoints with the same fingerprint hold the same values,
and the same Python objects as far as ``repr`` tells — ``3`` and
``3.0``, or ``0.0`` and ``-0.0``, differ.

The differential runs one case matrix against two source trees and
reports every case whose record differs, with the fields that do
(``fingerprint``, ``steps``, ``verdict``, ``error``, a named
``stats.<key>``, a batch of an incremental history, or the state
recovery rebuilds from that history's journal)::

    python tools/fingerprint.py diff --parent HEAD --workdir DIR [--quick]

archives ``--parent`` with ``git archive`` into ``DIR/parent`` and runs
the matrix against it and against this checkout.  Each side runs in its
own process with its tree's ``src`` first on ``sys.path`` and a fixed
``PYTHONHASHSEED``.  A record holds the fingerprint, the steps, the
verdict, every integer stat, or the error a case raised.  The matrix is
programs × value spaces × methods × engines × plans × schedules, plus
demand queries (``query=``) and incremental histories, each history
also journaled through a ``DurableInstance`` and recovered.  Exit status 1
means some record differs.

    python tools/fingerprint.py run --src TREE --out FILE [--quick]

runs the matrix against ``TREE/src`` only and writes the records as
JSON.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tarfile
from typing import Any, Callable, Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# The case matrix (imports ``repro`` from whichever tree is on sys.path)
# ---------------------------------------------------------------------------

#: Edge weights that exercise exactness: ints, a signed zero, zeros and
#: ``inf`` next to ordinary floats.
_WEIGHTS = (1, 2.5, 3, -0.0, 0, 0.0, 4.0, math.inf, 7, 1.5)


def _graph(seed: int, nodes: int, edges: int, acyclic: bool) -> Dict[Tuple, Any]:
    rng = random.Random(seed)
    out: Dict[Tuple, Any] = {}
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if acyclic and a >= b:
            continue
        out[(f"n{a}", f"n{b}")] = rng.choice(_WEIGHTS)
    return out


def _spaces() -> Dict[str, Tuple[Any, Callable[[Any], Any], bool]]:
    """name -> (pops, weight -> value, acyclic graphs only)."""
    from repro import semirings as S

    def bag(p: int) -> Callable[[Any], Any]:
        def lift(w: Any) -> Any:
            if w == math.inf:
                return (math.inf,) * (p + 1)
            return (w,) + (math.inf,) * p  # ints and -0.0 kept as given

        return lift

    def canonical_bag(p: int) -> Callable[[Any], Any]:
        # Positively signed floats: already Trop+_p's canonical form.
        return lambda w: bag(p)(float(w) + 0.0)

    def unit(w: Any) -> Any:  # into [0, 1], keeping 0, -0.0 and 1 as given
        return 1 if w == math.inf else (w if w in (0, 1) else w / 8)

    return {
        "trop": (S.TROP, lambda w: w, False),
        "trop_p1": (S.TropicalPSemiring(1), bag(1), False),
        "trop_p2": (S.TropicalPSemiring(2), bag(2), False),
        "trop_p2_float": (S.TropicalPSemiring(2), canonical_bag(2), False),
        "viterbi": (S.VITERBI, unit, False),
        "bottleneck": (S.BOTTLENECK, lambda w: w, False),
        "rplus": (S.REAL_PLUS, lambda w: 2 if w == math.inf else w, True),
        "lifted_real": (S.LIFTED_REAL, lambda w: 2.0 if w == math.inf else w, True),
        "trop_nat": (S.TROP_NAT, lambda w: w if w == math.inf else int(w), False),
        "trop_eta": (S.TropicalEtaSemiring(2.0), lambda w: (w,), False),
        "three": (S.THREE, lambda w: bool(w), False),
        "bool": (S.BOOL, lambda w: True, False),
    }


def _programs(pops) -> Dict[str, Tuple[Any, Any]]:
    """name -> (program, function registry or None)."""
    from repro import programs
    from repro.core.ast import Compare, Constant, terms, var
    from repro.core.parser import parse_program
    from repro.core.rules import (
        FuncFactor, Indicator, Program, RelAtom, Rule, SumProduct, ValueConst,
    )
    from repro.semirings.base import FunctionRegistry

    def atom(rel: str, *args: str) -> RelAtom:
        return RelAtom(rel, terms(list(args)))

    first_factors = Program(
        rules=[
            Rule("L", terms(["X"]), (
                SumProduct((Indicator(Compare("==", var("X"), Constant("n0"))),)),
                SumProduct((atom("L", "Z"), atom("E", "Z", "X"))),
            )),
            Rule("C", terms(["X", "Y"]), (
                SumProduct((ValueConst(pops.one), atom("E", "X", "Y"))),
            )),
            Rule("F", terms(["X", "Y"]), (
                SumProduct((FuncFactor("ident", (atom("E", "X", "Y"),)),)),
                SumProduct((FuncFactor("ident", (atom("E", "X", "Z"),)),
                            atom("F", "Z", "Y"))),
            )),
            Rule("B", terms(["X", "Y"]), (
                SumProduct((atom("Node", "X"), atom("E", "X", "Y"))),
            )),
            Rule("K", terms(["X"]), (SumProduct((atom("L", "X"),)),)),
        ],
        edbs={"E": 2},
        bool_edbs={"Node": 1},
    )
    functions = FunctionRegistry()
    functions.register("ident", lambda v: v)
    layered = parse_program(
        "S(X) :- [X = n0].\n"
        "L(X) :- S(X) | L(Z) * E(Z, X).\n"
        "Best(X) :- L(X).\n"
    )
    return {
        "tc": (programs.transitive_closure(), None),
        "tc2": (programs.quadratic_transitive_closure(), None),
        "analytics": (programs.graph_analytics(), None),
        "first_factors": (first_factors, functions),
        "layered": (layered, None),
    }


def _database(pops, lift, edges):
    from repro.core import Database

    nodes = {n for key in edges for n in key}
    return Database(
        pops=pops,
        relations={"E": {k: lift(w) for k, w in edges.items()}},
        bool_relations={"Node": {(n,) for n in sorted(nodes)[::2]}},
    )


def _solved(program, database, **options) -> Dict[str, Any]:
    from repro.core import solve
    from repro.core.incremental import fingerprint

    try:
        result = solve(program, database, max_iterations=500, **options)
    except Exception as exc:  # noqa: BLE001 — the refusal is the record
        text = re.sub(r" at 0x[0-9a-f]+", "", str(exc))
        return {"error": f"{type(exc).__name__}: {text}"}
    verdict = getattr(result, "verdict", None)
    return {
        "fingerprint": fingerprint(result.instance),
        "steps": result.steps,
        "verdict": verdict.describe() if verdict is not None else None,
        "stats": {
            k: v for k, v in sorted(result.stats.items())
            if isinstance(v, int) and not isinstance(v, bool)
        },
    }


ENGINES = ("interpreted", "compiled", "codegen", "batched")


def cases(quick: bool) -> Iterator[Tuple[str, Callable[[], Dict[str, Any]]]]:
    """Every ``(case name, record thunk)`` of the matrix."""
    seeds = (1,) if quick else (1, 2, 3, 4)
    grid = list(itertools.product(
        ("naive", "seminaive", "grounded"), ENGINES,
        ("indexed", "indexed-greedy", "naive"), ("scc", "monolithic"),
    ))
    for space, (pops, lift, acyclic) in _spaces().items():
        programs = _programs(pops)
        tc = programs["tc"][0]
        for seed in seeds:
            edges = _graph(seed, nodes=6, edges=11, acyclic=acyclic)
            db = _database(pops, lift, edges)
            for pname, (prog, functions) in programs.items():
                for method, engine, plan, schedule in grid:
                    name = "/".join(
                        (space, str(seed), pname, method, engine, plan, schedule)
                    )
                    yield name, functools.partial(
                        _solved, prog, db, method=method, engine=engine,
                        plan=plan, schedule=schedule, functions=functions,
                    )
            for method, engine in itertools.product(("naive", "seminaive"), ENGINES):
                for source in ("n0", "n3"):
                    yield (
                        f"{space}/{seed}/query/{method}/{engine}/{source}",
                        functools.partial(
                            _solved, tc, db, method=method, engine=engine,
                            query=("T", (source, None)),
                        ),
                    )
            new_edge = ("n0", "n5") if acyclic else ("n5", "n0")
            history = [
                [("insert", "E", new_edge, lift(2))],
                [("delete", "E", next(iter(edges)), None)],
                [("insert", "E", key, lift(3)) for key in list(edges)[1:3]],
            ]
            for engine in ENGINES:
                yield (
                    f"{space}/{seed}/incremental/{engine}",
                    functools.partial(_history, tc, db, engine, history),
                )


def _history(program, database, engine, batches) -> Dict[str, Any]:
    """Apply ``batches`` through one incremental instance, recording
    each batch's summary and the maintained fixpoint, and what recovery
    rebuilds from the same batches journaled."""
    from repro.core.incremental import IncrementalInstance, Mutation, fingerprint

    inc = IncrementalInstance(program, database, engine=engine)
    out: List[Any] = []
    for batch in batches:
        batch = [Mutation(*mutation) for mutation in batch]
        try:
            summary = inc.apply(batch).as_dict()
        except Exception as exc:  # noqa: BLE001
            out.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        summary.pop("wall_s", None)
        out.append({"summary": summary, "fingerprint": fingerprint(inc.instance)})
    return {"history": out, "recovery": _recovered(program, database, engine, batches)}


def _recovered(program, database, engine, batches) -> Dict[str, Any]:
    """Journal ``batches`` through a durable instance that checkpoints
    none of them, reopen its data directory, and record the recovered
    fixpoint, ``seq`` and ``journal_replays``."""
    import tempfile

    from repro.core.incremental import Mutation, fingerprint
    from repro.core.journal import DurableInstance

    options = dict(engine=engine, checkpoint_every=len(batches) + 1)
    with tempfile.TemporaryDirectory() as data_dir:
        try:
            with DurableInstance(
                data_dir, program, database.pops, database=database, **options
            ) as live:
                for batch in batches:
                    try:  # a failed batch is scrubbed; the history records it
                        live.apply([Mutation(*mutation) for mutation in batch])
                    except Exception:  # noqa: BLE001
                        pass
            with DurableInstance(
                data_dir, program, database.pops, **options
            ) as recovered:
                return {
                    "fingerprint": fingerprint(recovered.instance),
                    "seq": recovered.seq,
                    "journal_replays": recovered.stats["journal_replays"],
                }
        except Exception as exc:  # noqa: BLE001
            return {"error": f"{type(exc).__name__}: {exc}"}


def run(src: str, out: str, quick: bool) -> None:
    sys.path.insert(0, os.path.join(src, "src"))
    records = {name: thunk() for name, thunk in cases(quick)}
    with open(out, "w") as handle:
        json.dump(records, handle, sort_keys=True, indent=0)


# ---------------------------------------------------------------------------
# Parent vs change
# ---------------------------------------------------------------------------


def _archive(ref: str, dest: str) -> None:
    data = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    os.makedirs(dest, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def _run_side(tree: str, out: str, quick: bool) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.abspath(__file__), "run", "--src", tree, "--out", out]
    subprocess.run(cmd + (["--quick"] if quick else []), check=True, env=env)
    with open(out) as handle:
        return json.load(handle)


def differing_fields(before: Any, after: Any, prefix: str = "") -> List[str]:
    """The fields in which two records of one case differ: a differing
    stat is ``stats.<key>``, a differing part of an incremental history
    ``history.<batch>.fingerprint`` or ``history.<batch>.summary.<key>``,
    and of the recovered state ``recovery.<key>``.  A stat only one side
    reports (a counter the parent does not have) is not compared."""
    if isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        return [
            field for i, (old, new) in enumerate(zip(before, after))
            for field in differing_fields(old, new, f"{prefix}{i}.")
        ]
    if not (isinstance(before, dict) and isinstance(after, dict)):
        return [] if before == after else [prefix.rstrip(".")]
    fields = []
    for field in sorted(set(before) | set(after)):
        old, new = before.get(field), after.get(field)
        if field == "stats" and old is not None and new is not None:
            old = {key: old[key] for key in old if key in new}
            new = {key: new[key] for key in new if key in old}
        if field in ("stats", "summary", "history", "recovery"):
            fields.extend(differing_fields(old, new, f"{prefix}{field}."))
        elif old != new:
            fields.append(prefix + field)
    return fields


def diff(parent: str, workdir: str, quick: bool) -> int:
    tree = os.path.join(workdir, "parent")
    _archive(parent, tree)
    before = _run_side(tree, os.path.join(workdir, "parent.json"), quick)
    after = _run_side(ROOT, os.path.join(workdir, "change.json"), quick)
    differ = {
        name: differing_fields(before.get(name, {}), after.get(name, {}))
        for name in sorted(set(before) | set(after))
    }
    differ = {name: fields for name, fields in differ.items() if fields}
    refused = sum(1 for record in after.values() if "error" in record)
    print(f"{len(after)} cases ({refused} refused), {len(differ)} differ")
    by_field: Dict[str, int] = {}
    for fields in differ.values():
        # Batches fold together, and stats into their record part.
        groups = {re.sub(r"\.\d+", "", field) for field in fields}
        groups = {
            g.rsplit(".", 1)[0] if g.startswith(("stats.", "history.summary.")) else g
            for g in groups
        }
        for group in groups:
            by_field[group] = by_field.get(group, 0) + 1
    for field, count in sorted(by_field.items()):
        print(f"  {count} differ in {field}")
    stats = [
        {key for record in side.values() for key in record.get("stats", {})}
        for side in (before, after)
    ]
    for label, keys in (("parent", stats[0] - stats[1]), ("change", stats[1] - stats[0])):
        if keys:
            print(f"  stats only the {label} reports (not compared): {', '.join(sorted(keys))}")
    for name, fields in differ.items():
        print(f"  {name}: {', '.join(fields)}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("diff", help="parent-vs-change differential")
    d.add_argument("--parent", default="HEAD")
    d.add_argument("--workdir", required=True)
    d.add_argument("--quick", action="store_true")
    r = sub.add_parser("run", help="run the matrix against one tree")
    r.add_argument("--src", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.src, args.out, args.quick)
        return 0
    return diff(args.parent, args.workdir, args.quick)


if __name__ == "__main__":
    sys.exit(main())
