"""Command-line interface: run datalog° programs from files.

Usage::

    python -m repro run PROGRAM.dl --pops trop --edb data.json [--method naive]
    python -m repro classify PROGRAM.dl --pops trop --edb data.json
    python -m repro pops-list

The EDB file is JSON::

    {
      "relations":      {"E": [[["a", "b"], 1.0], [["b", "c"], 3.0]]},
      "bool_relations": {"Src": [["a"]]}
    }

— each POPS relation is a list of ``[key_tuple, value]`` pairs, each
Boolean relation a list of key tuples.  Values are passed to the chosen
value space verbatim (numbers for ``trop``/``nat``/…, booleans for
``bool``); for ``tropp:K`` a plain number is lifted to a singleton bag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Dict, Optional

from . import analysis, semirings
from .core import (
    VALID_ENGINES,
    VALID_PLANS,
    VALID_SCHEDULES,
    BudgetExceeded,
    Database,
    parse_program,
    solve,
)
from .core.engine import collector_paused
from .semirings import POPS


def _tropp(spec: str) -> POPS:
    p = int(spec.split(":", 1)[1])
    return semirings.TropicalPSemiring(p)


def _tropeta(spec: str) -> POPS:
    eta = float(spec.split(":", 1)[1])
    return semirings.TropicalEtaSemiring(eta)


#: name (or prefixed family) → POPS factory.
POPS_FACTORIES: Dict[str, Callable[[str], POPS]] = {
    "bool": lambda _s: semirings.BOOL,
    "nat": lambda _s: semirings.NAT,
    "natinf": lambda _s: semirings.NAT_INF,
    "realplus": lambda _s: semirings.REAL_PLUS,
    "trop": lambda _s: semirings.TROP,
    "bottleneck": lambda _s: semirings.BOTTLENECK,
    "viterbi": lambda _s: semirings.VITERBI,
    "tropnat": lambda _s: semirings.TROP_NAT,
    "lifted-real": lambda _s: semirings.LIFTED_REAL,
    "lifted-nat": lambda _s: semirings.LIFTED_NAT,
    "three": lambda _s: semirings.THREE,
    "tropp": _tropp,
    "tropeta": _tropeta,
}


def resolve_pops(spec: str) -> POPS:
    """Resolve a ``--pops`` spec like ``trop`` or ``tropp:2``."""
    family = spec.split(":", 1)[0]
    factory = POPS_FACTORIES.get(family)
    if factory is None:
        known = ", ".join(sorted(POPS_FACTORIES))
        raise SystemExit(f"unknown value space {spec!r}; known: {known}")
    return factory(spec)


def _lift_value(pops: POPS, value: Any) -> Any:
    """Coerce a JSON value into the chosen value space."""
    if isinstance(pops, semirings.TropicalPSemiring) and isinstance(
        value, (int, float)
    ):
        return pops.singleton(float(value))
    if isinstance(pops, semirings.TropicalEtaSemiring) and isinstance(
        value, (int, float)
    ):
        return pops.singleton(float(value))
    return value


def load_database(path: str, pops: POPS) -> Database:
    """Load the JSON EDB format described in the module docstring."""
    with open(path) as f:
        payload = json.load(f)
    relations = {
        rel: {
            tuple(key): _lift_value(pops, value)
            for key, value in entries
        }
        for rel, entries in payload.get("relations", {}).items()
    }
    bool_relations = {
        rel: {tuple(key) for key in keys}
        for rel, keys in payload.get("bool_relations", {}).items()
    }
    return Database(
        pops=pops, relations=relations, bool_relations=bool_relations
    )


def _format_value(value: Any) -> str:
    if value is semirings.BOTTOM:
        return "⊥"
    return repr(value)


def _print_facts(instance) -> None:
    for rel in sorted(instance.relations()):
        for key in sorted(instance.support(rel), key=repr):
            value = instance.get(rel, key)
            key_text = ", ".join(str(k) for k in key)
            print(f"{rel}({key_text}) = {_format_value(value)}")


def _print_stats(stats: Dict[str, Any]) -> None:
    for name in sorted(stats):
        print(f"# stat {name} = {stats[name]!r}")


def _report_budget_exceeded(args: argparse.Namespace, exc: BudgetExceeded) -> int:
    """Structured degradation: verdict + the partial fixpoint prefix,
    exit code 3 (distinct from knob errors)."""
    print(
        f"# budget exceeded: {exc.resource} "
        f"(limit {exc.limit!r}, spent {exc.spent!r})"
    )
    if exc.verdict is not None:
        print(f"# pre-flight verdict: {exc.verdict.describe()}")
    partial = exc.partial
    if partial is None:
        print("# no consistent iterate completed before the budget tripped")
        return 3
    print(
        f"# partial result: last consistent prefix after "
        f"{partial.steps} steps"
    )
    _print_facts(partial.instance)
    if args.stats:
        _print_stats(partial.stats)
    return 3


def cmd_run(args: argparse.Namespace) -> int:
    pops = resolve_pops(args.pops)
    with open(args.program) as f:
        program = parse_program(f.read())
    database = load_database(args.edb, pops)
    max_iterations = args.max_iterations
    if args.budget_iterations is not None:
        max_iterations = args.budget_iterations
    try:
        result = solve(
            program,
            database,
            method=args.method,
            max_iterations=max_iterations,
            plan=args.plan,
            schedule=args.schedule,
            engine=args.engine,
            engine_workers=args.workers,
            max_wall_s=args.budget_wall_s,
            max_tuples=args.budget_tuples,
            preflight=args.preflight,
            query=args.query,
        )
    except BudgetExceeded as exc:
        return _report_budget_exceeded(args, exc)
    except ValueError as exc:
        # Knob conflicts (e.g. --plan naive --engine codegen) surface
        # as engine-layer ValueErrors; report them CLI-style.
        raise SystemExit(f"error: {exc}") from exc
    if args.output == "json":
        from .core.io import instance_to_dict

        with collector_paused():
            payload = {
                "steps": result.steps,
                "pops": pops.name,
                "instance": instance_to_dict(result.instance),
            }
            if result.verdict is not None:
                payload["verdict"] = result.verdict.as_dict()
            if args.stats:
                payload["stats"] = result.stats
            # One-shot and unindented: the only form json runs through
            # its C encoder.
            sys.stdout.write(json.dumps(payload, ensure_ascii=False) + "\n")
        return 0
    print(f"# converged in {result.steps} steps over {pops.name}")
    if result.verdict is not None:
        print(f"# pre-flight verdict: {result.verdict.describe()}")
    _print_facts(result.instance)
    if args.stats:
        _print_stats(result.stats)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the crash-safe always-on query service over HTTP."""
    from .core.journal import CHECKPOINT_NAME
    from .core.serve import DatalogService, make_server

    pops = resolve_pops(args.pops)
    with open(args.program) as f:
        program = parse_program(f.read())
    database = None
    if args.edb is not None:
        database = load_database(args.edb, pops)
    elif not os.path.exists(os.path.join(args.data_dir, CHECKPOINT_NAME)):
        raise SystemExit(
            f"error: no --edb given and no {CHECKPOINT_NAME} in "
            f"{args.data_dir!r} to recover from"
        )
    try:
        service = DatalogService(
            program,
            pops,
            args.data_dir,
            database=database,
            checkpoint_every=args.checkpoint_every,
            query_wall_s=args.query_wall_s,
            pool_workers=args.threads,
            plan=args.plan,
            engine=args.engine,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"# serving on http://{host}:{port} (seq {service.durable.seq})")
    print("# routes: GET /health /stats /query /scan · POST /mutate /checkpoint")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("# shutting down (state is journaled; restart to recover)")
    finally:
        server.server_close()
        service.close()
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    pops = resolve_pops(args.pops)
    with open(args.program) as f:
        program = parse_program(f.read())
    database = load_database(args.edb, pops)
    report = analysis.classify(program, database)
    print(f"value space     : {pops.name}")
    print(f"taxonomy case   : {report.taxonomy_case}")
    print(f"linear program  : {report.linear}")
    print(f"ground IDB atoms: {report.n_ground_atoms}")
    print(f"stability p     : {report.stability_p}")
    print(f"step bound      : {report.bound}")
    print(f"why             : {report.explanation}")
    return 0


def cmd_pops_list(_args: argparse.Namespace) -> int:
    for name in sorted(POPS_FACTORIES):
        suffix = (
            " (parameterized, e.g. tropp:2)" if name in ("tropp", "tropeta") else ""
        )
        print(name + suffix)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="datalog°: run Datalog over (pre-) semirings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a program to its fixpoint")
    run.add_argument("program", help="datalog° source file")
    run.add_argument("--pops", required=True, help="value space, e.g. trop")
    run.add_argument("--edb", required=True, help="JSON EDB file")
    run.add_argument(
        "--method",
        default="naive",
        choices=("naive", "seminaive", "grounded"),
    )
    run.add_argument("--max-iterations", type=int, default=100_000)
    run.add_argument(
        "--plan",
        default="indexed",
        choices=VALID_PLANS,
        help=(
            "join strategy: cost-ordered hash-index probes (default), "
            "greedy-ordered probes, or the seed scan join"
        ),
    )
    run.add_argument(
        "--schedule",
        default="auto",
        choices=VALID_SCHEDULES,
        help=(
            "fixpoint scheduling: per-SCC strata (auto/scc) or the "
            "whole-program iteration"
        ),
    )
    run.add_argument(
        "--engine",
        default="auto",
        choices=VALID_ENGINES,
        help=(
            "join/evaluation pipeline: generated-source kernels "
            "(auto/codegen), closure kernels (compiled), columnar whole-batch "
            "kernels (batched), or the re-planned generator pipeline "
            "(interpreted)"
        ),
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "shard the semi-naïve delta across N worker processes "
            "(partition-local joins + delta-shipping exchange; "
            "requires --method seminaive; default 1 = in-process)"
        ),
    )
    run.add_argument(
        "--query",
        default=None,
        metavar="PATTERN",
        help=(
            "demand pattern like 'T(a,?)' ('?'/'_' = free position): "
            "magic-set-specialize the program to the bound pattern and "
            "evaluate only the demanded part of the fixpoint; outside "
            "the supported fragment the full fixpoint runs with "
            "stats['demand_fallbacks'] counted (see --stats)"
        ),
    )
    run.add_argument(
        "--budget-iterations",
        type=int,
        default=None,
        metavar="N",
        help=(
            "iteration budget (overrides --max-iterations); exceeding "
            "it exits 3 with the partial fixpoint prefix"
        ),
    )
    run.add_argument(
        "--budget-wall-s",
        type=float,
        default=None,
        metavar="S",
        help=(
            "wall-clock budget in seconds, polled inside kernel "
            "applications; exceeding it exits 3 with the partial prefix"
        ),
    )
    run.add_argument(
        "--budget-tuples",
        type=int,
        default=None,
        metavar="N",
        help=(
            "budget on the total derived-tuple count; exceeding it "
            "exits 3 with the partial prefix"
        ),
    )
    run.add_argument(
        "--preflight",
        default="auto",
        choices=("auto", "off"),
        help=(
            "run the stability/convergence pre-flight and report its "
            "verdict (converges / bounded-by-N / may-diverge) with the "
            "result (default auto)"
        ),
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the run's counters (join core, exchange volume, "
            "shard_fallbacks / shard_stall_fallbacks, …) after the facts"
        ),
    )
    run.add_argument(
        "--output", default="text", choices=("text", "json"),
        help="result format (text facts or a JSON document)",
    )
    run.set_defaults(handler=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe incremental query service over HTTP",
    )
    serve.add_argument("program", help="datalog° source file")
    serve.add_argument("--pops", required=True, help="value space, e.g. trop")
    serve.add_argument(
        "--edb",
        default=None,
        help=(
            "JSON EDB file for a cold start; omit to recover the warm "
            "state from --data-dir's checkpoint + journal"
        ),
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        help="directory for the write-ahead journal and checkpoints",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="TCP port (0 picks an ephemeral port; default 8750)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="checkpoint + rotate the journal every N mutation batches",
    )
    serve.add_argument(
        "--query-wall-s",
        type=float,
        default=2.0,
        metavar="S",
        help=(
            "per-request wall budget; a blown budget returns a "
            "structured 408 instead of hanging"
        ),
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=4,
        metavar="N",
        help="request thread-pool width",
    )
    serve.add_argument(
        "--plan",
        default="indexed",
        choices=VALID_PLANS,
    )
    serve.add_argument("--engine", default="auto", choices=VALID_ENGINES)
    serve.set_defaults(handler=cmd_serve)

    classify = sub.add_parser(
        "classify", help="predict convergence (Theorem 1.2)"
    )
    classify.add_argument("program")
    classify.add_argument("--pops", required=True)
    classify.add_argument("--edb", required=True)
    classify.set_defaults(handler=cmd_classify)

    pops_list = sub.add_parser("pops-list", help="list known value spaces")
    pops_list.set_defaults(handler=cmd_pops_list)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point (also exposed as ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
