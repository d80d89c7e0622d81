"""Outside-in spans: wrap calls into each layer's functions from here.

No file under ``src/`` knows about this.  A probe names its target as a
``"module:qualname"`` string that is resolved when spans are installed;
a target that no longer exists is reported in ``missing`` and its metrics
read as absent — later changes may delete or merge modules without
touching the benchmark.

Only coarse calls are wrapped (one per rule application at the finest).
Per-tuple functions — ``KeyIndex.probe``, a kernel's ``emit``,
``pops.add``/``mul`` — never are; their cost is estimated from the
program's exact counters times a microbenchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

CANARY = "repro.core.no_such_layer:nothing"

#: span name → target.  The name's prefix is the layer; ``<name>_ms`` is
#: the per-layer metric (self time per operation).  Several targets may
#: share one name.
PROBES: List[Tuple[str, str]] = [
    ("cli.main", "repro.cli:main"),  # self time = argparse
    ("cli.print", "repro.cli:cmd_run"),  # self time = json.dumps + print
    ("cli.serve_boot", "repro.cli:cmd_serve"),
    ("cli.load_database", "repro.cli:load_database"),
    ("parser.parse", "repro.core.parser:parse_program"),
    ("io.encode_instance", "repro.core.io:instance_to_dict"),
    ("io.encode_instance", "repro.core.io:database_to_dict"),
    ("io.decode_checkpoint", "repro.core.io:instance_from_dict"),
    ("io.decode_checkpoint", "repro.core.io:database_from_dict"),
    ("instance.database_init", "repro.core.instance:Database.__post_init__"),
    ("instance.active_domain", "repro.core.instance:Database.active_domain"),
    ("engine.self", "repro.core.engine:solve"),
    ("guardrails.preflight", "repro.core.guardrails:preflight"),
    ("demand.self", "repro.core.demand:demand_solve"),
    ("demand.rewrite", "repro.core.demand:demand_rewrite"),
    ("scheduler.self", "repro.core.scheduler:scheduled_fixpoint"),
    ("planner.build_plan", "repro.core.planner:build_plan"),
    ("planner.build_plan", "repro.core.plan_ir:build_body_plan"),
    ("kernels.compile", "repro.core.kernels:compile_kernel"),
    ("kernels.execute", "repro.core.kernels:CompiledKernel.execute"),
    ("codegen.generate", "repro.core.codegen:generate_rule_kernel"),
    ("batched.build", "repro.core.batched:build_batched_rule_kernel"),
    ("batched.execute", "repro.core.batched:BatchedKernel.run"),
    ("indexes.build", "repro.core.indexes:KeyIndex.__init__"),
    ("indexes.build", "repro.core.indexes:KeyIndex.mask_table"),
    ("seminaive.self", "repro.core.seminaive:SemiNaiveEvaluator.run"),
    ("seminaive.bootstrap", "repro.core.seminaive:SemiNaiveEvaluator.bootstrap"),
    ("naive.self", "repro.core.naive:NaiveEvaluator.run"),
    ("naive.ico", "repro.core.naive:NaiveEvaluator.ico"),
    ("sharded.self", "repro.core.sharded:ShardedSemiNaiveEvaluator.run"),
    ("incremental.apply", "repro.core.incremental:IncrementalInstance.apply"),
    ("incremental.init", "repro.core.incremental:IncrementalInstance.__init__"),
    ("incremental.overdelete", "repro.core.incremental:IncrementalInstance._overdelete"),
    ("incremental.continue", "repro.core.incremental:IncrementalInstance._continue_seminaive"),
    ("incremental.resolve", "repro.core.incremental:IncrementalInstance._resolve"),
    ("journal.append", "repro.core.journal:MutationJournal.append"),
    ("journal.fsync", "os:fsync"),
    ("journal.checkpoint", "repro.core.journal:DurableInstance.checkpoint"),
    ("journal.load_checkpoint", "repro.core.journal:load_checkpoint"),
    ("journal.replay_decode", "repro.core.journal:MutationJournal.replay"),
    ("journal.recover", "repro.core.journal:DurableInstance._recover"),
    ("serve.http", "repro.core.serve:_ServeHandler.do_GET"),
    ("serve.http", "repro.core.serve:_ServeHandler.do_POST"),
    ("serve.query", "repro.core.serve:DatalogService.query"),
    ("serve.scan", "repro.core.serve:DatalogService.scan"),
    ("serve.mutate", "repro.core.serve:DatalogService.mutate"),
    ("serve.boot", "repro.core.serve:DatalogService.__init__"),
    # Never resolves.  Every traced run must report it missing and still
    # finish: the standing proof that a deleted layer cannot crash the
    # benchmark.
    ("selfcheck.canary", CANARY),
]

#: ``run`` on a generated kernel is an instance attribute, so it is
#: wrapped on each kernel as ``generate_rule_kernel`` returns it.
RESULT_ATTRS = {"codegen.generate": ("run", "codegen.execute")}

Span = Tuple[int, Optional[int], str, int, int, int, Optional[dict]]


def numeric(mapping: Any) -> Dict[str, float]:
    """The int/float entries of a counters dict (no bools, no strings)."""
    if not isinstance(mapping, dict):
        return {}
    return {
        k: v for k, v in mapping.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


#: What to keep from a wrapped call's return value.
CAPTURES: Dict[str, Callable[[Any], Optional[dict]]] = {
    "engine.self": lambda result: numeric(getattr(result, "stats", None)) or None,
}


class Tracer:
    """In-memory span recorder; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.monotonic_ns  # shared by every process on the box
        capture = CAPTURES.get(name)
        result_attr = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if capture is not None:
                    attrs = capture(result)
                if result_attr is not None:
                    attr, inner = result_attr
                    setattr(result, attr, self.wrap(inner, getattr(result, attr)))
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, parent, name, start, end, threading.get_ident(), attrs)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, probes: Iterable[Tuple[str, str]] = PROBES) -> None:
        """Patch every resolvable target; note the rest in ``missing``."""
        aliases: Dict[int, Callable] = {}
        for name, target in probes:
            try:
                module_name, qualname = target.split(":")
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError, ValueError):
                self.missing.append(target)
                continue
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if not path:
                aliases[id(original)] = wrapped
        # ``from .guardrails import preflight as run_preflight`` binds
        # the function object into the importer's globals: re-bind every
        # such alias inside the package.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = aliases.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def drain(self) -> List[Span]:
        """Hand over the spans recorded so far and start afresh."""
        out, self.spans[:] = list(self.spans), []
        return out

    def dump(self, path: str) -> None:
        write_spans(path, self.spans, self.missing)


def span_row(span: Span, **extra: Any) -> str:
    """One span as a JSON line (the format of every trace file)."""
    sid, parent, name, start, end, tid, attrs = span
    row = dict(
        extra, id=sid, parent=parent, name=name, layer=name.split(".")[0],
        start_ns=start, end_ns=end, thread=tid,
    )
    if attrs:
        row["attrs"] = attrs
    return json.dumps(row) + "\n"


def write_spans(path: str, spans: Iterable[Span], missing: Iterable[str] = ()) -> None:
    """One JSON object per line: a header, then one span each."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"missing": sorted(missing)}) + "\n")
        handle.writelines(span_row(span) for span in spans)


def read_spans(path: str) -> Tuple[List[Span], List[str]]:
    spans: List[Span] = []
    missing: List[str] = []
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            if "missing" in row:
                missing = row["missing"]
                continue
            spans.append(
                (row["id"], row["parent"], row["name"], row["start_ns"],
                 row["end_ns"], row["thread"], row.get("attrs"))
            )
    return spans, missing


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    return max(0, min(a_end, b_end) - max(a_start, b_start))


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Span id → self time (ns) = duration − the part its children cover.

    A span that is a root on its own thread (a pool worker's
    ``serve.mutate``) is adopted by the innermost span of another thread
    that encloses its start (the handler's ``do_POST`` waiting on it),
    so waiting is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: Dict[int, int] = defaultdict(int)
    roots = sorted((s for s in spans if s[1] is None), key=lambda s: s[3])
    starts = [s[3] for s in roots]
    for sid, parent, _name, start, end, tid, _attrs in spans:
        if parent is None:
            for at in range(bisect_right(starts, start) - 1, -1, -1):
                other = roots[at]
                if other[5] != tid and other[4] >= start:
                    parent = other[0]
                    break
        holder = by_id.get(parent)
        if holder is not None:
            child_ns[parent] += _overlap(start, end, holder[3], holder[4])
    return {s[0]: max(0, (s[4] - s[3]) - child_ns[s[0]]) for s in spans}


def attribute(
    spans: List[Span], windows: List[Tuple[int, int]]
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int], List[dict]]:
    """Book spans onto the operation windows they start in.

    Returns ``(self_ns, total_ns, count, captured attrs)`` — the first
    three keyed by span name and summed over all windows.  A span is cut off where its window ends (a
    server's ``cmd_serve`` outlives the operation that booted it); spans
    outside every window (set-up, the untimed read-your-writes reads) are
    left out.
    """
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    clipped: List[Span] = []
    booked: List[bool] = []
    for span in spans:
        at = bisect_right(starts, span[3]) - 1
        inside = at >= 0 and span[3] <= windows[at][1]
        if inside:
            span = span[:4] + (min(span[4], windows[at][1]),) + span[5:]
        clipped.append(span)
        booked.append(inside)
    own = self_times(clipped)
    by_id = {s[0]: s for s in clipped}
    self_ns: Dict[str, int] = defaultdict(int)
    total_ns: Dict[str, int] = defaultdict(int)
    count: Dict[str, int] = defaultdict(int)
    attrs: List[dict] = []
    for span, inside in zip(clipped, booked):
        if not inside:
            continue
        self_ns[span[2]] += own[span[0]]
        total_ns[span[2]] += span[4] - span[3]
        count[span[2]] += 1
        if span[6] and not _captured_above(span, by_id):
            attrs.append(span[6])
    return dict(self_ns), dict(total_ns), dict(count), attrs


def _captured_above(span: Span, by_id: Dict[int, Span]) -> bool:
    """A demand query re-enters ``solve``; the outer call's counters
    already include the inner one's."""
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[6]:
            return True
        parent = by_id.get(parent[1])
    return False
