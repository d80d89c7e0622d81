"""What the frozen repo benchmark (``perf/``) pins, checked in tier-1.

``perf/`` is read, never changed: its probe table names engine
functions by ``"module:qualname"``, its engine ablation calls
``solve(engine=…)`` / ``engine_workers=2`` by name, and CI's
``bench-smoke`` step fails when one of them stops resolving.  A rename
fails here in a second instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro import programs, workloads
from repro.core import VALID_ENGINES, Database, NaiveEvaluator, solve
from repro.semirings import TROP

ROOT = Path(__file__).resolve().parent.parent
ENGINES = tuple(e for e in VALID_ENGINES if e != "auto")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "_perf_tracing", ROOT / "perf" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers_engines():
    """``perf/layers.ENGINES``, read without importing the harness."""
    tree = ast.parse((ROOT / "perf" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENGINES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perf/layers.py no longer defines ENGINES")


TRACING = _tracing()


@pytest.mark.parametrize(
    "target", sorted({t for _name, t in TRACING.PROBES if t != TRACING.CANARY})
)
def test_probe_target_resolves(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_generated_kernel_run_is_read_at_call_time():
    """The tracer wraps ``run`` on every object ``generate_rule_kernel``
    returns; the seam must call through that attribute."""
    db = Database(pops=TROP, relations={"E": dict(workloads.line_edges(6))})
    prog = programs.sssp(0)
    evaluator = NaiveEvaluator(prog, db, engine="codegen")
    calls = []
    for idx in range(sum(len(rule.bodies) for rule in prog.rules)):
        kernel = evaluator.kernel(idx)
        inner = kernel.run

        def counting(*args, _inner=inner):
            calls.append(1)
            return _inner(*args)

        kernel.run = counting
    result = evaluator.run()
    assert len(calls) == result.stats["rule_applications"] > 0


def test_engine_ablation_names_are_accepted_and_agree():
    assert _layers_engines() == ENGINES
    db = Database(pops=TROP, relations={"E": dict(workloads.line_edges(8))})
    prog = programs.apsp()
    reference = solve(prog, db, method="seminaive").instance
    for engine in _layers_engines():
        got = solve(prog, db, method="seminaive", engine=engine).instance
        assert got.equals(reference), engine
    sharded = solve(prog, db, method="seminaive", engine_workers=2)
    assert sharded.instance.equals(reference)


def test_ci_engine_matrices_track_valid_engines():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrices = [
        tuple(name.strip() for name in found.split(","))
        for found in re.findall(r"^\s*engine:\s*\[([^\]]*)\]", text, re.M)
    ]
    assert ENGINES in matrices  # the full differential matrix
    for matrix in matrices:
        assert set(matrix) <= set(ENGINES), matrix
