"""Shared helpers for the experiment benchmarks.

Every benchmark module reproduces one table/figure of the paper
(experiment ids E1–E16, see DESIGN.md).  Benchmarks both *assert* the
reproduced rows (so `--benchmark-only` runs double as verification) and
print the table for EXPERIMENTS.md; run with ``-s`` to see the tables.

``--counters PATH`` writes one ``counters/1`` snapshot of the
deterministic work counters the benchmarks record; CI gates it against
``benchmarks/baselines/counters_quick.json`` with
``benchmarks/check_counters.py``.  Wall time is not recorded: it
belongs to the repo benchmark (``perf/``).  Benchmarks opt in through
the ``counters`` fixture::

    def test_e12_…(benchmark, counters):
        result = core.solve(…)
        counters.record("e12/sssp-line(12)-naive/indexed", result.stats)
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Sequence

import pytest

from check_counters import GATED, SCHEMA


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help=(
            "run the benchmarks at tiny smoke sizes: the CI "
            "benchmark-smoke job uses this to catch perf/correctness "
            "regressions fast (combine with --benchmark-disable)"
        ),
    )
    parser.addoption(
        "--counters",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "write the recorded work counters to PATH as one counters/1 "
            "snapshot (e.g. BENCH_counters.json), the input of "
            "benchmarks/check_counters.py"
        ),
    )


@pytest.fixture
def quick(request) -> bool:
    """Whether the run asked for tiny smoke sizes (``--quick``)."""
    return bool(request.config.getoption("--quick", default=False))


def sized(quick: bool, full, small):
    """Pick the smoke-size parameter when ``--quick`` is on."""
    return small if quick else full


class CounterLog:
    """Collects the gated integer counters of named benchmark records.

    Only the counters :data:`check_counters.GATED` names are kept, so a
    snapshot has the baseline's shape.  Without ``--counters`` the
    recorder still works (benchmarks need no conditionals) but nothing
    is written.
    """

    def __init__(self, records: Dict[str, Dict[str, int]]):
        self._records = records

    def record(self, name: str, stats: Dict[str, object]) -> None:
        """Keep one record's gated counters (last write per name wins)."""
        self._records[name] = {
            k: int(v)
            for k, v in stats.items()
            if k in GATED and isinstance(v, int)
        }


@pytest.fixture
def counters(request) -> CounterLog:
    """Session-wide recorder behind the ``--counters`` knob."""
    config = request.config
    if not hasattr(config, "_counter_records"):
        config._counter_records = {}
    return CounterLog(config._counter_records)


def pytest_sessionfinish(session, exitstatus) -> None:
    config = session.config
    path = config.getoption("--counters", default=None)
    if not path:
        return
    records = getattr(config, "_counter_records", {})
    with open(path, "w") as handle:
        json.dump(
            {
                "schema": SCHEMA,
                "benchmarks": [
                    {"name": name, "stats": records[name]}
                    for name in sorted(records)
                ],
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


def emit_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an aligned table (visible with pytest -s)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    headers = tuple(str(h) for h in headers)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n── {title} " + "─" * max(0, 60 - len(title)))
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
