"""The benchmark counter gate (`benchmarks/check_counters.py`).

Runs no benchmark: the gate's decisions are checked on hand-made
snapshots, and its table against the checked-in baseline.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
BASELINE = BENCHMARKS / "baselines" / "counters_quick.json"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_counters", BENCHMARKS / "check_counters.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

CEILING = "keys_examined"
FLOOR = "kernel_cache_hits"


def _baseline():
    return {"e/run": {CEILING: 1000, FLOOR: 1000}}


def _current(ceiling=1000, floor=1000):
    return {"e/run": {CEILING: ceiling, FLOOR: floor}}


def test_directions_of_the_probe_counters():
    assert checker.GATED[CEILING] == "ceiling"
    assert checker.GATED[FLOOR] == "floor"
    assert set(checker.GATED.values()) == {"ceiling", "floor"}


@pytest.mark.parametrize(
    "current",
    [_current(ceiling=1110), _current(floor=890)],
    ids=["ceiling+11%", "floor-11%"],
)
def test_eleven_percent_the_wrong_way_fails(current):
    _lines, failures = checker.check(current, _baseline())
    assert len(failures) == 1


@pytest.mark.parametrize(
    "current",
    [
        _current(ceiling=1090),
        _current(ceiling=910),
        _current(floor=1090),
        _current(floor=910),
    ],
    ids=["ceiling+9%", "ceiling-9%", "floor+9%", "floor-9%"],
)
def test_nine_percent_either_way_passes(current):
    _lines, failures = checker.check(current, _baseline())
    assert failures == []


def test_missing_record_fails():
    _lines, failures = checker.check({}, _baseline())
    assert failures == ["e/run: missing from current run"]


def test_missing_counter_fails():
    _lines, failures = checker.check({"e/run": {CEILING: 1000}}, _baseline())
    assert len(failures) == 1 and FLOOR in failures[0]


def test_new_record_is_reported_not_gated():
    current = dict(_current(), **{"e/new": {CEILING: 10**9}})
    lines, failures = checker.check(current, _baseline())
    assert failures == []
    assert any("e/new" in line and "not gated" in line for line in lines)


def test_ungated_baseline_counter_is_ignored():
    baseline = {"e/run": {"wall_ms": 5}}
    _lines, failures = checker.check({"e/run": {"wall_ms": 500}}, baseline)
    assert failures == []


def test_cli_exit_status(tmp_path):
    def write(name, records):
        path = tmp_path / name
        path.write_text(
            json.dumps(
                {
                    "schema": checker.SCHEMA,
                    "benchmarks": [
                        {"name": n, "stats": s} for n, s in records.items()
                    ],
                }
            )
        )
        return str(path)

    base = write("base.json", _baseline())
    assert checker.main([write("ok.json", _current()), base]) == 0
    assert checker.main([write("bad.json", _current(ceiling=1200)), base]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "joincore-bench/2", "runs": []}))
    with pytest.raises(SystemExit):
        checker.load(str(wrong))


def test_baseline_has_no_dead_gate_entries():
    baseline = checker.load(str(BASELINE))
    carried = {stat for stats in baseline.values() for stat in stats}
    assert set(checker.GATED) <= carried
    assert carried <= set(checker.GATED)
