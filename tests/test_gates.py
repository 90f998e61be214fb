"""The gate runner (``benchmarks/record.py``) and its threshold table.

Stub gates only: no engine work runs here.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Every gate threshold, as carried over from the scripts the registry
#: replaced.  Loosening one must change this table too.
THRESHOLDS = {
    "MIN_ENGINE_SPEEDUP": 8.0,
    "MIN_STREAMING_SPEEDUP": 5.0,
    "MAX_SEGMENTS": 2,
    "MAX_KEY_BUILDS": 0,
    "MIN_PLAN_REUSE_SPEEDUP": 3.0,
    "MIN_PLAN_PATCH_SPEEDUP": 5.0,
    "MIN_SUPPORT_SPEEDUP": 5.0,
    "MIN_TRUSS_SPEEDUP": 5.0,
    "MIN_READ_AFTER_WRITE_SPEEDUP": 3.0,
    "MIN_FUSION_SPEEDUP": 2.0,
    "MIN_FUSED_BATCH": 2,
    "MIN_HYDRATE_SPEEDUP": 5.0,
    "MIN_SPILL_MULTIPLE": 4,
    "RSS_SPILL_DIVISOR": 2,
    "MIN_SERVING_SPEEDUP": 2.0,
    "MIN_RESIDENT": 8,
}


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("record")


def test_failing_and_raising_gates_fail_the_run_and_every_gate_runs(
    runner, tmp_path, capsys
):
    Check = runner.gates.Check
    ran = []

    def passing():
        ran.append("passing")
        return [Check("speedup (x)", 9.0, ">=", 8.0)], {"engine": {"triangles": 3}}

    def failing():
        ran.append("failing")
        return [
            Check("segments", 2, "<=", 2),
            Check("replies == oracle", False, "==", True),
        ], {"gates": {"failing": {"note": 1}}}

    def raising():
        ran.append("raising")
        raise RuntimeError("gate blew up")

    def last():
        ran.append("last")
        return [Check("count mismatches", 0, "==", 0)], {"engine": {"plan_pairs": 5}}

    output = tmp_path / "BENCH_engine.json"
    verdicts = tmp_path / "gates.txt"
    status = runner.main([passing, failing, raising, last], output, verdicts)

    assert status == 1
    assert ran == ["passing", "failing", "raising", "last"]
    out = capsys.readouterr()
    assert "RuntimeError: gate blew up" in out.err
    table = verdicts.read_text()
    assert table in out.out
    rows = [line.split() for line in table.splitlines()]
    assert [row[0] for row in rows if row[-1] == "FAIL"] == ["failing", "raising"]
    assert "replies == oracle" in table and "ran without raising" in table
    assert "failing: replies == oracle" in out.out
    assert "raising: ran without raising" in out.out

    payload = json.loads(output.read_text())
    assert payload["schema"] == 14
    assert payload["engine"] == {"triangles": 3, "plan_pairs": 5}
    assert payload["gates"]["failing"]["note"] == 1
    assert [c["passed"] for c in payload["gates"]["failing"]["checks"]] == [True, False]
    assert payload["gates"]["raising"]["checks"][0]["passed"] is False


def test_passing_run_exits_zero(runner, tmp_path):
    Check = runner.gates.Check

    def only():
        return [Check("rss (B)", 10, "<=", 12), Check("exact", True, "==", True)], {}

    assert runner.main([only], tmp_path / "b.json", tmp_path / "g.txt") == 0


def test_check_rejects_unknown_comparison(runner):
    with pytest.raises(ValueError, match="op"):
        runner.gates.Check("speedup", 3.0, ">", 2.0)


def test_thresholds_are_the_carried_over_values(runner):
    gates = runner.gates
    assert {name: getattr(gates, name) for name in THRESHOLDS} == THRESHOLDS
    declared = {name for name in vars(gates) if name.startswith(("MIN_", "MAX_"))}
    assert declared <= THRESHOLDS.keys()
    assert [gate.__name__ for gate in gates.GATES] == [
        "engine",
        "partitions",
        "streaming",
        "plan",
        "workloads",
        "fusion",
        "storage",
        "serving",
        "parallelism",
        "code",
    ]
