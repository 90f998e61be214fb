"""Run every CI gate and record the engine's perf trajectory.

Runs each gate of :data:`gates.GATES` in order, keeps going after a
failure (a gate that raises counts as one failed check, and its
traceback is printed), prints one verdict table, writes it to
``benchmarks/results/gates.txt``, and writes ``BENCH_engine.json`` at
the repository root from the same measurements — whether or not the
gates pass.  CI uploads the JSON file per run, so the sequence of
artifacts is the measured performance trajectory across changes.

``BENCH_engine.json`` keeps the key paths of schema 10 and adds a
``gates`` section: per gate, its checks, its wall time, and what it
recorded that has no schema-10 key.  Schema 12 renames the ``fusion``
gate's probe keys (``serving.unfused_probe_*`` / ``fused_probe_*`` /
``fusion_speedup`` became ``serial_probe_*`` / ``burst_probe_*`` /
``batching_speedup``): every probe batches, so the gate compares a burst
with the same probes served one in flight.  Schema 13 renames the
``plan`` gate's ``engine.sym_plan_patch_s`` / ``sym_plan_rebuild_s`` to
``plan_patch_s`` / ``plan_rebuild_s``: the patch it times is now the
windows count plan a session patches, not a plan joining the symmetric
structure with itself.  Schema 14 adds the ``code`` gate's
``code.src_lines`` and ``code.benchmarks_lines``: the ``wc -l`` totals of
the ``*.py`` files under ``src/`` and ``benchmarks/``.  The ``modelled``
entries are the architecture model's pricing of the measured quantities;
they are never mixed with host wall time.

Usage (no options; to run one gate, call its function in ``gates``)::

    PYTHONPATH=src python benchmarks/record.py

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import platform
import sys
import time
import traceback
from pathlib import Path

import gates
from repro.analysis.reporting import Table

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"
VERDICTS = Path(__file__).resolve().parent / "results" / "gates.txt"
SCHEMA = 14


def _merge(into: dict, values: dict) -> None:
    for key, value in values.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


def run(registry) -> tuple[list[tuple[str, gates.Check]], dict]:
    """Run every gate in order; returns ``(gate, check)`` rows and the
    merged metrics.  A gate that raises counts as a failed check."""
    rows = []
    recorded: dict = {"gates": {}}
    for gate in registry:
        name = gate.__name__
        # Each gate starts from a collected heap, so garbage an earlier
        # gate left cannot pause a later gate's timed region.
        gc.collect()
        start = time.perf_counter()
        try:
            checks, values = gate()
        except Exception:
            traceback.print_exc()
            checks, values = [gates.Check("ran without raising", False, "==", True)], {}
        seconds = time.perf_counter() - start
        failed = sum(not check.passed for check in checks)
        print(f"{name}: {len(checks)} checks, {failed} failed, {seconds:.1f} s", flush=True)
        _merge(recorded, values)
        recorded["gates"].setdefault(name, {}).update(
            seconds=seconds,
            checks=[
                {**dataclasses.asdict(check), "passed": check.passed} for check in checks
            ],
        )
        rows += [(name, check) for check in checks]
    return rows, recorded


def verdict_table(rows) -> str:
    table = Table(["gate", "check", "value", "op", "threshold", "verdict"])
    for name, check in rows:
        table.add_row(
            [name, check.name, check.value, check.op, check.threshold,
             "ok" if check.passed else "FAIL"]
        )
    return table.render()


def main(registry=gates.GATES, output: Path = OUTPUT, verdicts: Path = VERDICTS) -> int:
    rows, recorded = run(registry)
    text = verdict_table(rows)
    print(text)
    verdicts.parent.mkdir(parents=True, exist_ok=True)
    verdicts.write_text(text + "\n", encoding="utf-8")
    payload = {
        "schema": SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        # Schema 10's workload-size flag; the sizes are fixed now.
        "quick": False,
        **recorded,
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    failed = [f"{name}: {check.name}" for name, check in rows if not check.passed]
    if failed:
        print(f"FAILED {len(failed)} of {len(rows)} checks:", *failed, sep="\n  ")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no options)")
    sys.exit(main())
