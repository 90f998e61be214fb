"""The repository benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

``--workload`` is ``stream``, ``analytics`` or ``serve`` (see
``README.md`` for why each exists).  With ``--trace 0`` the run measures
with nothing wrapped and prints the end-to-end metrics; with
``--trace 1`` the public functions of each layer are wrapped
(``spans.py``) and the per-layer metrics are printed instead.  Gated
times are process CPU time; wall time (``wall.*``) is printed beside
them, and the architecture model's modelled PIM figures (``pim_*``,
``pim.*``) carry units of their own.

Every answer kept is checked against an oracle; a wrong answer makes
the command exit 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The library
is imported from ``src/`` under the current directory, and all scratch
files live in ``.perfbench_work/`` there and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

#: End-to-end metrics, printed by every untraced run: (name, unit).
#: Times are process CPU time (see measure.py); ``pim_*`` are modelled.
END_TO_END = (
    ("setup_s", "s"),
    ("request_cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pim_latency_ms", "ms-modelled"),
    ("pim_energy_uj", "uJ-modelled"),
)

#: Wall-time figures: what a user waits.  Printed by every run, gated by
#: none, because hypervisor steal moves them more than any bound allows.
WALL = (
    ("wall.served_per_s", "1/s"),
    ("wall.reply_p50_ms", "ms"),
    ("wall.reply_tail_ms", "ms"),
    ("wall.apply_ops_per_s", "ops/s"),
    ("wall.apply_p50_ms", "ms"),
    ("wall.apply_tail_ms", "ms"),
    ("wall.cpu_share", "CPUs"),
)

#: Busy (self) time per layer, from the spans: metric -> span name.
LAYER_SELF_S = {
    "graph.load_s": "graph.load",
    "slicing.build_s": "slicing.build",
    "plan.compile_s": "plan.compile",
    "plan.patch_s": "plan.patch",
    "plan.merge_edges_s": "plan.merge_edges",
    "incremental.delta_join_s": "incremental.delta_join",
    "incremental.splice_s": "incremental.splice",
    "kernels.sweep_s": "kernels.sweep",
    "accelerator.run_self_s": "accelerator.run",
    "perf.evaluate_s": "perf.evaluate",
    "truss.peel_s": "truss.peel",
    "storage.read_s": "storage.read",
    "storage.write_s": "storage.write",
    "api.apply_self_s": "api.apply",
    "api.simulate_self_s": "api.simulate",
    "api.support_self_s": "api.support",
    "api.truss_self_s": "api.truss",
    "serve.acquire_s": "serve.acquire",
}

#: Calls per layer, from the spans: metric -> span name.
LAYER_CALLS = {
    "slicing.builds": "slicing.build",
    "plan.compiles": "plan.compile",
    "plan.patches": "plan.patch",
    "incremental.delta_joins": "incremental.delta_join",
    "incremental.splices": "incremental.splice",
    "kernels.sweeps": "kernels.sweep",
}

#: Calls made inside the measuring window, after set-up: silent
#: rebuild and recompile fallbacks.
WINDOW_CALLS = {
    "slicing.rebuilds": "slicing.build",
    "plan.recompiles": "plan.compile",
}

#: Per-layer metrics the workloads report themselves: (name, unit).  A
#: workload that does not exercise a layer reports 0.
WORKLOAD_LAYERS = (
    ("incremental.segments_per_call", "count"),
    ("api.applied_frac", "fraction"),
    ("api.simulate_p50_ms", "ms"),
    ("api.support_p50_ms", "ms"),
    ("api.truss_p50_ms", "ms"),
    ("storage.read_mb", "MB"),
    ("serve.wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.kernel_launches", "count"),
    ("serve.coalesced", "count"),
    ("pim.and_ops", "count"),
    ("pim.slice_writes", "count"),
    ("pim.computation_reduction_pct", "%"),
    ("pim.write_savings_pct", "%"),
    ("api.resident_mb", "MB"),
    ("api.resident_plan_mb", "MB"),
    ("api.resident_sym_plan_mb", "MB"),
    ("trace.overhead_pct", "%"),
)

PER_LAYER = (
    WALL
    + tuple((name, "s") for name in LAYER_SELF_S)
    + tuple((name, "count") for name in LAYER_CALLS)
    + tuple((name, "count") for name in WINDOW_CALLS)
    + WORKLOAD_LAYERS
    + (("trace.coverage", "fraction"), ("bench.error_rate", "fraction"))
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "analytics", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(tracer, outcome) -> dict:
    """Every per-layer metric: span aggregates plus the workload's own."""
    totals = tracer.totals()
    window = tracer.totals(*outcome.window)
    metrics = {}
    for name, span in LAYER_SELF_S.items():
        metrics[name] = (totals.get(span, [0, 0.0])[1], "s")
    for name, span in LAYER_CALLS.items():
        metrics[name] = (totals.get(span, [0])[0], "count")
    for name, span in WINDOW_CALLS.items():
        metrics[name] = (window.get(span, [0])[0], "count")
    for name, unit in WALL + WORKLOAD_LAYERS:
        metrics[name] = outcome.layers.get(name, (0, unit))
    metrics["trace.coverage"] = (tracer.coverage(*outcome.window), "fraction")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {root}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # Temp files the program makes land here, where the leak check looks.
    tempfile.tempdir = str(workdir / "tmp")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workdir: Path) -> int:
    import numpy as np

    import measure
    import workloads
    from spans import Tracer

    tracer = None
    missing: list[str] = []
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
    shm_before = measure.shm_segments()
    context = workloads.Context(args.seed, args.seconds, workdir, tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](context)
    finally:
        if tracer is not None:
            tracer.uninstall()
    leaked = measure.leaks(workdir, shm_before)
    failed = outcome.failed + len(leaked)
    attempted = outcome.attempted + len(leaked)

    if args.trace:
        metrics = layer_metrics(tracer, outcome)
        metrics["bench.error_rate"] = (failed / attempted if attempted else 0.0, "fraction")
        names = PER_LAYER
    else:
        metrics = dict(outcome.metrics)
        names = END_TO_END
    correct = not outcome.mismatches
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": measure.nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "error_rate": failed / attempted if attempted else 0.0,
        "leaks": leaked,
        "trace_missing": missing,
        **outcome.meta,
    }
    for problem in outcome.mismatches[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    for error in outcome.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    for leak in leaked:
        print(f"LEAK {leak}", file=sys.stderr)
    for target in missing:
        print(f"TRACE {target} not found; its layer reads 0", file=sys.stderr)
    for name, unit in names:
        print(f"{name:34s} {metrics[name][0]:>16.6g} {unit}")
    if not args.trace:
        for name, unit in WALL:
            value = outcome.layers[name][0]
            print(f"{name:34s} {value:>16.6g} {unit} (wall time, ungated)")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
