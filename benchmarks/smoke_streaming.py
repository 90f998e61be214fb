"""CI smoke: incremental streaming on the session fast path.

Holds a ~20k-vertex / ~160k-edge Barabási–Albert graph resident in a
:class:`repro.api.TCIMSession` and applies a 1,000-op insert/delete
stream through ``session.apply(ops)`` — the vectorized delta re-join
path (:mod:`repro.core.incremental`).  Asserts:

* the final triangle count equals a from-scratch sharded run on the
  final graph, and the session's post-stream full run conserves the
  from-scratch :class:`EventCounts` field by field;
* a ``num_arrays=1`` session over the same stream is bit-identical to
  the single-array vectorized engine on the final graph;
* each session runs the whole stream as at most ``MAX_SEGMENTS`` (2)
  engine batches — its net deletions, then its net insertions — a count
  gate that, unlike wall time, cannot pass on a fast machine by luck;
* neither session's ``apply()`` builds a whole-structure key array
  (zero :meth:`SlicedMatrix.global_keys` calls): its delta joins key
  only the rows they touch — another count gate;
* incremental throughput is at least ``MIN_SPEEDUP`` (5x) over per-op
  full recounts (the number is recorded in ``benchmarks/results/``).

It also records, without gating, the median one-edge ``apply()`` at
4k / 32k and 100k / 800k edges and their ratio: how far an apply's cost
still grows with the graph.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_streaming.py [num_ops]
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import open_session
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.slicing import SlicedMatrix
from repro.graph import generators

RESULTS_DIR = Path(__file__).parent / "results"

NUM_VERTICES = 20_000
ATTACH = 8
NUM_ARRAYS = 4
SHARD_BY = "degree"
MIN_SPEEDUP = 5.0
#: Engine batches one apply() call may run: net deletions, net insertions.
MAX_SEGMENTS = 2
#: Full recounts actually timed to estimate the per-op recount cost.
RECOUNT_SAMPLES = 3
#: BA vertex counts whose one-edge apply medians are recorded, not gated.
ONE_EDGE_SIZES = (4_000, 100_000)
ONE_EDGE_SAMPLES = 101


def make_stream(graph, num_ops: int, seed: int = 7):
    """A reproducible mixed insert/delete stream over ``graph``."""
    rng = np.random.default_rng(seed)
    pool = [tuple(edge) for edge in graph.edge_array().tolist()]
    present = set(pool)
    ops = []
    while len(ops) < num_ops:
        if rng.random() < 0.5 and pool:
            index = int(rng.integers(len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            edge = pool.pop()
            if edge not in present:
                continue
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            n = graph.num_vertices
            u, v = int(rng.integers(n)), int(rng.integers(n))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            pool.append(key)
            ops.append(("+", u, v))
    return ops


@contextlib.contextmanager
def counting_key_builds():
    """Count :meth:`SlicedMatrix.global_keys` calls inside the block."""
    calls: list[int] = []
    real = SlicedMatrix.global_keys

    def counted(self):
        calls.append(1)
        return real(self)

    SlicedMatrix.global_keys = counted
    try:
        yield calls
    finally:
        SlicedMatrix.global_keys = real


def one_edge_apply_ms(num_vertices: int) -> float:
    """Median wall time of a one-edge ``apply()`` on a resident BA graph."""
    graph = generators.barabasi_albert(num_vertices, ATTACH, seed=42)
    session = open_session(graph)
    session.count()
    times = []
    for op in make_stream(graph, ONE_EDGE_SAMPLES, seed=11):
        start = time.perf_counter()
        session.apply([op])
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _check_segments(label: str, segments: int) -> int:
    """1 (a violation) if the stream ran as more than ``MAX_SEGMENTS`` batches."""
    if segments <= MAX_SEGMENTS:
        return 0
    print(
        f"{label}: stream ran as {segments} engine batches > {MAX_SEGMENTS}",
        file=sys.stderr,
    )
    return 1


def main(argv: list[str]) -> int:
    num_ops = int(argv[1]) if len(argv) > 1 else 1_000
    graph = generators.barabasi_albert(NUM_VERTICES, ATTACH, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    ops = make_stream(graph, num_ops)

    lines = [
        f"streaming smoke: BA n={graph.num_vertices:,} m={graph.num_edges:,}, "
        f"{num_ops:,}-op stream, num_arrays={NUM_ARRAYS} (shard_by={SHARD_BY})"
    ]
    failures = 0

    # --- sharded session: the headline configuration -------------------
    session = open_session(graph, num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    session.count()  # bootstrap the base count outside the timed region
    with counting_key_builds() as key_builds:
        start = time.perf_counter()
        update = session.apply(ops)
        incremental_s = time.perf_counter() - start
    print(
        f"incremental: {num_ops:,} ops in {incremental_s:.3f}s "
        f"({update.segments} engine batches, {update.inserted} inserts, "
        f"{update.deleted} deletes, delta {update.delta_triangles:+,})"
    )
    failures += _check_segments("sharded session", update.segments)
    lines.append(
        f"engine batches: {update.segments} (gate <= {MAX_SEGMENTS}); "
        f"{update.inserted} net inserts, {update.deleted} net deletes"
    )

    final_graph = session.graph
    scratch = TCIMAccelerator(
        AcceleratorConfig(num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    ).run(final_graph)
    if session.count() != scratch.triangles:
        print(
            f"FINAL COUNT MISMATCH: session {session.count():,} vs "
            f"from-scratch {scratch.triangles:,}",
            file=sys.stderr,
        )
        failures += 1
    resident = session.run()
    if dataclasses.asdict(resident.events) != dataclasses.asdict(scratch.events):
        print("EVENT CONSERVATION VIOLATED after stream", file=sys.stderr)
        failures += 1
    lines.append(
        f"final count {scratch.triangles:,} "
        f"(session == from-scratch sharded run: {failures == 0})"
    )

    # --- num_arrays=1: bit-identical to the single-array engine --------
    single = open_session(graph)
    single.count()
    with counting_key_builds() as single_key_builds:
        single_update = single.apply(ops)
    failures += _check_segments("num_arrays=1 session", single_update.segments)
    key_builds += single_key_builds
    lines.append(
        f"whole-structure key builds during both sessions' apply(): "
        f"{len(key_builds)} (gate == 0)"
    )
    if key_builds:
        print(
            f"apply() built {len(key_builds)} whole-structure key arrays; "
            "its delta joins must key only the rows they touch",
            file=sys.stderr,
        )
        failures += 1
    reference = TCIMAccelerator(AcceleratorConfig()).run(final_graph)
    single_run = single.run()
    if single.count() != reference.triangles or dataclasses.asdict(
        single_run.events
    ) != dataclasses.asdict(reference.events):
        print("num_arrays=1 DIVERGES from the single-array engine", file=sys.stderr)
        failures += 1
    else:
        print(f"num_arrays=1: bit-identical ({reference.triangles:,} triangles)")

    # --- throughput vs per-op full recounts ----------------------------
    recount_config = AcceleratorConfig(num_arrays=NUM_ARRAYS, shard_by=SHARD_BY)
    start = time.perf_counter()
    for _ in range(RECOUNT_SAMPLES):
        TCIMAccelerator(recount_config).run(final_graph)
    recount_s = (time.perf_counter() - start) / RECOUNT_SAMPLES
    per_op_recount_s = recount_s * num_ops
    speedup = per_op_recount_s / incremental_s if incremental_s else float("inf")
    line = (
        f"incremental {num_ops:,} ops: {incremental_s:.3f}s "
        f"({num_ops / incremental_s:,.0f} ops/s); one full recount: "
        f"{recount_s:.3f}s -> per-op recounts would take {per_op_recount_s:.1f}s; "
        f"speedup {speedup:.1f}x (threshold {MIN_SPEEDUP}x)"
    )
    print(line)
    lines.append(line)
    if speedup < MIN_SPEEDUP:
        print(
            f"SPEEDUP BELOW THRESHOLD: {speedup:.1f}x < {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        failures += 1

    # --- one-edge apply cost vs graph size (recorded, not gated) -------
    small, large = (one_edge_apply_ms(size) for size in ONE_EDGE_SIZES)
    line = (
        f"one-edge apply median: {small:.2f} ms at 4k/32k, {large:.2f} ms at "
        f"100k/800k, ratio {large / small:.1f}x (recorded, not gated)"
    )
    print(line)
    lines.append(line)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_streaming.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("streaming smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
