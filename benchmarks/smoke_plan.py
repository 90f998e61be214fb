"""CI smoke: resident join plans make repeat queries near-free — exactly.

Holds the acceptance-scale graph (20k-vertex / ~160k-edge Barabási–Albert)
resident the way a :class:`repro.api.TCIMSession` does — slice structures
and oriented edges built once — and measures the repeat-query cost of the
plan-free engine versus the planned fast path
(:mod:`repro.core.plan` + ``execute_batched(plan=...)``).  Asserts:

* triangles, every :class:`EventCounts` field, and the cache statistics
  are bit-identical between the planned and plan-free paths (and across
  a 4-array sharded run priced from the resident plan and from a
  transient one);
* the planned repeat query is at least ``MIN_SPEEDUP`` (3x) faster than
  the plan-free one;
* after a randomized 120-op insert/delete stream through the session,
  the incrementally patched plan is array-equal to a plan compiled from
  scratch on freshly sliced structures, and the session's full run still
  matches a from-scratch accelerator run field by field;
* on the 8k-vertex Holme–Kim graph of the ``analytics`` benchmark, one
  8-edge insert batch and its delete batch leave the count plan of an
  ``orientation="upper"`` session and of an ``orientation="symmetric"``
  session (both with their workloads' triangle lists read) array-equal
  (dtypes included) to a rebuild, and ``patch_join_plan`` of a
  symmetric plan runs at least ``MIN_PATCH_SPEEDUP`` (5x) faster than
  ``build_join_plan`` on the same post-batch structures (summed over
  the insert and the delete).

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_plan.py [min_speedup]
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import open_session
from repro.core import incremental
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan, merge_oriented_edges, patch_join_plan
from repro.core.slicing import SlicedMatrix, oriented_structures
from repro.graph import generators

RESULTS_DIR = Path(__file__).parent / "results"

NUM_VERTICES = 20_000
ATTACH = 8
MIN_SPEEDUP = 3.0
REPEATS = 5
#: The analytics benchmark's graph and batch: Holme–Kim, 8k vertices.
PATCH_VERTICES = 8_000
PATCH_ATTACH = 8
PATCH_TRIAD_P = 0.5
PATCH_BATCH = 8
MIN_PATCH_SPEEDUP = 5.0


def best_of(repeats, work):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def identical(a, b) -> bool:
    return (
        a.triangles == b.triangles
        and dataclasses.asdict(a.events) == dataclasses.asdict(b.events)
        and dataclasses.asdict(a.cache_stats) == dataclasses.asdict(b.cache_stats)
    )


def plans_identical(a, b) -> bool:
    return a.num_edges == b.num_edges and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in (
            "row_positions", "col_positions", "trace_keys", "pair_counts", "bounds",
            "diagonal_pairs", "diagonal_masks",
        )
    )


def rebuilt_plan(graph, orientation: str):
    """The count plan of ``graph`` under ``orientation``, compiled from
    scratch over a fresh symmetric structure's row and column sides (the
    structures a session's plan indexes)."""
    row, col = oriented_structures(SlicedMatrix.from_graph(graph, "symmetric"), orientation)
    return build_join_plan(row, col, *oriented_edges(graph, orientation))


def measure_plan_patch(
    num_vertices: int = PATCH_VERTICES, repeats: int = REPEATS
) -> dict:
    """Plan patch vs rebuild for one batch and its undo, exactness checked.

    An ``upper`` and a ``symmetric`` session, each with its count plan
    and triangle list resident, apply ``PATCH_BATCH`` absent edges, then
    delete them; after each their count plans must equal a rebuild.
    Timing runs on a symmetric plan outside the sessions, so each side
    can be repeated on identical inputs: best of
    ``repeats`` for ``patch_join_plan`` and for ``build_join_plan`` on the
    same post-batch structures, summed over the insert and the delete.
    """
    graph = generators.powerlaw_cluster(
        num_vertices, PATCH_ATTACH, PATCH_TRIAD_P, seed=0
    )
    rng = np.random.default_rng(11)
    batch = set()
    while len(batch) < PATCH_BATCH:
        u, v = sorted(map(int, rng.integers(num_vertices, size=2)))
        if u != v and not graph.has_edge(u, v):
            batch.add((u, v))
    delta = np.array(sorted(batch), dtype=np.int64)
    exact = True
    sessions = [
        open_session(graph, orientation=orientation)
        for orientation in ("upper", "symmetric")
    ]
    for session in sessions:
        session.support()
    for code in ("+", "-"):
        for session in sessions:
            session.apply([(code, u, v) for u, v in batch])
            rebuilt = rebuilt_plan(session.graph, session.config.orientation)
            exact &= plans_identical(session.join_plan, rebuilt)
            exact &= not any(session.fallback_counts.values())

    sym = SlicedMatrix.from_graph(graph, "symmetric")
    sources, destinations = oriented_edges(graph, "symmetric")
    plan = build_join_plan(sym, sym, sources, destinations)
    both = (
        np.concatenate([delta[:, 0], delta[:, 1]]),
        np.concatenate([delta[:, 1], delta[:, 0]]),
    )
    patch_s = rebuild_s = 0.0
    for insert in (True, False):
        mutate = incremental.set_bits if insert else incremental.clear_bits
        sym_delta = mutate(sym, *both)
        sources, destinations, edge_delta = merge_oriented_edges(
            sources, destinations, delta, "symmetric", num_vertices, insert
        )
        seconds, patched = best_of(
            repeats,
            lambda: patch_join_plan(
                plan, sym, sym, sources, destinations,
                edge_delta, sym_delta, sym_delta,
            ),
        )
        patch_s += seconds
        seconds, rebuilt = best_of(
            repeats, lambda: build_join_plan(sym, sym, sources, destinations)
        )
        rebuild_s += seconds
        exact &= plans_identical(patched, rebuilt)
        plan = patched
    return {
        "graph": {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
        "batch_edges": PATCH_BATCH,
        "sym_plan_pairs": plan.num_pairs,
        "sym_plan_patch_s": patch_s,
        "sym_plan_rebuild_s": rebuild_s,
        "plan_patch_speedup": rebuild_s / patch_s if patch_s else None,
        "exact": bool(exact),
    }


def main(argv: list[str]) -> int:
    min_speedup = float(argv[1]) if len(argv) > 1 else MIN_SPEEDUP
    failures = 0
    graph = generators.barabasi_albert(NUM_VERTICES, ATTACH, seed=0)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")

    # --- residency: structures built once, like the session ------------
    start = time.perf_counter()
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    edge_arrays = oriented_edges(graph, "upper")
    build_s = time.perf_counter() - start
    accelerator = TCIMAccelerator(AcceleratorConfig())
    resident = dict(row_sliced=row, col_sliced=col, edge_arrays=edge_arrays)
    accelerator.run(graph, **resident)  # warm numpy/allocator

    # --- plan compile (the one-time cost) -------------------------------
    start = time.perf_counter()
    plan = build_join_plan(row, col, *edge_arrays)
    compile_s = time.perf_counter() - start

    # --- repeat queries: plan-free vs planned ---------------------------
    planless_s, planless = best_of(
        REPEATS, lambda: accelerator.run(graph, **resident)
    )
    planned_s, planned = best_of(
        REPEATS, lambda: accelerator.run(graph, **resident, join_plan=plan)
    )
    speedup = planless_s / planned_s if planned_s else float("inf")
    print(f"slice/build: {build_s * 1e3:8.1f} ms   plan compile: {compile_s * 1e3:8.1f} ms")
    print(f"repeat query plan-free: {planless_s * 1e3:8.2f} ms")
    print(f"repeat query planned:   {planned_s * 1e3:8.2f} ms")
    print(f"plan reuse speedup:     {speedup:8.1f} x (threshold {min_speedup:.1f}x)")
    print(
        f"plan: {plan.num_pairs:,} pairs, {plan.nbytes / 1e6:.1f} MB resident "
        f"({plan.row_positions.dtype}/{plan.trace_keys.dtype})"
    )
    if not identical(planless, planned):
        print("FAIL: planned run diverges from the plan-free engine", file=sys.stderr)
        failures += 1
    if speedup < min_speedup:
        print("FAIL: plan reuse below the speedup threshold", file=sys.stderr)
        failures += 1

    # --- sharded: pricing from the resident plan stays exact ------------
    sharded_config = AcceleratorConfig(num_arrays=4, shard_by="degree")
    sharded_accel = TCIMAccelerator(sharded_config)
    sharded_plain = sharded_accel.run(graph, **resident)
    sharded_planned = sharded_accel.run(graph, **resident, join_plan=plan)
    if not identical(sharded_plain, sharded_planned):
        print("FAIL: sharded planned run diverges", file=sys.stderr)
        failures += 1
    else:
        print("sharded (4 arrays, degree): bit-identical from the resident plan")

    # --- incremental patching stays equal to a rebuild ------------------
    rng = np.random.default_rng(7)
    session = open_session(graph)
    session.count()
    present = set(map(tuple, graph.edge_array().tolist()))
    ops = []
    while len(ops) < 120:
        if present and rng.random() < 0.5:
            edge = list(present)[int(rng.integers(len(present)))]
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            u, v = int(rng.integers(NUM_VERTICES)), int(rng.integers(NUM_VERTICES))
            if u == v or (min(u, v), max(u, v)) in present:
                continue
            present.add((min(u, v), max(u, v)))
            ops.append(("+", u, v))
    session.apply(ops)
    patched = session.join_plan
    final = session.graph
    rebuilt = rebuilt_plan(final, "upper")
    plan_equal = patched.num_edges == rebuilt.num_edges and all(
        np.array_equal(
            np.asarray(getattr(patched, name), dtype=np.int64),
            np.asarray(getattr(rebuilt, name), dtype=np.int64),
        )
        for name in (
            "row_positions", "col_positions", "trace_keys", "pair_counts",
            "diagonal_pairs", "diagonal_masks",
        )
    )
    if not plan_equal:
        print("FAIL: patched plan != from-scratch rebuild", file=sys.stderr)
        failures += 1
    scratch = TCIMAccelerator(AcceleratorConfig()).run(final)
    if not identical(session.run(), scratch):
        print("FAIL: post-stream session run diverges from scratch", file=sys.stderr)
        failures += 1
    if plan_equal and not failures:
        print(
            f"after 120-op stream: patched plan == rebuild "
            f"({patched.num_pairs:,} pairs), session exact"
        )

    # --- one analytics batch and its undo: patch vs rebuild -------------
    patch = measure_plan_patch()
    print(
        f"sym plan patch ({patch['sym_plan_pairs']:,} pairs, "
        f"{PATCH_BATCH}-edge insert + delete): "
        f"{patch['sym_plan_patch_s'] * 1e3:.2f} ms vs rebuild "
        f"{patch['sym_plan_rebuild_s'] * 1e3:.2f} ms -> "
        f"{patch['plan_patch_speedup']:.1f}x (threshold {MIN_PATCH_SPEEDUP}x)"
    )
    if not patch["exact"]:
        print("FAIL: a patched plan != rebuild on the analytics graph", file=sys.stderr)
        failures += 1
    if patch["plan_patch_speedup"] < MIN_PATCH_SPEEDUP:
        print("FAIL: plan patch below the speedup threshold", file=sys.stderr)
        failures += 1

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_plan.txt").write_text(
        (
            f"plan smoke: BA n={graph.num_vertices:,} m={graph.num_edges:,}\n"
            f"plan compile {compile_s * 1e3:.1f} ms; repeat query "
            f"{planless_s * 1e3:.2f} ms plan-free vs {planned_s * 1e3:.2f} ms "
            f"planned -> {speedup:.1f}x (threshold {min_speedup}x)\n"
            f"plan {plan.num_pairs:,} pairs / {plan.nbytes / 1e6:.1f} MB; "
            f"patched==rebuild after 120 ops: {plan_equal}\n"
            f"Holme-Kim n={patch['graph']['num_vertices']:,} "
            f"m={patch['graph']['num_edges']:,}: sym plan patch "
            f"{patch['sym_plan_patch_s'] * 1e3:.2f} ms vs rebuild "
            f"{patch['sym_plan_rebuild_s'] * 1e3:.2f} ms over one "
            f"{PATCH_BATCH}-edge insert + delete -> "
            f"{patch['plan_patch_speedup']:.1f}x (threshold "
            f"{MIN_PATCH_SPEEDUP}x); patched==rebuild: {patch['exact']}\n"
        ),
        encoding="utf-8",
    )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("plan smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
