"""CI smoke: every multi-array partition is exact and conserves its events.

Runs a paper-style generator graph with ``num_arrays=1`` and through
sessions priced across several arrays under every partitioner (with
the count plan resident, or compiled per run when ``use_plan`` is off),
then replays an update stream through a coloring session, and asserts:

* position partitioners (``edges`` / ``rows`` / ``degree``, 4 arrays,
  plan on and off):
  the triangle counts match triangle for triangle, and the additive
  event counters (``edges_processed``, ``and_operations``,
  ``dense_pair_operations``, ``index_lookups``, ``bitcount_operations``)
  conserve the single-array totals;
* ``coloring`` at 4 and 16 arrays, with the count plan on and off: the
  triangle counts match;
* for every run, the merged per-shard events equal the run's events;
* a 16-array coloring session fed a randomized 200-op insert/delete
  stream keeps ``count()`` equal to a plain session's after every op,
  and its closing ``simulate()`` equals a fresh session's on the final
  graph in every per-shard field.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_partitions.py [num_vertices]
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from repro import open_session
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.graph import generators
from repro.graph.graph import Graph

CONSERVED_FIELDS = (
    "edges_processed",
    "and_operations",
    "dense_pair_operations",
    "index_lookups",
    "bitcount_operations",
)

#: ``(num_arrays, shard_by, use_plan)`` of every priced run.
RUNS = [
    *(
        (4, shard_by, use_plan)
        for shard_by in ("edges", "rows", "degree")
        for use_plan in (True, False)
    ),
    *(
        (num_arrays, "coloring", use_plan)
        for num_arrays in (4, 16)
        for use_plan in (True, False)
    ),
]


def check_runs(num_vertices: int) -> int:
    graph = generators.barabasi_albert(num_vertices, 8, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    start = time.perf_counter()
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
    print(
        f"num_arrays=1: {baseline.triangles:,} triangles "
        f"in {time.perf_counter() - start:.2f}s"
    )
    failures = 0
    for num_arrays, shard_by, use_plan in RUNS:
        start = time.perf_counter()
        with open_session(
            graph, num_arrays=num_arrays, shard_by=shard_by, use_plan=use_plan
        ) as session:
            result = session.run()
        elapsed = time.perf_counter() - start
        problems = []
        if result.triangles != baseline.triangles:
            problems.append(
                f"TRIANGLE MISMATCH ({result.triangles:,} vs {baseline.triangles:,})"
            )
        if shard_by != "coloring":
            problems += [
                f"CONSERVATION VIOLATED ({name})"
                for name in CONSERVED_FIELDS
                if getattr(result.events, name) != getattr(baseline.events, name)
            ]
        merged = EventCounts()
        for shard in result.shards:
            merged = merged + shard.events
        if dataclasses.asdict(merged) != dataclasses.asdict(result.events):
            problems.append("SHARD MERGE MISMATCH")
        failures += len(problems)
        print(
            f"num_arrays={num_arrays} shard_by={shard_by} "
            f"plan={'on' if use_plan else 'off'}: {result.triangles:,} "
            f"triangles in {elapsed:.2f}s ({len(result.shards)} shards) ... "
            f"{'; '.join(problems) or 'ok'}"
        )
    return failures


def _shard_fields(report) -> list[dict]:
    return [dataclasses.asdict(shard) for shard in report.result.shards]


def check_stream(num_vertices: int) -> int:
    rng = np.random.default_rng(9)
    n = min(2_000, num_vertices)
    config = {"num_arrays": 16, "shard_by": "coloring"}
    edges = {
        tuple(sorted(map(int, e)))
        for e in generators.barabasi_albert(n, 6, seed=7).edge_array()
    }
    session = open_session(Graph(n, np.array(sorted(edges))), **config)
    plain = open_session(Graph(n, np.array(sorted(edges))))
    session.count()
    plain.count()
    mismatches = 0
    for _ in range(200):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in edges and rng.random() < 0.5:
            op = ("-", *edge)
            edges.remove(edge)
        elif edge not in edges:
            op = ("+", *edge)
            edges.add(edge)
        else:
            continue
        session.apply([op])
        plain.apply([op])
        mismatches += session.count() != plain.count()
    # count() answers from the delta joins' running total; simulate()
    # prices the shards of the patched structures and count plan.
    final = session.simulate()
    fresh = open_session(Graph(n, np.array(sorted(edges))), **config).simulate()
    shards_differ = _shard_fields(final) != _shard_fields(fresh)
    triangles_differ = final.triangles != plain.count()
    print(
        f"coloring stream: 200 ops, {len(edges):,} edges resident, "
        f"{mismatches} count mismatches; closing simulate() "
        f"{'DIFFERS FROM' if shards_differ or triangles_differ else 'equals'} "
        f"a fresh session's ({len(final.shards)} shards) ... "
        f"{'FAILED' if mismatches or shards_differ or triangles_differ else 'ok'}"
    )
    session.close()
    plain.close()
    return mismatches + shards_differ + triangles_differ


def main(argv: list[str]) -> int:
    num_vertices = int(argv[1]) if len(argv) > 1 else 20_000
    failures = check_runs(num_vertices) + check_stream(num_vertices)
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("partition smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
