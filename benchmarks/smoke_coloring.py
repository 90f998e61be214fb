"""CI smoke: coloring shards are exact.

Exit code 0 only if ``--shard-by=coloring`` triangle counts are
bit-identical to the unsharded engine, with the per-lane join plans on
and off, on a generator graph and again after a randomized 200-op
insert/delete stream routed through a resident
:class:`~repro.api.TCIMSession` (per-shard ``apply_delta`` patching).

Usage::

    PYTHONPATH=src python benchmarks/smoke_coloring.py [num_vertices]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api import TCIMSession
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.graph import generators
from repro.graph.graph import Graph


def check_exactness(num_vertices: int) -> int:
    graph = generators.barabasi_albert(num_vertices, 8, seed=42)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
    print(f"unsharded: {baseline.triangles:,} triangles")

    failures = 0
    for num_arrays in (4, 16):
        for use_plan in (True, False):
            result = TCIMAccelerator(
                AcceleratorConfig(
                    num_arrays=num_arrays,
                    shard_by="coloring",
                    use_plan=use_plan,
                )
            ).run(graph)
            status = "ok"
            if result.triangles != baseline.triangles:
                status = (
                    f"TRIANGLE MISMATCH ({result.triangles:,} vs "
                    f"{baseline.triangles:,})"
                )
                failures += 1
            print(
                f"coloring num_arrays={num_arrays} plan={'on' if use_plan else 'off'}: "
                f"{result.triangles:,} triangles, "
                f"{result.notes['num_shards']} shards, "
                f"balance {result.notes['balance']:.2f} ... {status}"
            )

    # Incremental stream: resident contexts patched shard by shard must
    # keep tracking the plain session exactly.
    rng = np.random.default_rng(9)
    n = min(2_000, num_vertices)
    stream_graph = generators.barabasi_albert(n, 6, seed=7)
    edges = {tuple(sorted(map(int, e))) for e in stream_graph.edge_array()}
    session = TCIMSession(
        Graph(n, np.array(sorted(edges), dtype=np.int64)),
        AcceleratorConfig(num_arrays=16, shard_by="coloring"),
    )
    plain = TCIMSession(Graph(n, np.array(sorted(edges), dtype=np.int64)))
    session.count()
    plain.count()
    mismatches = 0
    for step in range(200):
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
        if session.count() != plain.count():
            mismatches += 1
    print(
        f"incremental stream: 200 ops, {len(edges):,} edges resident, "
        f"{mismatches} mismatches ... {'ok' if not mismatches else 'FAILED'}"
    )
    failures += mismatches
    session.close()
    plain.close()
    return failures


def main(argv: list[str]) -> int:
    num_vertices = int(argv[1]) if len(argv) > 1 else 20_000
    failures = check_exactness(num_vertices)
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("coloring smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
