"""Engine speedup smoke benchmark — fails loudly on perf regressions.

Runs the acceptance-scale comparison from the engine work: a
20k-vertex / ~160k-edge Barabasi-Albert graph through the per-edge
reference loop (:func:`repro.analysis.validation.per_edge_reference`)
and the vectorized batch engine.  Asserts bit-identical results and a
minimum speedup, so CI catches both correctness drift and a fast path
that silently stopped being fast.

Usage::

    PYTHONPATH=src python benchmarks/smoke_engine_speedup.py [min_speedup]

The default threshold (8x) is deliberately below the >=20x the engine
achieves on quiet hardware, leaving headroom for noisy CI runners while
still failing hard if the engine degenerates toward the Python loop.
"""

from __future__ import annotations

import dataclasses
import sys
import time

from repro.analysis.validation import per_edge_reference
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.graph import generators


def best_of(repeats: int, work):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: list[str]) -> int:
    min_speedup = float(argv[1]) if len(argv) > 1 else 8.0
    graph = generators.barabasi_albert(20_000, 8, seed=0)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")
    config = AcceleratorConfig()
    accelerator = TCIMAccelerator(config)
    # Warm numpy / allocator before timing.
    accelerator.run(graph)
    vectorized_s, vectorized = best_of(3, lambda: accelerator.run(graph))
    reference_s, (triangles, events, _) = best_of(
        1, lambda: per_edge_reference(graph, config)
    )
    speedup = reference_s / vectorized_s
    print(f"reference:  {reference_s:8.3f} s")
    print(f"vectorized: {vectorized_s:8.3f} s")
    print(f"speedup:    {speedup:8.1f} x (threshold {min_speedup:.1f}x)")
    if vectorized.triangles != triangles:
        print("FAIL: triangle counts diverge")
        return 1
    if dataclasses.asdict(vectorized.events) != dataclasses.asdict(events):
        print("FAIL: event counts diverge")
        return 1
    if speedup < min_speedup:
        print("FAIL: vectorized engine below the speedup threshold")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
