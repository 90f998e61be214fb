"""CI smoke: the generic kernel path serves every workload — exactly.

Routes triangle support, k-truss, clustering, and common-neighbor
queries through one resident :class:`repro.api.TCIMSession` (the shared
gather→AND→popcount kernel path of :mod:`repro.core.kernels`) and gates:

* **exactness** — ``support()`` / ``truss()`` / ``clustering()`` /
  ``common_neighbors()`` are value-identical to the pure-Python oracles
  (:mod:`repro.analysis`), across plan on/off and a 4-array sharded
  configuration;
* **plan reuse** — a repeat ``support()`` (the triangle-witness pass
  over the resident count plan, the support tallies and the result
  map) is at least ``MIN_SPEEDUP`` (5x) faster than the pure-Python
  ``edge_support`` oracle;
* **cold truss** — ``truss()`` with every memoised workload result
  dropped (triangle-witness pass, support tallies, frontier peel and
  the result map) is at least ``MIN_TRUSS_SPEEDUP`` (5x) faster than
  the pure-Python ``truss_decomposition`` oracle;
* **incremental coherence** — after a randomized 120-op insert/delete
  stream, the read round (``simulate()``, ``support()``,
  ``clustering()``, ``truss()``) rebuilds no ``Graph`` (a call count,
  taken before the oracle reads ``session.graph``), the patched
  resident state answers every workload identically to a fresh
  session on the mutated graph and to the oracles, and no
  ``fallback_counts`` entry fired;
* **read after write** — over ``ANALYTICS_ROUNDS`` rounds of an
  ``ANALYTICS_BATCH``-edge ``apply()`` (random inserts, then their
  deletes) followed by ``support()``, ``clustering()`` and ``truss()``,
  which patch the triangle list and the trussness instead of recomputing
  them, the median round is at least ``MIN_PATCH_SPEEDUP`` (3x) faster
  than the median from-scratch ``triangle_witnesses`` + ``peel_trussness``
  of the same generations, measured in the same run, and every round's
  supports and trussness equal those from-scratch passes.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python benchmarks/smoke_workloads.py [min_speedup]
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.analysis import metrics
from repro.analysis.truss import edge_support, peel_trussness, truss_decomposition
from repro.api import open_session
from repro.core import kernels
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from repro.graph.graph import Graph

RESULTS_DIR = Path(__file__).parent / "results"

NUM_VERTICES = 8_000
ATTACH = 8
MIN_SPEEDUP = 5.0
MIN_TRUSS_SPEEDUP = 5.0
REPEATS = 3
STREAM_OPS = 120
MIN_PATCH_SPEEDUP = 3.0
ANALYTICS_ROUNDS = 20
ANALYTICS_BATCH = 8


@contextmanager
def counting_graph_builds():
    """Record every ``Graph.from_parts`` and ``SlicedMatrix.nonzeros``
    call in the block: the two halves of rebuilding ``session.graph``
    from the slice bits."""
    calls: list[str] = []
    from_parts = Graph.__dict__["from_parts"]
    nonzeros = SlicedMatrix.nonzeros

    def counted_from_parts(cls, *args, **kwargs):
        calls.append("Graph.from_parts")
        return from_parts.__func__(cls, *args, **kwargs)

    def counted_nonzeros(self):
        calls.append("SlicedMatrix.nonzeros")
        return nonzeros(self)

    Graph.from_parts = classmethod(counted_from_parts)
    SlicedMatrix.nonzeros = counted_nonzeros
    try:
        yield calls
    finally:
        Graph.from_parts = from_parts
        SlicedMatrix.nonzeros = nonzeros


def best_of(repeats, work):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def workloads_exact(session, graph) -> list[str]:
    """Compare every session workload against its oracle; returns failures."""
    problems = []
    if session.support() != edge_support(graph):
        problems.append("support() diverges from edge_support oracle")
    if session.truss() != truss_decomposition(graph):
        problems.append("truss() diverges from truss_decomposition oracle")
    report = session.clustering()
    if not np.allclose(report.local, metrics.local_clustering(graph)):
        problems.append("clustering() local coefficients diverge")
    if not np.array_equal(
        report.triangles_per_vertex, metrics.triangles_per_vertex(graph)
    ):
        problems.append("clustering() per-vertex tallies diverge")
    if abs(report.transitivity - metrics.transitivity(graph)) > 1e-12:
        problems.append("clustering() transitivity diverges")
    rng = np.random.default_rng(5)
    for _ in range(10):
        u, v = rng.integers(0, graph.num_vertices, size=2).tolist()
        brute = len(
            set(graph.neighbors(u).tolist()) & set(graph.neighbors(v).tolist())
        )
        if session.common_neighbors(u, v) != brute:
            problems.append(f"common_neighbors({u}, {v}) diverges")
            break
    return problems


def main(argv: list[str]) -> int:
    min_speedup = float(argv[1]) if len(argv) > 1 else MIN_SPEEDUP
    failures = 0
    graph = generators.barabasi_albert(NUM_VERTICES, ATTACH, seed=0)
    print(f"graph: n={graph.num_vertices:,} m={graph.num_edges:,}")

    # --- exactness across configurations --------------------------------
    for label, config in (
        ("1 array, plan", {"num_arrays": 1, "use_plan": True}),
        ("1 array, no plan", {"num_arrays": 1, "use_plan": False}),
        ("4 arrays, plan", {"num_arrays": 4, "use_plan": True}),
    ):
        with open_session(graph, **config) as session:
            problems = workloads_exact(session, graph)
        for problem in problems:
            print(f"FAIL [{label}]: {problem}", file=sys.stderr)
        failures += len(problems)
        if not problems:
            print(f"workloads exact [{label}]")

    # --- plan reuse: resident repeat support() vs the oracle -------------
    session = open_session(graph)
    session.support()  # warm: slices, count plan, caches

    def resident_support():
        # Drop only the memoised results: the witness pass re-runs
        # against the resident count plan, which is the quantity gated.
        session._workload_cache.clear()
        return session.support()

    oracle_s, oracle_map = best_of(REPEATS, lambda: edge_support(graph))
    resident_s, resident_map = best_of(REPEATS, resident_support)
    speedup = oracle_s / resident_s if resident_s else float("inf")
    print(f"repeat support() oracle:   {oracle_s * 1e3:8.2f} ms")
    print(f"repeat support() resident: {resident_s * 1e3:8.2f} ms")
    print(f"workload plan-reuse speedup: {speedup:6.1f} x (threshold {min_speedup:.1f}x)")
    if resident_map != oracle_map:
        print("FAIL: timed resident support diverges from oracle", file=sys.stderr)
        failures += 1
    if speedup < min_speedup:
        print("FAIL: resident support() below the speedup threshold", file=sys.stderr)
        failures += 1

    # --- cold truss: witness enumeration + frontier peel vs the oracle ---
    def cold_truss():
        # Drop every memoised workload result, the triangle list
        # included: the timed call runs the witness pass against the
        # resident count plan, the support tallies, the peel and the map.
        session._workload_cache.clear()
        return session.truss()

    truss_oracle_s, truss_oracle = best_of(
        REPEATS, lambda: truss_decomposition(graph)
    )
    truss_s, truss_map = best_of(REPEATS, cold_truss)
    truss_speedup = truss_oracle_s / truss_s if truss_s else float("inf")
    print(f"cold truss() oracle:   {truss_oracle_s * 1e3:8.2f} ms")
    print(f"cold truss() resident: {truss_s * 1e3:8.2f} ms")
    print(
        f"cold truss speedup: {truss_speedup:6.1f} x "
        f"(threshold {MIN_TRUSS_SPEEDUP:.1f}x)"
    )
    if truss_map != truss_oracle:
        print("FAIL: timed cold truss diverges from oracle", file=sys.stderr)
        failures += 1
    if truss_speedup < MIN_TRUSS_SPEEDUP:
        print("FAIL: cold truss() below the speedup threshold", file=sys.stderr)
        failures += 1

    # --- incremental coherence after a randomized stream -----------------
    rng = np.random.default_rng(7)
    present = set(map(tuple, graph.edge_array().tolist()))
    ops = []
    while len(ops) < STREAM_OPS:
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
    # Count before anything reads session.graph: the oracle below does.
    with counting_graph_builds() as builds:
        session.simulate()
        session.support()
        session.clustering()
        session.truss()
    stream_problems = []
    if builds:
        stream_problems.append(f"post-apply reads rebuilt the graph: {builds}")
    mutated = session.graph
    stream_problems += workloads_exact(session, mutated)
    with open_session(mutated) as fresh:
        if session.support() != fresh.support():
            stream_problems.append("patched support != fresh-session rebuild")
        if session.truss() != fresh.truss():
            stream_problems.append("patched truss != fresh-session rebuild")
    fired = {name: n for name, n in session.fallback_counts.items() if n}
    if fired:
        stream_problems.append(f"fallbacks fired instead of patching: {fired}")
    for problem in stream_problems:
        print(f"FAIL [after {STREAM_OPS}-op stream]: {problem}", file=sys.stderr)
    failures += len(stream_problems)
    if not stream_problems:
        print(
            f"after {STREAM_OPS}-op stream: no Graph rebuilt; "
            "patched workloads == rebuild == oracles"
        )

    # --- read after write: patched rounds vs from-scratch passes ---------
    patched_s, scratch_s = [], []
    pending: list[tuple[int, int]] = []
    mismatched = 0
    for _ in range(ANALYTICS_ROUNDS):
        if pending:
            ops = [("-", *edge) for edge in pending]
            pending.clear()
        else:
            while len(pending) < ANALYTICS_BATCH:
                u, v = sorted(rng.integers(NUM_VERTICES, size=2).tolist())
                if u != v and (u, v) not in present and (u, v) not in pending:
                    pending.append((u, v))
            ops = [("+", *edge) for edge in pending]
        start = time.perf_counter()
        session.apply(ops)
        support = session.support()
        session.clustering()
        trussness = session.truss()
        patched_s.append(time.perf_counter() - start)
        plan = session.join_plan  # flushed outside the clock
        start = time.perf_counter()
        listed = kernels.triangle_witnesses(
            *session._oriented, *session._edge_arrays, plan=plan
        )
        supports = np.bincount(listed.reshape(-1), minlength=len(support))
        peeled = peel_trussness(supports, listed)
        scratch_s.append(time.perf_counter() - start)
        mismatched += not (
            np.array_equal(support.per_edge, supports)
            and np.array_equal(trussness.per_edge, peeled)
        )
    patched_median = float(np.median(patched_s))
    scratch_median = float(np.median(scratch_s))
    patch_speedup = scratch_median / patched_median if patched_median else float("inf")
    print(f"read-after-write round (patched):    {patched_median * 1e3:8.2f} ms")
    print(f"witness pass + peel (from scratch):  {scratch_median * 1e3:8.2f} ms")
    print(
        f"read-after-write speedup: {patch_speedup:6.1f} x "
        f"(threshold {MIN_PATCH_SPEEDUP:.1f}x, median of {ANALYTICS_ROUNDS} rounds)"
    )
    if mismatched:
        print(
            f"FAIL: {mismatched} patched round(s) differ from the from-scratch "
            "witness pass and peel",
            file=sys.stderr,
        )
        failures += 1
    if patch_speedup < MIN_PATCH_SPEEDUP:
        print(
            "FAIL: read-after-write rounds below the speedup threshold",
            file=sys.stderr,
        )
        failures += 1
    session.close()

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_workloads.txt").write_text(
        (
            f"workload smoke: BA n={graph.num_vertices:,} m={graph.num_edges:,}\n"
            f"repeat support() {oracle_s * 1e3:.2f} ms oracle vs "
            f"{resident_s * 1e3:.2f} ms resident -> {speedup:.1f}x "
            f"(threshold {min_speedup}x)\n"
            f"cold truss() {truss_oracle_s * 1e3:.2f} ms oracle vs "
            f"{truss_s * 1e3:.2f} ms resident -> {truss_speedup:.1f}x "
            f"(threshold {MIN_TRUSS_SPEEDUP}x)\n"
            f"read after write: {ANALYTICS_BATCH}-edge apply + support + "
            f"clustering + truss {patched_median * 1e3:.2f} ms vs witness pass + "
            f"peel {scratch_median * 1e3:.2f} ms -> {patch_speedup:.1f}x "
            f"(threshold {MIN_PATCH_SPEEDUP}x, median of {ANALYTICS_ROUNDS} rounds)\n"
            f"exactness: support/truss/clustering/common_neighbors vs oracles, "
            f"plan on/off + 4-array sharded + after {STREAM_OPS}-op stream: "
            f"{'ok' if failures == 0 else 'FAILED'}\n"
        ),
        encoding="utf-8",
    )
    if failures:
        print(f"FAILED: {failures} violation(s)", file=sys.stderr)
        return 1
    print("workload smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
