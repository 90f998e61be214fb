"""Record the engine's perf trajectory: write ``BENCH_engine.json``.

Runs compact versions of the smoke benchmarks — cold build vs plan-reuse
repeat-query latency, symmetric-plan patch vs rebuild for one 8-edge
batch and its undo (``smoke_plan.measure_plan_patch``), incremental
streaming throughput, per-workload
(support/truss/cluster) resident-vs-oracle latency, the host time of
multi-array sweeps next to their modelled latency (degree-LPT and
coloring against the single-array sweep), and multi-session serving
throughput — and writes one machine-readable JSON
file at the repository root.  CI uploads the file as an artifact per run, so the
sequence of artifacts is the measured performance trajectory of the
engine across PRs; the ``modelled`` section adds the architecture
model's pricing of the same quantities (plan compile as a one-time
cost, reuse as pure array reads — see EXPERIMENTS.md).

Usage::

    PYTHONPATH=src python benchmarks/record.py [--quick]

``--quick`` shrinks the workloads ~4x for laptop runs; CI runs the full
sizes.  Exit code 0 always (recording, not gating — the gates live in
``smoke_plan.py`` / ``smoke_streaming.py`` / ``bench_serving.py``).
"""

from __future__ import annotations

import asyncio
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import open_session
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from smoke_plan import PATCH_VERTICES, measure_plan_patch

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"


def best_of(repeats, work):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_engine(num_vertices: int, attach: int) -> dict:
    """Cold build vs plan-reuse repeat query on the smoke-scale graph."""
    graph = generators.barabasi_albert(num_vertices, attach, seed=0)
    start = time.perf_counter()
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    edge_arrays = oriented_edges(graph, "upper")
    build_s = time.perf_counter() - start
    accelerator = TCIMAccelerator(AcceleratorConfig())
    resident = dict(row_sliced=row, col_sliced=col, edge_arrays=edge_arrays)
    cold_s, cold = best_of(1, lambda: accelerator.run(graph, **resident))
    compile_s, plan = best_of(1, lambda: build_join_plan(row, col, *edge_arrays))
    planless_s, _ = best_of(3, lambda: accelerator.run(graph, **resident))
    planned_s, planned = best_of(
        3, lambda: accelerator.run(graph, **resident, join_plan=plan)
    )
    assert planned.triangles == cold.triangles
    from repro.arch.perf import default_pim_model

    model = default_pim_model()
    return {
        "graph": {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
        "triangles": cold.triangles,
        "slice_build_s": build_s,
        "cold_query_s": cold_s,
        "plan_compile_s": compile_s,
        "repeat_query_planless_s": planless_s,
        "repeat_query_planned_s": planned_s,
        "plan_reuse_speedup": planless_s / planned_s if planned_s else None,
        "plan_pairs": plan.num_pairs,
        "plan_bytes": plan.nbytes,
        "modelled": {
            "query_latency_s": model.evaluate(cold.events).latency_s,
            "plan_compile_latency_s": model.evaluate_plan_compile(
                cold.events.edges_processed, plan.num_pairs
            ).latency_s,
            "plan_reuse_latency_s": model.evaluate_plan_reuse(
                cold.events
            ).latency_s,
        },
    }


def measure_streaming(num_vertices: int, attach: int, num_ops: int) -> dict:
    """Incremental op throughput vs estimated per-op full recounts."""
    graph = generators.barabasi_albert(num_vertices, attach, seed=42)
    rng = np.random.default_rng(7)
    present = set(map(tuple, graph.edge_array().tolist()))
    ops = []
    while len(ops) < num_ops:
        if present and rng.random() < 0.5:
            edge = list(present)[int(rng.integers(len(present)))]
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            u, v = int(rng.integers(num_vertices)), int(rng.integers(num_vertices))
            if u == v or (min(u, v), max(u, v)) in present:
                continue
            present.add((min(u, v), max(u, v)))
            ops.append(("+", u, v))
    session = open_session(graph)
    session.count()
    start = time.perf_counter()
    session.apply(ops)
    incremental_s = time.perf_counter() - start
    recount_s, _ = best_of(
        2, lambda: TCIMAccelerator(AcceleratorConfig()).run(session.graph)
    )
    return {
        "num_ops": num_ops,
        "incremental_s": incremental_s,
        "ops_per_second": num_ops / incremental_s if incremental_s else None,
        "full_recount_s": recount_s,
        "speedup_vs_per_op_recounts": (
            recount_s * num_ops / incremental_s if incremental_s else None
        ),
    }


def measure_workloads(num_vertices: int, attach: int) -> dict:
    """Per-workload rows: resident kernel path vs pure-Python oracles."""
    from repro.analysis import metrics
    from repro.analysis.truss import edge_support, truss_decomposition
    from repro.arch.perf import default_pim_model

    graph = generators.barabasi_albert(num_vertices, attach, seed=0)
    session = open_session(graph)
    total_support = sum(session.support().values())  # warm: slices, plan
    model = default_pim_model()
    # The witness pass ANDs exactly the count plan's pairs, so the count
    # run's events price every workload that reads the triangle list.
    events = session.run().events

    def timed_workload(work):
        def rerun():
            # Re-run the witness pass against the resident count plan
            # rather than returning the memoised result.
            session._workload_cache.clear()
            return work()

        elapsed, _ = best_of(3, rerun)
        return elapsed

    rows = {
        "support": {
            "resident_s": timed_workload(session.support),
            "oracle_s": best_of(1, lambda: edge_support(graph))[0],
            "modelled_latency_s": model.evaluate_workload(
                events, "support", num_edges=graph.num_edges, plan_reuse=True
            ).latency_s,
        },
        "truss": {
            "resident_s": timed_workload(session.truss),
            "oracle_s": best_of(1, lambda: truss_decomposition(graph))[0],
            "modelled_latency_s": model.evaluate_workload(
                events, "truss", num_edges=graph.num_edges, plan_reuse=True
            ).latency_s,
        },
        "cluster": {
            "resident_s": timed_workload(session.clustering),
            "oracle_s": best_of(
                1, lambda: metrics.local_clustering(graph)
            )[0],
            "modelled_latency_s": model.evaluate_workload(
                events,
                "cluster",
                num_vertices=graph.num_vertices,
                plan_reuse=True,
            ).latency_s,
        },
    }
    for row in rows.values():
        row["speedup"] = (
            row["oracle_s"] / row["resident_s"] if row["resident_s"] else None
        )
    payload = {
        "graph": {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
        "total_support": int(total_support),
        "workloads": rows,
    }
    session.close()
    return payload


def measure_parallelism(num_vertices: int, attach: int) -> dict:
    """Host time of multi-array sweeps next to their modelled latency.

    Multi-array runs are priced from the count plan in-process, so each
    row times, for one fleet width, the resident re-sweep a
    ``simulate()`` runs (structures, join plan and shard plan built once
    beforehand) under degree-LPT and under coloring, next to the
    single-array resident sweep, which gives the same count.  The
    coloring shard count and balance come from the run's notes.  The
    ``modelled_*`` columns are the architecture model's critical path of
    the same runs (``measured_shard_report``): the modelled latency
    falls with width while the host time does not, because the arrays
    are a modelled organisation.  Every row records the host CPU count.
    """
    import os

    from repro.arch.perf import default_pim_model
    from repro.arch.pipeline import measured_shard_report
    from repro.core.sharding import plan_shards

    graph = generators.barabasi_albert(num_vertices, attach, seed=0)
    cpu_count = os.cpu_count()
    model = default_pim_model()
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    edge_arrays = oriented_edges(graph, "upper")
    join_plan = build_join_plan(row, col, *edge_arrays)
    resident = dict(row_sliced=row, col_sliced=col, edge_arrays=edge_arrays)
    single_s, baseline = best_of(
        5,
        lambda: TCIMAccelerator(AcceleratorConfig()).run(
            graph, **resident, join_plan=join_plan
        ),
    )
    curve = []
    for num_arrays in (1, 4, 16, 32):
        degree = TCIMAccelerator(
            AcceleratorConfig(num_arrays=num_arrays, shard_by="degree")
        )
        shard_plan = plan_shards(
            graph, "upper", num_arrays, "degree", sources=edge_arrays[0]
        )
        degree_s, degree_run = best_of(
            5,
            lambda: degree.run(
                graph, **resident, plan=shard_plan, join_plan=join_plan
            ),
        )
        coloring = TCIMAccelerator(
            AcceleratorConfig(num_arrays=num_arrays, shard_by="coloring")
        )
        coloring_s, coloring_run = best_of(
            5, lambda: coloring.run(graph, **resident, join_plan=join_plan)
        )
        assert degree_run.triangles == coloring_run.triangles == baseline.triangles

        def modelled(result):
            if not result.shards:
                return model.evaluate(result.events).latency_s
            return measured_shard_report(result, model).latency_s

        curve.append(
            {
                "arrays": num_arrays,
                "cpu_count": cpu_count,
                "coloring_shards": coloring_run.notes.get("num_shards", 1),
                "coloring_balance": coloring_run.notes.get("balance", 1.0),
                "single_array_sweep_s": single_s,
                "degree_lpt_sweep_s": degree_s,
                "coloring_sweep_s": coloring_s,
                "modelled_degree_lpt_latency_s": modelled(degree_run),
                "modelled_coloring_latency_s": modelled(coloring_run),
            }
        )
    at_16 = next(point for point in curve if point["arrays"] == 16)
    return {
        "graph": {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
        "triangles": baseline.triangles,
        "cpu_count": cpu_count,
        "curve": curve,
        "degree_lpt_vs_single_at_16": at_16["degree_lpt_sweep_s"] / single_s,
        "coloring_vs_single_at_16": at_16["coloring_sweep_s"] / single_s,
    }


def measure_serving(num_graphs: int, reads_per_graph: int) -> dict:
    """Serving throughput: repeat reads, coalescing, and fused probe sweeps.

    Three measured regimes over the same resident pool:

    * **repeat reads** — warm ``count`` hits, the resident-cache rate;
    * **coalescing** — duplicate cold ``support`` reads issued while the
      first is still in flight, so followers join the running job
      instead of re-dispatching (``report.coalesced`` must be > 0);
    * **probes** — cache-busting ``common_neighbors_many`` batches from
      16 concurrent clients, run once unfused and once under a fusion
      window, recording both rates and the fusion counters.
    """
    from repro.serve import open_service

    num_vertices = 4_000
    graphs = [
        generators.barabasi_albert(num_vertices, 6, seed=seed)
        for seed in range(num_graphs)
    ]
    rng = np.random.default_rng(11)
    clients = 16
    depth = 8  # outstanding probes per client per round (fills fusion windows)
    rounds = max(2, reads_per_graph // 16)
    batch_pairs = 8
    probe_batches = [
        [
            [
                [
                    tuple(map(int, pair))
                    for pair in rng.integers(0, num_vertices, (batch_pairs, 2))
                ]
                for _ in range(depth)
            ]
            for _ in range(rounds)
        ]
        for _ in range(clients)
    ]

    async def probe_load(service) -> float:
        """16 closed-loop clients, each keeping ``depth`` probes in flight."""

        async def client(index: int) -> None:
            for step, probes in enumerate(probe_batches[index]):
                await asyncio.gather(
                    *(
                        service.common_neighbors_many(
                            graphs[(index + step + slot) % num_graphs], pairs
                        )
                        for slot, pairs in enumerate(probes)
                    )
                )

        start = time.perf_counter()
        await asyncio.gather(*(client(index) for index in range(clients)))
        return time.perf_counter() - start

    async def drive_unfused() -> dict:
        async with open_service(max_sessions=num_graphs) as service:
            for graph in graphs:  # establish residency outside the timed region
                await service.count(graph)
            start = time.perf_counter()
            await asyncio.gather(
                *(
                    service.count(graphs[i % num_graphs])
                    for i in range(num_graphs * reads_per_graph)
                )
            )
            repeat_s = time.perf_counter() - start
            # Duplicate cold reads in flight at once: the first per graph
            # runs, the rest coalesce onto its future.
            await asyncio.gather(
                *(service.support(graphs[i % num_graphs]) for i in range(num_graphs * 4))
            )
            probe_s = await probe_load(service)
            report = service.report()
            return {
                "sessions": num_graphs,
                "reads": num_graphs * reads_per_graph,
                "read_wall_s": repeat_s,
                "queries_per_second": (
                    num_graphs * reads_per_graph / repeat_s if repeat_s else None
                ),
                "coalesced": report.coalesced,
                "unfused_probe_s": probe_s,
                "resident_bytes": report.resident_bytes,
                "plan_bytes": sum(s.plan_bytes for s in report.sessions),
            }

    async def drive_fused() -> dict:
        async with open_service(
            max_sessions=num_graphs, fuse_window_ms=5
        ) as service:
            for graph in graphs:
                await service.count(graph)
                # Same warm state as the unfused run before the timed
                # probes.
                await service.support(graph)
            probe_s = await probe_load(service)
            report = service.report()
            return {
                "fused_probe_s": probe_s,
                "fused_batches": report.fused_batches,
                "fused_reads": report.fused_reads,
                "max_fused_batch": report.max_fused_batch,
                "kernel_launches": report.kernel_launches,
            }

    result = asyncio.run(drive_unfused())
    fused = asyncio.run(drive_fused())
    probes = clients * rounds * depth
    result.update(
        {
            "probe_clients": clients,
            "probe_depth": depth,
            "probe_requests": probes,
            "probe_pairs_each": batch_pairs,
            "unfused_probe_qps": (
                probes / result["unfused_probe_s"] if result["unfused_probe_s"] else None
            ),
            "fused_probe_qps": (
                probes / fused["fused_probe_s"] if fused["fused_probe_s"] else None
            ),
            "fusion_speedup": (
                result["unfused_probe_s"] / fused["fused_probe_s"]
                if fused["fused_probe_s"]
                else None
            ),
            **fused,
        }
    )
    return result


def measure_storage(num_vertices: int, attach: int) -> dict:
    """Out-of-core rows: snapshot write, warm hydrate vs cold residency.

    Mirrors ``smoke_oocore.py``'s warm-vs-cold comparison (residency
    establishment only: the symmetric slice structure, its windows and
    the compiled count plan, no engine queries) and adds the snapshot
    footprint and the memmap
    session's spilled share, plus the architecture model's pricing of
    the same trade (``evaluate_hydrate`` vs ``evaluate_cold_open``).
    """
    import tempfile

    from repro.arch.perf import default_pim_model
    from repro.storage.snapshot import snapshot_nbytes

    graph = generators.barabasi_albert(num_vertices, attach, seed=0)

    def residency(session):
        with session._lock:
            session._prepare()
            session._ensure_join_plan()

    with tempfile.TemporaryDirectory(prefix="record-storage-") as tmp:
        tmp_path = Path(tmp)
        warmup = open_session(graph)
        residency(warmup)
        snap_start = time.perf_counter()
        snap_dir = warmup.snapshot(tmp_path / "snap")
        snapshot_write_s = time.perf_counter() - snap_start
        plan = warmup._join_plan

        def cold_open():
            session = open_session(graph)
            residency(session)
            session.close()

        def warm_open():
            session = open_session(snapshot=snap_dir)
            assert session._join_plan is not None
            session.close()

        cold_s, _ = best_of(3, cold_open)
        warm_s, _ = best_of(3, warm_open)
        spilled_session = open_session(
            graph, storage_dir=str(tmp_path / "spill"), spill_threshold_bytes=2**20
        )
        residency(spilled_session)
        detail = spilled_session.resident_bytes_detail()
        payload_bytes = snapshot_nbytes(snap_dir)
        model = default_pim_model()
        result = {
            "graph": {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges},
            "snapshot_write_s": snapshot_write_s,
            "snapshot_bytes": payload_bytes,
            "cold_residency_s": cold_s,
            "warm_hydrate_s": warm_s,
            "hydrate_speedup": cold_s / warm_s if warm_s else None,
            "resident_bytes": detail["total"],
            "spilled_bytes": detail["spilled"],
            "modelled": {
                "hydrate_latency_s": model.evaluate_hydrate(payload_bytes).latency_s,
                "cold_open_latency_s": model.evaluate_cold_open(
                    graph.num_edges, plan.num_pairs
                ).latency_s,
            },
        }
        spilled_session.close()
        warmup.close()
        return result


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    scale = 4 if quick else 1
    engine = measure_engine(20_000 // scale, 8)
    patch = measure_plan_patch(PATCH_VERTICES // scale)
    engine.update(
        sym_plan_patch_s=patch["sym_plan_patch_s"],
        sym_plan_rebuild_s=patch["sym_plan_rebuild_s"],
        plan_patch_speedup=patch["plan_patch_speedup"],
        plan_patch_graph=patch["graph"],
    )
    payload = {
        "schema": 10,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "quick": quick,
        "engine": engine,
        "streaming": measure_streaming(20_000 // scale, 8, 500 // scale),
        "workloads": measure_workloads(8_000 // scale, 8),
        "parallelism": measure_parallelism(12_000 // scale, 8),
        "serving": measure_serving(4, 50 // scale),
        "storage": measure_storage(20_000 // scale, 8),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        "plan reuse: "
        f"{payload['engine']['repeat_query_planless_s'] * 1e3:.2f} ms -> "
        f"{payload['engine']['repeat_query_planned_s'] * 1e3:.2f} ms "
        f"({payload['engine']['plan_reuse_speedup']:.1f}x); "
        f"sym plan patch {payload['engine']['plan_patch_speedup']:.1f}x "
        "vs rebuild; "
        f"streaming {payload['streaming']['ops_per_second']:,.0f} ops/s; "
        "16-array sweep host time vs single array: degree-LPT "
        f"{payload['parallelism']['degree_lpt_vs_single_at_16']:.1f}x, "
        f"coloring {payload['parallelism']['coloring_vs_single_at_16']:.1f}x; "
        f"serving {payload['serving']['queries_per_second']:,.0f} queries/s "
        f"({payload['serving']['coalesced']} coalesced, fusion "
        f"{payload['serving']['fusion_speedup']:.1f}x on probes); "
        f"storage hydrate {payload['storage']['hydrate_speedup']:.1f}x vs cold "
        f"({payload['storage']['snapshot_bytes'] / 1e6:.1f} MB snapshot); "
        "workloads "
        + ", ".join(
            f"{kind} {row['speedup']:.1f}x"
            for kind, row in payload["workloads"]["workloads"].items()
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
