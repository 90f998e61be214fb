"""A5 — Ablation: sub-array parallelism, analytic vs measured.

Fig. 4 organises the chip as 128 sub-arrays.  Two ways to price that:

* **analytic** — Amdahl-scale a single-array run's event totals across
  ``compute_units`` (the original A5 curve): array work divides
  uniformly, the controller's per-edge work stays serial;
* **measured** — price the run sharded across ``num_arrays`` simulated
  arrays from its count plan (:mod:`repro.core.sharding`) and take the
  slowest shard as the critical path, each shard paying for its *own*
  edges, cache misses and row loads.

The gap between the curves is what uniform scaling hides: partition
imbalance (the degree-balanced partitioner narrows it) and the fact that
per-sub-array controllers also parallelise the per-edge work the Amdahl
model pins serial.

The partitioner sweep compares the three partition strategies at every
width — ``contiguous`` (equal edge ranges), ``degree-LPT``
(longest-processing-time over row work), and ``coloring``
(communication-free shards, one per color triple) — on the architecture
model's critical-path latency
(where coloring drops the per-shard merge read-back entirely).
"""

from __future__ import annotations

from repro.analysis.reporting import Table, format_seconds
from repro.arch.perf import default_pim_model
from repro.arch.pipeline import ParallelConfig, ParallelPimModel, measured_shard_report
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator

from _helpers import accelerator_run, graph_for, nonempty_rows, scaled_array_bytes

DATASET = "com-lj"
ARRAYS = (1, 4, 16, 32)
#: label -> AcceleratorConfig.shard_by value
PARTITIONERS = {
    "contiguous": "edges",
    "degree-LPT": "degree",
    "coloring": "coloring",
}


def _sharded_run(graph, array_bytes, num_arrays, shard_by):
    config = AcceleratorConfig(
        array_bytes=array_bytes, num_arrays=num_arrays, shard_by=shard_by
    )
    return TCIMAccelerator(config).run(graph)


def bench_ablation_parallelism(benchmark, emit):
    base = default_pim_model()
    graph = graph_for(DATASET)
    array_bytes = scaled_array_bytes(DATASET)
    run = benchmark.pedantic(
        lambda: accelerator_run(DATASET, array_bytes=array_bytes),
        rounds=1,
        iterations=1,
    )
    rows = nonempty_rows(graph)
    serial_latency = base.evaluate(run.events, rows).latency_s

    table = Table(
        [
            "arrays",
            "analytic latency",
            "analytic speedup",
            "measured latency",
            "measured speedup",
            "imbalance",
        ],
        title=(
            f"Ablation A5 - analytic Amdahl vs measured sharded critical path "
            f"on {DATASET} (scaled), shard_by=degree"
        ),
    )
    for num_arrays in ARRAYS:
        analytic = ParallelPimModel(
            base,
            ParallelConfig(compute_units=num_arrays, write_ports=num_arrays),
        ).evaluate(run.events, rows)
        if num_arrays == 1:
            measured = base.evaluate_shards([run.events], [rows])
            # One shard degenerates to the serial baseline.
            assert abs(measured.latency_s - serial_latency) < 1e-12
        else:
            result = _sharded_run(graph, array_bytes, num_arrays, "degree")
            assert result.triangles == run.triangles
            measured = measured_shard_report(result, base)
        table.add_row(
            [
                num_arrays,
                format_seconds(analytic.latency_s),
                f"{serial_latency / analytic.latency_s:.2f}x",
                format_seconds(measured.latency_s),
                f"{serial_latency / measured.latency_s:.2f}x",
                f"{measured.latency_breakdown_s['imbalance']:.3f}",
            ]
        )
    emit("ablation_parallelism", table)

    partitioner_table = Table(
        [
            "arrays",
            "partitioner",
            "shards",
            "measured latency",
            "measured speedup",
            "imbalance",
            "merge-free",
        ],
        title=(
            f"Partitioner sweep on {DATASET} (scaled): modelled critical "
            "path per width"
        ),
    )
    for num_arrays in ARRAYS[1:]:
        for label, shard_by in PARTITIONERS.items():
            result = _sharded_run(graph, array_bytes, num_arrays, shard_by)
            assert result.triangles == run.triangles
            report = measured_shard_report(result, base)
            assert report.latency_s > 0
            # No ideal-speedup bound here: per-shard caches can
            # legitimately out-hit the single shared cache on a
            # locality-friendly partition, so only exactness and
            # positivity are invariant.
            assert report.latency_breakdown_s["imbalance"] >= 1.0
            partitioner_table.add_row(
                [
                    num_arrays,
                    label,
                    len(result.shards),
                    format_seconds(report.latency_s),
                    f"{serial_latency / report.latency_s:.2f}x",
                    f"{report.latency_breakdown_s['imbalance']:.3f}",
                    "yes" if result.notes.get("communication_free") else "no",
                ]
            )
    emit("ablation_parallelism_partitioners", partitioner_table)

    # The measured 16-array configuration must actually help.
    final = measured_shard_report(
        _sharded_run(graph, array_bytes, 16, "degree"), base
    )
    assert serial_latency / final.latency_s > 1.5
