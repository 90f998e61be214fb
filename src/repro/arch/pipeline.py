"""Bank-level parallelism and write/compute overlap (architecture study).

The baseline behavioural model (:class:`~repro.arch.perf.PimPerformanceModel`)
issues AND operations serially through a shared bit counter — the
conservative reading of the paper's dataflow.  Fig. 4's organisation
(banks x mats x sub-arrays, each with its own local bit counter and row
buffer) clearly admits more: independent sub-arrays can compute
concurrently, and column-slice WRITEs can overlap with computation in
other banks.

This module prices those options so the design space around the paper's
fixed configuration can be explored (ablation A5): latency follows an
Amdahl-style composition where only array work parallelises while the
controller's per-edge work stays serial.

Two pricing modes coexist:

* **analytic** (:class:`ParallelPimModel`) — divide one single-array
  run's event totals uniformly across ``compute_units``, the idealised
  Amdahl curve;
* **measured** (:func:`simulate_sharded`) — actually execute the run
  sharded across ``num_arrays`` simulated arrays
  (:mod:`repro.core.sharding`) and price each array's *own* events,
  taking the slowest shard as the critical path
  (:meth:`PimPerformanceModel.evaluate_shards`).  The gap between the
  two curves is what uniform scaling hides: partition imbalance and
  per-shard cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.perf import PerfReport, PimPerformanceModel, default_pim_model
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
)
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = [
    "ParallelConfig",
    "ParallelPimModel",
    "simulate_parallel",
    "measured_shard_report",
    "measured_fleet_report",
    "simulate_sharded",
]


@dataclass(frozen=True)
class ParallelConfig:
    """Parallel-issue options layered on the baseline model."""

    #: Sub-arrays computing concurrently (1 = the baseline serial model).
    compute_units: int = 1
    #: Independent write ports (banks that can load slices concurrently).
    write_ports: int = 1
    #: Whether slice WRITEs overlap with computation in other banks.
    overlap_write_with_compute: bool = False

    def __post_init__(self) -> None:
        if self.compute_units < 1:
            raise ArchitectureError(
                f"compute_units must be >= 1, got {self.compute_units}"
            )
        if self.write_ports < 1:
            raise ArchitectureError(f"write_ports must be >= 1, got {self.write_ports}")


class ParallelPimModel:
    """Latency/energy with sub-array parallelism and write overlap.

    Energy is unchanged from the baseline (the same operations happen,
    just concurrently) except for leakage/host terms, which scale with
    the shortened runtime.
    """

    def __init__(
        self,
        base: PimPerformanceModel,
        config: ParallelConfig | None = None,
    ) -> None:
        self.base = base
        self.config = config or ParallelConfig()

    def evaluate(
        self, events: EventCounts, num_rows_processed: int | None = None
    ) -> PerfReport:
        """Performance report under the configured parallelism."""
        timing = self.base.timing
        energy = self.base.energy
        config = self.config
        rows = num_rows_processed if num_rows_processed is not None else 0

        and_time = events.and_operations * timing.and_latency_s / config.compute_units
        write_time = (
            events.total_slice_writes * timing.write_latency_s / config.write_ports
        )
        control_time = (
            events.edges_processed * timing.per_edge_overhead_s
            + rows * timing.per_row_overhead_s
        )
        bitcount_drain = (
            timing.bitcount_latency_s if events.bitcount_operations else 0.0
        )
        if config.overlap_write_with_compute:
            array_time = max(and_time, write_time)
        else:
            array_time = and_time + write_time
        latency = array_time + control_time + bitcount_drain

        dynamic = (
            events.and_operations * energy.and_energy_j
            + events.total_slice_writes * energy.write_energy_j
            + events.bitcount_operations * energy.bitcount_energy_j
            + events.edges_processed * energy.per_edge_energy_j
        )
        leakage = energy.leakage_power_w * latency
        array_energy = dynamic + leakage
        system_energy = array_energy + energy.host_power_w * latency
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=system_energy,
            latency_breakdown_s={
                "and": and_time,
                "write": write_time,
                "overlapped_array": array_time,
                "control": control_time,
                "bitcount_drain": bitcount_drain,
            },
            energy_breakdown_j={
                "dynamic": dynamic,
                "leakage": leakage,
                "host": energy.host_power_w * latency,
            },
        )

    def speedup_over_serial(
        self, events: EventCounts, num_rows_processed: int | None = None
    ) -> float:
        """Latency ratio of the serial baseline to this configuration."""
        serial = self.base.evaluate(events, num_rows_processed).latency_s
        parallel = self.evaluate(events, num_rows_processed).latency_s
        return serial / parallel if parallel else float("inf")


def simulate_parallel(
    graph: Graph,
    accelerator_config: AcceleratorConfig | None = None,
    parallel_config: ParallelConfig | None = None,
    base_model: PimPerformanceModel | None = None,
) -> tuple[TCIMRunResult, PerfReport]:
    """Run the accelerator on ``graph`` and price it under ``parallel_config``.

    One-call entry point for the architecture studies: the functional run
    executes ``accelerator_config`` on the vectorized batch engine, and
    the resulting event counts feed the parallel performance model.  Returns the functional result
    alongside the priced report.
    """
    from repro.core.engine import oriented_edges

    accelerator_config = accelerator_config or AcceleratorConfig()
    result = TCIMAccelerator(accelerator_config).run(graph)
    model = ParallelPimModel(base_model or default_pim_model(), parallel_config)
    # Rows of the upper-triangular matrix the controller actually streams
    # (the same convention the Table V benchmarks use), not all
    # non-isolated vertices: only rows with successors are loaded.
    sources, _ = oriented_edges(graph, "upper")
    rows_processed = int(np.unique(sources).size)
    report = model.evaluate(result.events, rows_processed)
    return result, report


def measured_shard_report(
    result: TCIMRunResult,
    base_model: PimPerformanceModel | None = None,
) -> PerfReport:
    """Price a sharded run from its measured per-shard breakdown.

    ``result`` must come from a run with ``num_arrays > 1`` (its
    ``shards`` list carries each array's events and touched-row count);
    single-array results are priced as a one-shard critical path, which
    degenerates to the baseline serial model.

    Pricing follows the run's own provenance: position-partitioned runs
    pay the per-shard ``merge`` read-back, while runs whose
    ``result.notes`` carry the ``communication_free`` flag — coloring
    runs, whose color-triple shards need no other shard's slices — skip
    it.
    """
    model = base_model or default_pim_model()
    if result.shards:
        shard_events = [shard.events for shard in result.shards]
        shard_rows = [shard.rows for shard in result.shards]
    else:
        shard_events = [result.events]
        shard_rows = None
    return model.evaluate_shards(
        shard_events,
        shard_rows,
        communication_free=bool(result.notes.get("communication_free")),
    )


def measured_fleet_report(
    session_events: list[EventCounts],
    session_rows: list[int] | None = None,
    base_model: PimPerformanceModel | None = None,
    *,
    launches: int | None = None,
) -> PerfReport:
    """Price a serving fleet from each resident session's measured events.

    The serving-tier counterpart of :func:`measured_shard_report`:
    ``session_events`` holds the merged :class:`EventCounts` of the
    engine work each resident session actually executed (full runs plus
    incremental delta re-joins, as accumulated by
    :class:`repro.serve.Service`), and the report reflects the slowest
    session — the fleet's measured critical path — with leakage accrued
    per resident array group (see
    :meth:`PimPerformanceModel.evaluate_fleet`).  ``launches`` forwards
    the serving run's kernel-dispatch count so probe batches amortise
    their per-launch cost over every probe they drain.
    """
    model = base_model or default_pim_model()
    return model.evaluate_fleet(session_events, session_rows, launches=launches)


def simulate_sharded(
    graph: Graph,
    accelerator_config: AcceleratorConfig | None = None,
    base_model: PimPerformanceModel | None = None,
) -> tuple[TCIMRunResult, PerfReport]:
    """Run the accelerator sharded and price the measured critical path.

    The measured counterpart of :func:`simulate_parallel`: instead of
    Amdahl-scaling one run's totals, the functional simulator executes
    ``accelerator_config.num_arrays`` shards (each with its private row
    region and column cache) and the report reflects the slowest shard —
    including whatever load imbalance the chosen partitioner produced.
    """
    accelerator_config = accelerator_config or AcceleratorConfig(num_arrays=2)
    result = TCIMAccelerator(accelerator_config).run(graph)
    report = measured_shard_report(result, base_model)
    return result, report
