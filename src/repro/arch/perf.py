"""Behavioural performance/energy simulation (paper Section V-A).

The paper's final stage is "a behavioural-level simulator ... taking
architectural-level results and memory array performance to calculate the
latency and energy that spends on TC in-memory accelerator".  This module
is that simulator: it prices the event counts collected by
:class:`repro.core.accelerator.TCIMAccelerator` with the per-operation
figures from the NVSim-style model and the bit-counter model.

Three execution models are provided, matching Table V's columns:

* :class:`PimPerformanceModel` — the TCIM accelerator itself;
* :class:`SoftwareSlicedModel` — the same slicing/reuse algorithm on a
  single-core CPU (the paper's "This Work w/o PIM" column);
* :class:`GraphXCpuModel` — the Spark GraphX edge-iterator baseline (the
  paper's "CPU" column).

Per-operation constants for the two software models are *calibrated*
against the paper's published columns (the substrate is a different
machine, so absolute agreement is impossible); the calibration procedure
and resulting paper-vs-model numbers are recorded in EXPERIMENTS.md.
:meth:`PimPerformanceModel.evaluate_shards` additionally prices a sharded
multi-array run from its *measured* per-shard events (critical path =
slowest sub-array) — the methodology is documented in EXPERIMENTS.md too.
Energy for Fig. 6 compares the TCIM system (array + controller/host)
against the FPGA accelerator of [3] modelled as runtime x board power.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.accelerator import EventCounts
from repro.errors import ArchitectureError
from repro.memory.bitcounter import BitCounter
from repro.memory.nvsim import ArrayPerformance, NVSimModel

__all__ = [
    "PimTimingParams",
    "PimEnergyParams",
    "PerfReport",
    "PimPerformanceModel",
    "SoftwareTimingParams",
    "SoftwareSlicedModel",
    "GraphXCpuModel",
    "FpgaReferenceModel",
    "default_pim_model",
]


@dataclass(frozen=True)
class PimTimingParams:
    """Per-operation latencies of the accelerator datapath (seconds)."""

    #: One in-array AND activation (two word-lines + sense).
    and_latency_s: float
    #: One slice WRITE into the computational array.
    write_latency_s: float
    #: One bit-counter resolution (pipelined behind the ANDs).
    bitcount_latency_s: float
    #: Controller work per edge: index lookup, address generation, slice
    #: pair matching.  Calibrated against Table V (see module docstring).
    per_edge_overhead_s: float = 40e-9
    #: Row-switch overhead (row-region management).
    per_row_overhead_s: float = 10e-9
    #: Streaming one precompiled matched-pair record out of the plan
    #: store — a sequential buffer read, an order of magnitude below the
    #: per-edge index machinery it replaces (see EXPERIMENTS.md, "Join
    #: plan pricing").
    plan_record_latency_s: float = 4e-9
    #: Draining one per-pair popcount out of the pipelined bit counter
    #: for host-side reduction.  The counting workload accumulates
    #: in-place and never pays this; per-edge/per-vertex workloads
    #: (support, truss, clustering, common-neighbors) read every pair's
    #: count — a sequential buffer read, same magnitude as a plan-record
    #: access.
    workload_read_latency_s: float = 2e-9
    #: Writing one workload result record (a per-edge support or a
    #: per-vertex tally) back through the data buffer.
    workload_write_latency_s: float = 4e-9
    #: Host-side cost of dispatching one kernel launch to the array
    #: fleet (command assembly, descriptor write, doorbell — work the
    #: controller performs once per sweep regardless of its size).  The
    #: serving tier's probe batching amortises this: a batch pays it
    #: once for all the probes parked in its event-loop tick.  See
    #: EXPERIMENTS.md §7 for the calibration.
    kernel_launch_s: float = 2e-6
    #: Collecting one shard's partial result into the global merge when
    #: shards execute over *shared* slice structures (the position
    #: partitioners): a controller read-back + accumulate per shard,
    #: same magnitude as a kernel dispatch.  Communication-free coloring
    #: shards skip this term entirely — each color triple's accumulator
    #: is final where it lives.
    #: See EXPERIMENTS.md §9.
    shard_merge_latency_s: float = 2e-6
    #: Sequential throughput of bulk-loading snapshot segments from the
    #: storage tier back into the array's slice regions (bytes/second).
    #: Hydrating an evicted session is a streaming DMA of precomputed
    #: structures — no per-edge controller machinery, no plan-record
    #: writes — so it is priced by payload volume alone.  2 GB/s is a
    #: conservative NVMe-class sequential read figure.  See
    #: EXPERIMENTS.md §8 for the hydrate-vs-cold-open comparison.
    hydrate_bytes_per_s: float = 2e9


@dataclass(frozen=True)
class PimEnergyParams:
    """Per-operation energies of the accelerator (joules)."""

    and_energy_j: float
    write_energy_j: float
    read_energy_j: float
    bitcount_energy_j: float
    #: Controller + data-buffer energy per edge.
    per_edge_energy_j: float = 40e-12
    #: Energy of one plan-record buffer access (compile write or reuse read).
    plan_record_energy_j: float = 4e-12
    #: Energy of draining one per-pair popcount for host-side reduction.
    workload_read_energy_j: float = 2e-12
    #: Energy of writing one workload result record.
    workload_write_energy_j: float = 4e-12
    #: Array leakage power (W).
    leakage_power_w: float = 6.4e-3
    #: Power of the single-core host CPU + DRAM feeding the accelerator
    #: (the paper's system runs TCIM alongside a single-core CPU).
    host_power_w: float = 25.0


@dataclass
class PerfReport:
    """Latency/energy of one run, with per-component breakdowns."""

    latency_s: float
    #: Energy of the in-memory computation alone.
    array_energy_j: float
    #: Energy including controller/host power draw over the runtime — the
    #: system-level figure used for the Fig. 6 comparison.
    system_energy_j: float
    latency_breakdown_s: dict[str, float] = field(default_factory=dict)
    energy_breakdown_j: dict[str, float] = field(default_factory=dict)


class PimPerformanceModel:
    """Price :class:`EventCounts` into TCIM latency and energy."""

    def __init__(
        self,
        timing: PimTimingParams,
        energy: PimEnergyParams,
    ) -> None:
        self.timing = timing
        self.energy = energy

    def evaluate(self, events: EventCounts, num_rows_processed: int | None = None) -> PerfReport:
        """Compute the performance report for one accelerator run.

        ``num_rows_processed`` defaults to the edge count's row estimate
        embedded in the events (every row switch costs
        ``per_row_overhead_s``); passing the true number of non-empty rows
        tightens the estimate.
        """
        timing, energy = self.timing, self.energy
        rows = num_rows_processed if num_rows_processed is not None else 0
        and_time = events.and_operations * timing.and_latency_s
        write_time = events.total_slice_writes * timing.write_latency_s
        # Bit counting is pipelined behind the AND stream: only the drain
        # of the final popcount is exposed.
        bitcount_time = timing.bitcount_latency_s if events.bitcount_operations else 0.0
        control_time = (
            events.edges_processed * timing.per_edge_overhead_s
            + rows * timing.per_row_overhead_s
        )
        latency = and_time + write_time + bitcount_time + control_time

        and_energy = events.and_operations * energy.and_energy_j
        write_energy = events.total_slice_writes * energy.write_energy_j
        bitcount_energy = events.bitcount_operations * energy.bitcount_energy_j
        control_energy = events.edges_processed * energy.per_edge_energy_j
        leakage_energy = energy.leakage_power_w * latency
        array_energy = (
            and_energy + write_energy + bitcount_energy + control_energy + leakage_energy
        )
        system_energy = array_energy + energy.host_power_w * latency
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=system_energy,
            latency_breakdown_s={
                "and": and_time,
                "write": write_time,
                "bitcount_drain": bitcount_time,
                "control": control_time,
            },
            energy_breakdown_j={
                "and": and_energy,
                "write": write_energy,
                "bitcount": bitcount_energy,
                "control": control_energy,
                "leakage": leakage_energy,
                "host": energy.host_power_w * latency,
            },
        )

    def evaluate_plan_compile(self, num_edges: int, num_pairs: int) -> PerfReport:
        """Price building a :class:`repro.core.plan.JoinPlan` — once.

        Compiling the plan is the controller-side half of a query with
        the array work stripped out: one pass of per-edge index lookups
        and slice-pair matching (the ``per_edge_overhead_s`` machinery),
        plus one plan-record WRITE into the data buffer per matched
        pair.  No AND, no popcount, no array slice WRITEs — the
        computational array is untouched.  The session pays this once
        per graph generation; every subsequent query amortises it (see
        :meth:`evaluate_plan_reuse`).
        """
        if num_edges < 0 or num_pairs < 0:
            raise ArchitectureError(
                f"plan compile needs non-negative counts, got "
                f"({num_edges}, {num_pairs})"
            )
        timing, energy = self.timing, self.energy
        match_time = num_edges * timing.per_edge_overhead_s
        record_time = num_pairs * timing.plan_record_latency_s
        latency = match_time + record_time
        match_energy = num_edges * energy.per_edge_energy_j
        record_energy = num_pairs * energy.plan_record_energy_j
        leakage_energy = energy.leakage_power_w * latency
        array_energy = match_energy + record_energy + leakage_energy
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=array_energy + energy.host_power_w * latency,
            latency_breakdown_s={"match": match_time, "record": record_time},
            energy_breakdown_j={
                "match": match_energy,
                "record": record_energy,
                "leakage": leakage_energy,
                "host": energy.host_power_w * latency,
            },
        )

    def evaluate_plan_reuse(
        self, events: EventCounts, num_rows_processed: int | None = None
    ) -> PerfReport:
        """Price one query served from a resident join plan.

        The array-side work (slice WRITEs, ANDs, the pipelined bit
        counter) is identical to :meth:`evaluate` — the plan never
        changes what the array executes.  What disappears is the
        per-edge controller machinery: instead of an index lookup and
        slice-pair match per edge, the controller streams one
        precompiled pair record per AND — pure sequential array reads
        (``plan_record_latency_s`` each).  This is the repeat-query
        figure; the first query of a generation additionally pays
        :meth:`evaluate_plan_compile`.
        """
        timing, energy = self.timing, self.energy
        baseline = self.evaluate(events, num_rows_processed)
        rows = num_rows_processed if num_rows_processed is not None else 0
        control_time = (
            events.and_operations * timing.plan_record_latency_s
            + rows * timing.per_row_overhead_s
        )
        control_energy = events.and_operations * energy.plan_record_energy_j
        latency = (
            baseline.latency_breakdown_s["and"]
            + baseline.latency_breakdown_s["write"]
            + baseline.latency_breakdown_s["bitcount_drain"]
            + control_time
        )
        breakdown_j = dict(baseline.energy_breakdown_j)
        breakdown_j["control"] = control_energy
        breakdown_j["leakage"] = energy.leakage_power_w * latency
        breakdown_j["host"] = energy.host_power_w * latency
        array_energy = (
            breakdown_j["and"]
            + breakdown_j["write"]
            + breakdown_j["bitcount"]
            + breakdown_j["control"]
            + breakdown_j["leakage"]
        )
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=array_energy + breakdown_j["host"],
            latency_breakdown_s={
                "and": baseline.latency_breakdown_s["and"],
                "write": baseline.latency_breakdown_s["write"],
                "bitcount_drain": baseline.latency_breakdown_s["bitcount_drain"],
                "control": control_time,
            },
            energy_breakdown_j=breakdown_j,
        )

    def evaluate_hydrate(self, num_bytes: int) -> PerfReport:
        """Price re-admitting an evicted session from its snapshot.

        Hydration streams ``num_bytes`` of precomputed structures —
        slice payloads, oriented edges, both compiled join plans — from
        the storage tier back into the array's slice regions at
        ``hydrate_bytes_per_s``.  Nothing is recomputed: no slicing
        pass, no per-edge match, no plan-record writes.  Compare against
        :meth:`evaluate_cold_open` to see what warm paging saves.
        """
        if num_bytes < 0:
            raise ArchitectureError(
                f"hydrate needs a non-negative byte count, got {num_bytes}"
            )
        timing, energy = self.timing, self.energy
        latency = num_bytes / timing.hydrate_bytes_per_s
        leakage_energy = energy.leakage_power_w * latency
        array_energy = leakage_energy
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=array_energy + energy.host_power_w * latency,
            latency_breakdown_s={"stream": latency},
            energy_breakdown_j={
                "leakage": leakage_energy,
                "host": energy.host_power_w * latency,
            },
        )

    def evaluate_cold_open(self, num_edges: int, num_pairs: int) -> PerfReport:
        """Price rebuilding an evicted session's residency from scratch.

        A cold re-admission repeats the residency-establishing work the
        session did on first open: one slicing pass over the edges
        (per-edge controller machinery plus one slice WRITE per edge
        endpoint pair into the array) followed by the plan compile of
        :meth:`evaluate_plan_compile`.  The ratio against
        :meth:`evaluate_hydrate` is the modelled counterpart of the
        ``oocore-smoke`` benchmark's measured warm-vs-cold gate.
        """
        if num_edges < 0 or num_pairs < 0:
            raise ArchitectureError(
                f"cold open needs non-negative counts, got "
                f"({num_edges}, {num_pairs})"
            )
        timing, energy = self.timing, self.energy
        slice_time = num_edges * (
            timing.per_edge_overhead_s + timing.write_latency_s
        )
        compile_report = self.evaluate_plan_compile(num_edges, num_pairs)
        latency = slice_time + compile_report.latency_s
        slice_energy = num_edges * (
            energy.per_edge_energy_j + energy.write_energy_j
        )
        leakage_energy = energy.leakage_power_w * latency
        array_energy = (
            slice_energy
            + compile_report.energy_breakdown_j["match"]
            + compile_report.energy_breakdown_j["record"]
            + leakage_energy
        )
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=array_energy + energy.host_power_w * latency,
            latency_breakdown_s={
                "slice": slice_time,
                "compile": compile_report.latency_s,
            },
            energy_breakdown_j={
                "slice": slice_energy,
                "match": compile_report.energy_breakdown_j["match"],
                "record": compile_report.energy_breakdown_j["record"],
                "leakage": leakage_energy,
                "host": energy.host_power_w * latency,
            },
        )

    WORKLOAD_KINDS = ("count", "support", "truss", "cluster", "common_neighbors")

    def evaluate_workload(
        self,
        events: EventCounts,
        kind: str,
        *,
        num_edges: int = 0,
        num_vertices: int = 0,
        num_rows_processed: int | None = None,
        plan_reuse: bool = False,
    ) -> PerfReport:
        """Price one bulk-bitwise workload run (see :mod:`repro.core.kernels`).

        Every workload executes the same array dataflow — the slice
        WRITEs, ANDs, and popcounts of ``events`` price identically to a
        counting run (``plan_reuse=True`` uses the resident-plan control
        figures of :meth:`evaluate_plan_reuse`).  What differs is the
        host boundary:

        * ``count`` accumulates in the pipelined bit counter and exposes
          only the final drain — no extra traffic;
        * per-edge workloads (``support``, ``truss``,
          ``common_neighbors``) drain one popcount per matched pair
          (``workload_read_*`` each) and write one support record per
          edge (``workload_write_*``, ``num_edges`` records);
        * ``cluster`` additionally reduces onto vertices, writing
          ``num_vertices`` tally records instead.

        Leakage and host energy are recomputed over the extended
        runtime; the extra terms appear in the breakdowns as
        ``workload_read`` / ``workload_write``.
        """
        if kind not in self.WORKLOAD_KINDS:
            raise ArchitectureError(
                f"unknown workload kind {kind!r}; "
                f"expected one of {self.WORKLOAD_KINDS}"
            )
        timing, energy = self.timing, self.energy
        base = (
            self.evaluate_plan_reuse(events, num_rows_processed)
            if plan_reuse
            else self.evaluate(events, num_rows_processed)
        )
        if kind == "count":
            return base
        num_records = num_vertices if kind == "cluster" else num_edges
        read_time = events.bitcount_operations * timing.workload_read_latency_s
        write_time = num_records * timing.workload_write_latency_s
        read_energy = events.bitcount_operations * energy.workload_read_energy_j
        write_energy = num_records * energy.workload_write_energy_j
        latency = base.latency_s + read_time + write_time
        breakdown_s = dict(base.latency_breakdown_s)
        breakdown_s["workload_read"] = read_time
        breakdown_s["workload_write"] = write_time
        breakdown_j = dict(base.energy_breakdown_j)
        breakdown_j["workload_read"] = read_energy
        breakdown_j["workload_write"] = write_energy
        breakdown_j["leakage"] = energy.leakage_power_w * latency
        breakdown_j["host"] = energy.host_power_w * latency
        array_energy = (
            sum(breakdown_j.values()) - breakdown_j["host"]
        )
        return PerfReport(
            latency_s=latency,
            array_energy_j=array_energy,
            system_energy_j=array_energy + breakdown_j["host"],
            latency_breakdown_s=breakdown_s,
            energy_breakdown_j=breakdown_j,
        )

    def evaluate_shards(
        self,
        shard_events: Sequence[EventCounts],
        shard_rows: Sequence[int] | None = None,
        *,
        communication_free: bool = False,
    ) -> PerfReport:
        """Price *measured* per-shard events: critical path = slowest shard.

        The analytic layer (:class:`repro.arch.pipeline.ParallelPimModel`)
        divides a single-array run's work uniformly across units — the
        Amdahl idealisation.  This mode instead takes the events each
        simulated sub-array actually executed (from a sharded run, see
        :mod:`repro.core.sharding`): every array runs concurrently with
        its own local controller and bit counter (Fig. 4 gives each
        sub-array private peripherals), so end-to-end latency is the
        latency of the slowest shard, including *its* cache misses and
        *its* serial per-edge work.  Dynamic energy sums over all shards;
        leakage and host power accrue over the critical-path runtime (the
        sub-arrays partition one chip, so total leakage power is
        unchanged).

        Shards over *shared* structures (the position partitioners) pay
        one ``shard_merge_latency_s`` read-back per shard on top of the
        critical path (the ``merge`` breakdown term) — the controller
        must collect every partial accumulator.  Pass
        ``communication_free=True`` for coloring shards, whose arrays
        hold every slice their color triple needs: their results are
        final where they live, so no merge is priced (multi-shard runs
        still pay a single collection, folded into the one-launch cost
        already priced per query elsewhere).
        """
        if not shard_events:
            raise ArchitectureError("evaluate_shards needs at least one shard")
        if shard_rows is None:
            shard_rows = [0] * len(shard_events)
        if len(shard_rows) != len(shard_events):
            raise ArchitectureError(
                f"{len(shard_events)} shards but {len(shard_rows)} row counts"
            )
        # Load imbalance (1.0 is perfect) is latency the partitioner left
        # on the table; leakage accrues once — the sub-arrays partition a
        # single chip.  One shard has nothing to merge regardless of
        # partitioner.
        merge_units = (
            0
            if communication_free or len(shard_events) == 1
            else len(shard_events)
        )
        return self._concurrent_report(
            shard_events,
            shard_rows,
            label="shard",
            leakage_groups=1,
            merge_units=merge_units,
        )

    def evaluate_fleet(
        self,
        session_events: Sequence[EventCounts],
        session_rows: Sequence[int] | None = None,
        *,
        launches: int | None = None,
    ) -> PerfReport:
        """Price a fleet of concurrently resident sessions.

        The serving tier (:mod:`repro.serve`) keeps many graphs resident
        at once, each in its own array group with private peripherals —
        the multi-graph generalisation of Fig. 4.  Groups execute their
        sessions' engine work concurrently, so fleet latency is the
        *slowest session's* critical path.  Dynamic energy sums over all
        sessions; unlike :meth:`evaluate_shards` (sub-arrays partitioning
        one chip), every resident group leaks over the whole fleet
        runtime, so leakage scales with the number of resident sessions.
        The controller/host is shared and accrues once.

        ``launches`` (optional) is the number of kernel dispatches the
        serving run actually issued — one per whole-result read job and
        apply, plus one per probe batch, which is how batching shows up
        in the price: a batch pays ``kernel_launch_s`` once for every
        probe parked in its tick.  The dispatch cost is host-side
        serial work, so it appears as its own ``launch`` breakdown term
        on top of the (unchanged) array critical path; omitting
        ``launches`` leaves the term out.
        """
        if not session_events:
            raise ArchitectureError("evaluate_fleet needs at least one session")
        if session_rows is None:
            session_rows = [0] * len(session_events)
        if len(session_rows) != len(session_events):
            raise ArchitectureError(
                f"{len(session_events)} sessions but {len(session_rows)} row counts"
            )
        if launches is not None and launches < 0:
            raise ArchitectureError(f"launches must be >= 0, got {launches}")
        # Unlike shards, every resident group leaks for the whole fleet
        # runtime; imbalance (1.0 = balanced) is throughput an
        # admission/placement policy could still recover.
        return self._concurrent_report(
            session_events,
            session_rows,
            label="session",
            leakage_groups=len(session_events),
            launches=launches,
        )

    def _concurrent_report(
        self,
        unit_events: Sequence[EventCounts],
        unit_rows: Sequence[int],
        label: str,
        leakage_groups: int,
        launches: int | None = None,
        merge_units: int = 0,
    ) -> PerfReport:
        """Shared critical-path pricing for concurrently executing units.

        Reuses per-unit :meth:`evaluate` reports so this accounting can
        never diverge from the serial model: dynamic energy is everything
        not time-proportional, while leakage re-accrues over the critical
        path for ``leakage_groups`` concurrently powered array groups and
        the shared host accrues once.
        """
        energy = self.energy
        per_unit = [
            self.evaluate(events, rows)
            for events, rows in zip(unit_events, unit_rows)
        ]
        latencies = [report.latency_s for report in per_unit]
        critical = max(latencies)
        # Kernel dispatch is serial host work layered on top of the
        # array critical path (which it does not change).  Merging
        # shared-structure partials is the same kind of serial
        # controller work: one read-back per merging unit.
        launch_time = (
            launches * self.timing.kernel_launch_s if launches else 0.0
        )
        merge_time = merge_units * self.timing.shard_merge_latency_s
        total_latency = critical + launch_time + merge_time
        dynamic = sum(
            sum(report.energy_breakdown_j.values())
            - report.energy_breakdown_j["leakage"]
            - report.energy_breakdown_j["host"]
            for report in per_unit
        )
        leakage = energy.leakage_power_w * total_latency * leakage_groups
        array_energy = dynamic + leakage
        system_energy = array_energy + energy.host_power_w * total_latency
        mean_latency = sum(latencies) / len(latencies)
        breakdown = {
            f"{label}{index}": latency for index, latency in enumerate(latencies)
        }
        breakdown["critical_path"] = critical
        breakdown["imbalance"] = critical / mean_latency if mean_latency else 1.0
        if launches:
            breakdown["launch"] = launch_time
        if merge_units:
            breakdown["merge"] = merge_time
        return PerfReport(
            latency_s=total_latency,
            array_energy_j=array_energy,
            system_energy_j=system_energy,
            latency_breakdown_s=breakdown,
            energy_breakdown_j={
                "dynamic": dynamic,
                "leakage": leakage,
                "host": energy.host_power_w * total_latency,
            },
        )


@dataclass(frozen=True)
class SoftwareTimingParams:
    """Single-core CPU costs for the *software* sliced algorithm.

    Calibrated against Table V's "This Work w/o PIM" column: the paper's
    software implementation pays hash-map lookups and cache misses per
    slice pair, which lands near 150 ns per pair on a 2008-era Xeon E5430.
    """

    per_pair_s: float = 150e-9
    per_edge_s: float = 300e-9
    per_slice_load_s: float = 40e-9


class SoftwareSlicedModel:
    """Model Table V's "w/o PIM" column from the same event counts."""

    def __init__(self, timing: SoftwareTimingParams | None = None) -> None:
        self.timing = timing or SoftwareTimingParams()

    def evaluate_seconds(self, events: EventCounts) -> float:
        """Runtime of the sliced algorithm executed purely in software."""
        timing = self.timing
        return (
            events.and_operations * timing.per_pair_s
            + events.edges_processed * timing.per_edge_s
            + events.writes_without_reuse * timing.per_slice_load_s
        )


class GraphXCpuModel:
    """Model Table V's "CPU" column (Spark GraphX on one Xeon E5430 core).

    GraphX's triangle counting is an edge-iterator with heavy JVM /
    dataframe overhead; the published column is fitted well by a
    per-edge constant plus a per-wedge intersection term.
    """

    def __init__(self, per_edge_s: float = 20e-6, per_wedge_s: float = 12e-9) -> None:
        self.per_edge_s = per_edge_s
        self.per_wedge_s = per_wedge_s

    def evaluate_seconds(self, num_edges: int, sum_degree_squared: float) -> float:
        """Estimate from edge count and the wedge count ``sum(d_v^2)``."""
        return num_edges * self.per_edge_s + sum_degree_squared * self.per_wedge_s


class FpgaReferenceModel:
    """Energy of the FPGA accelerator [3]: published runtime x board power.

    21 W is a typical HPEC-class FPGA board draw and, combined with our
    TCIM system energy, reproduces the Fig. 6 ratios (see EXPERIMENTS.md).
    """

    def __init__(self, board_power_w: float = 21.0) -> None:
        if board_power_w <= 0:
            raise ArchitectureError("board power must be positive")
        self.board_power_w = board_power_w

    def energy_j(self, runtime_s: float) -> float:
        """Energy for one published FPGA runtime."""
        return runtime_s * self.board_power_w


def default_pim_model(
    performance: ArrayPerformance | None = None,
    bit_counter: BitCounter | None = None,
) -> PimPerformanceModel:
    """Build the standard TCIM model from the device-derived array figures.

    This is the composition the paper describes: device (Table I) ->
    NVSim-style array model -> behavioural simulator.
    """
    if performance is None:
        performance = NVSimModel().evaluate()
    counter = bit_counter or BitCounter()
    timing = PimTimingParams(
        and_latency_s=performance.and_latency_s,
        write_latency_s=performance.write_latency_s,
        bitcount_latency_s=counter.latency_s,
    )
    energy = PimEnergyParams(
        and_energy_j=performance.and_energy_j,
        write_energy_j=performance.write_energy_j,
        read_energy_j=performance.read_energy_j,
        bitcount_energy_j=counter.energy_per_count_j,
        leakage_power_w=performance.leakage_power_w,
    )
    return PimPerformanceModel(timing, energy)
