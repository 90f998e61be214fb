"""Tests for the behavioural performance/energy simulator."""

from __future__ import annotations

import pytest

from repro.errors import ArchitectureError
from repro.arch.perf import (
    FpgaReferenceModel,
    GraphXCpuModel,
    PimEnergyParams,
    PimPerformanceModel,
    SoftwareSlicedModel,
    default_pim_model,
)
from repro.arch.pipeline import ParallelConfig, ParallelPimModel
from repro.core.accelerator import EventCounts, TCIMAccelerator
from repro.graph import generators


def _events(and_ops=1000, writes=100, edges=500) -> EventCounts:
    events = EventCounts()
    events.and_operations = and_ops
    events.bitcount_operations = and_ops
    events.row_slice_writes = writes // 2
    events.col_slice_writes = writes - writes // 2
    events.col_slice_hits = 3 * and_ops // 4
    events.index_lookups = edges
    events.edges_processed = edges
    events.dense_pair_operations = 100 * and_ops
    return events


class TestPimModel:
    @pytest.fixture(scope="class")
    def model(self) -> PimPerformanceModel:
        return default_pim_model()

    def test_zero_events_zero_cost(self, model):
        report = model.evaluate(EventCounts())
        assert report.latency_s == 0.0
        assert report.array_energy_j == 0.0
        assert report.system_energy_j == 0.0

    def test_latency_breakdown_sums(self, model):
        report = model.evaluate(_events())
        assert report.latency_s == pytest.approx(
            sum(report.latency_breakdown_s.values())
        )

    def test_energy_breakdown_sums(self, model):
        report = model.evaluate(_events())
        assert report.system_energy_j == pytest.approx(
            sum(report.energy_breakdown_j.values())
        )
        assert report.array_energy_j < report.system_energy_j

    def test_latency_monotonic_in_work(self, model):
        light = model.evaluate(_events(and_ops=100))
        heavy = model.evaluate(_events(and_ops=100_000))
        assert heavy.latency_s > light.latency_s

    def test_parallel_units_speed_up_ands(self):
        # AND parallelism is priced by the bank-parallel model's compute
        # units, over the serial model's terms.
        base = default_pim_model()
        parallel = ParallelPimModel(base, ParallelConfig(compute_units=16))
        events = _events(and_ops=1_000_000, edges=0, writes=0)
        assert parallel.evaluate(events).latency_s < base.evaluate(events).latency_s

    def test_invalid_parallelism(self):
        with pytest.raises(ArchitectureError):
            ParallelConfig(compute_units=0)

    def test_row_overhead_applied(self, model):
        without = model.evaluate(_events())
        with_rows = model.evaluate(_events(), num_rows_processed=1000)
        assert with_rows.latency_s > without.latency_s

    def test_derived_from_device_stack(self, model):
        """The default model must inherit ns-scale array ops (device->array
        composition, not arbitrary constants)."""
        assert 1e-10 < model.timing.and_latency_s < 1e-8
        assert model.energy.write_energy_j > model.energy.and_energy_j


class TestJoinPlanPricing:
    """Plan compile priced once; plan reuse priced as pure array reads."""

    @pytest.fixture(scope="class")
    def model(self) -> PimPerformanceModel:
        return default_pim_model()

    def test_compile_scales_with_edges_and_pairs(self, model):
        small = model.evaluate_plan_compile(num_edges=100, num_pairs=50)
        more_edges = model.evaluate_plan_compile(num_edges=10_000, num_pairs=50)
        more_pairs = model.evaluate_plan_compile(num_edges=100, num_pairs=50_000)
        assert more_edges.latency_s > small.latency_s
        assert more_pairs.latency_s > small.latency_s
        assert small.latency_s == pytest.approx(
            sum(small.latency_breakdown_s.values())
        )
        assert small.system_energy_j == pytest.approx(
            sum(small.energy_breakdown_j.values())
        )

    def test_compile_rejects_negative_counts(self, model):
        with pytest.raises(ArchitectureError):
            model.evaluate_plan_compile(num_edges=-1, num_pairs=0)

    def test_reuse_is_cheaper_than_a_plan_free_query(self, model):
        # Same events: the array-side work is unchanged, the per-edge
        # index machinery collapses to per-pair record reads.
        events = _events(and_ops=1000, edges=50_000)
        plain = model.evaluate(events)
        reuse = model.evaluate_plan_reuse(events)
        assert reuse.latency_s < plain.latency_s
        assert reuse.system_energy_j < plain.system_energy_j
        # Array-side components are identical, only control changes.
        for component in ("and", "write", "bitcount_drain"):
            assert reuse.latency_breakdown_s[component] == pytest.approx(
                plain.latency_breakdown_s[component]
            )
        assert reuse.latency_s == pytest.approx(
            sum(reuse.latency_breakdown_s.values())
        )
        assert reuse.system_energy_j == pytest.approx(
            sum(reuse.energy_breakdown_j.values())
        )

    def test_compile_amortises_over_repeat_queries(self, model):
        # The resident-plan story in one inequality: compile + N reuse
        # queries beats N plan-free queries for modest N.
        events = _events(and_ops=1000, edges=50_000)
        plain = model.evaluate(events).latency_s
        compile_once = model.evaluate_plan_compile(
            num_edges=events.edges_processed, num_pairs=events.and_operations
        ).latency_s
        reuse = model.evaluate_plan_reuse(events).latency_s
        repeats = 10
        assert compile_once + repeats * reuse < repeats * plain

    def test_zero_events_zero_reuse_cost(self, model):
        report = model.evaluate_plan_reuse(EventCounts())
        assert report.latency_s == 0.0
        assert report.system_energy_j == 0.0


class TestSoftwareModels:
    def test_software_slower_than_pim(self):
        graph = generators.powerlaw_cluster(300, 4, 0.6, seed=0)
        result = TCIMAccelerator().run(graph)
        pim = default_pim_model().evaluate(result.events)
        software = SoftwareSlicedModel().evaluate_seconds(result.events)
        assert software > pim.latency_s

    def test_software_scales_with_pairs(self):
        model = SoftwareSlicedModel()
        assert model.evaluate_seconds(_events(and_ops=10_000)) > (
            model.evaluate_seconds(_events(and_ops=100))
        )

    def test_graphx_model_dominated_by_edges(self):
        model = GraphXCpuModel()
        small = model.evaluate_seconds(1000, 1e4)
        large = model.evaluate_seconds(100_000, 1e4)
        assert large > 50 * small

    def test_graphx_wedge_term(self):
        model = GraphXCpuModel()
        assert model.evaluate_seconds(1000, 1e8) > model.evaluate_seconds(1000, 1e4)


class TestFpgaReference:
    def test_energy_linear_in_runtime(self):
        model = FpgaReferenceModel(board_power_w=21.0)
        assert model.energy_j(2.0) == pytest.approx(42.0)

    def test_invalid_power(self):
        with pytest.raises(ArchitectureError):
            FpgaReferenceModel(board_power_w=0.0)


class TestEndToEndShape:
    def test_table5_ordering_on_synthetic_graph(self):
        """TCIM must beat the software model, which must beat GraphX —
        the qualitative ordering of Table V."""
        graph = generators.powerlaw_cluster(500, 5, 0.6, seed=1)
        result = TCIMAccelerator().run(graph)
        pim_seconds = default_pim_model().evaluate(result.events).latency_s
        software_seconds = SoftwareSlicedModel().evaluate_seconds(result.events)
        from repro.analysis.metrics import degree_statistics

        graphx_seconds = GraphXCpuModel().evaluate_seconds(
            graph.num_edges, degree_statistics(graph)["sum_squared"]
        )
        assert pim_seconds < software_seconds < graphx_seconds


class TestFleetPricing:
    def test_critical_path_is_slowest_session(self):
        model = default_pim_model()
        light = _events(and_ops=100, writes=10, edges=50)
        heavy = _events(and_ops=10_000, writes=1_000, edges=5_000)
        fleet = model.evaluate_fleet([light, heavy])
        assert fleet.latency_s == pytest.approx(model.evaluate(heavy).latency_s)
        assert fleet.latency_breakdown_s["critical_path"] == fleet.latency_s
        assert fleet.latency_breakdown_s["imbalance"] > 1.0

    def test_leakage_scales_with_resident_groups(self):
        model = default_pim_model()
        events = _events()
        one = model.evaluate_fleet([events])
        four = model.evaluate_fleet([events] * 4)
        # Same critical path, but four resident groups leak concurrently
        # and dynamic energy sums over all four sessions.
        assert four.latency_s == pytest.approx(one.latency_s)
        assert four.energy_breakdown_j["leakage"] == pytest.approx(
            4 * one.energy_breakdown_j["leakage"]
        )
        assert four.energy_breakdown_j["dynamic"] == pytest.approx(
            4 * one.energy_breakdown_j["dynamic"]
        )
        # The shared host accrues once, over the critical path.
        assert four.energy_breakdown_j["host"] == pytest.approx(
            one.energy_breakdown_j["host"]
        )

    def test_single_session_fleet_matches_evaluate(self):
        model = default_pim_model()
        events = _events()
        fleet = model.evaluate_fleet([events], [42])
        single = model.evaluate(events, 42)
        assert fleet.latency_s == pytest.approx(single.latency_s)
        assert fleet.system_energy_j == pytest.approx(single.system_energy_j)

    def test_validation(self):
        model = default_pim_model()
        with pytest.raises(ArchitectureError, match="at least one session"):
            model.evaluate_fleet([])
        with pytest.raises(ArchitectureError, match="row counts"):
            model.evaluate_fleet([_events()], [1, 2])

    def test_measured_fleet_report_helper(self):
        from repro.arch.pipeline import measured_fleet_report

        report = measured_fleet_report([_events(), _events(and_ops=5)])
        assert report.latency_s > 0
        assert "session1" in report.latency_breakdown_s


class TestWorkloadPricing:
    @pytest.fixture(scope="class")
    def model(self) -> PimPerformanceModel:
        return default_pim_model()

    def test_count_is_plain_evaluate(self, model):
        events = _events()
        base = model.evaluate(events)
        workload = model.evaluate_workload(events, "count", num_edges=500)
        assert workload.latency_s == base.latency_s
        assert workload.energy_breakdown_j == base.energy_breakdown_j

    def test_per_edge_workloads_add_host_traffic(self, model):
        events = _events()
        base = model.evaluate(events)
        for kind in ("support", "truss", "common_neighbors"):
            report = model.evaluate_workload(events, kind, num_edges=500)
            assert report.latency_s > base.latency_s
            assert report.latency_breakdown_s["workload_read"] == pytest.approx(
                events.bitcount_operations
                * model.timing.workload_read_latency_s
            )
            assert report.latency_breakdown_s["workload_write"] == pytest.approx(
                500 * model.timing.workload_write_latency_s
            )

    def test_cluster_writes_vertex_records(self, model):
        events = _events()
        edges = model.evaluate_workload(
            events, "support", num_edges=500, num_vertices=50
        )
        vertices = model.evaluate_workload(
            events, "cluster", num_edges=500, num_vertices=50
        )
        assert vertices.latency_breakdown_s["workload_write"] == pytest.approx(
            50 * model.timing.workload_write_latency_s
        )
        assert vertices.latency_s < edges.latency_s

    def test_breakdowns_still_sum(self, model):
        report = model.evaluate_workload(_events(), "support", num_edges=500)
        assert report.latency_s == pytest.approx(
            sum(report.latency_breakdown_s.values())
        )
        assert report.system_energy_j == pytest.approx(
            sum(report.energy_breakdown_j.values())
        )
        assert report.array_energy_j < report.system_energy_j

    def test_leakage_and_host_cover_extended_runtime(self, model):
        report = model.evaluate_workload(_events(), "support", num_edges=500)
        assert report.energy_breakdown_j["leakage"] == pytest.approx(
            model.energy.leakage_power_w * report.latency_s
        )
        assert report.energy_breakdown_j["host"] == pytest.approx(
            model.energy.host_power_w * report.latency_s
        )

    def test_plan_reuse_variant_is_cheaper(self, model):
        events = _events()
        plain = model.evaluate_workload(events, "support", num_edges=500)
        reused = model.evaluate_workload(
            events, "support", num_edges=500, plan_reuse=True
        )
        assert reused.latency_s < plain.latency_s

    def test_unknown_kind_rejected(self, model):
        with pytest.raises(ArchitectureError, match="unknown workload kind"):
            model.evaluate_workload(_events(), "pagerank", num_edges=500)

    def test_kind_registry_is_complete(self):
        assert PimPerformanceModel.WORKLOAD_KINDS == (
            "count", "support", "truss", "cluster", "common_neighbors"
        )
