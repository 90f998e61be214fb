"""Tests for the TCIM accelerator orchestration (Algorithm 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArchitectureError
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.baselines.intersection import triangle_count_forward
from repro.graph import generators
from repro.graph.graph import Graph


class TestConfig:
    def test_paper_defaults(self):
        config = AcceleratorConfig()
        assert config.slice_bits == 64
        assert config.array_bytes == 16 * 2**20
        assert config.capacity_slices == 2 * 2**20

    def test_bad_slice_bits(self):
        with pytest.raises(ArchitectureError):
            TCIMAccelerator(AcceleratorConfig(slice_bits=12))

    def test_too_small_array(self):
        with pytest.raises(ArchitectureError):
            TCIMAccelerator(AcceleratorConfig(array_bytes=8))

    def test_bad_orientation(self):
        # Runs always walk the upper-triangular orientation: the retired
        # key is unknown, like any typo.
        with pytest.raises(ArchitectureError, match="unknown"):
            AcceleratorConfig.from_mapping({"orientation": "symmetric"})


class TestCorrectness:
    def test_paper_example(self, paper_graph):
        result = TCIMAccelerator().run(paper_graph)
        assert result.triangles == 2
        assert result.events.edges_processed == 5

    def test_random_battery(self, random_graphs):
        accelerator = TCIMAccelerator()
        for graph in random_graphs:
            assert accelerator.run(graph).triangles == triangle_count_forward(graph)

    def test_empty_graph(self, empty_graph):
        result = TCIMAccelerator().run(empty_graph)
        assert result.triangles == 0
        assert result.events.edges_processed == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=80),
        st.sampled_from([8, 16, 64]),
    )
    def test_exactness_property(self, edges, slice_bits):
        graph = Graph(20, edges)
        config = AcceleratorConfig(slice_bits=slice_bits)
        assert TCIMAccelerator(config).run(graph).triangles == (
            triangle_count_forward(graph)
        )

    def test_tiny_cache_still_exact(self):
        """Capacity pressure changes statistics, never the count."""
        graph = generators.powerlaw_cluster(120, 4, 0.6, seed=1)
        expected = triangle_count_forward(graph)
        # 64 slices of 8 bytes: 512-byte array.
        config = AcceleratorConfig(array_bytes=512)
        result = TCIMAccelerator(config).run(graph)
        assert result.triangles == expected
        assert result.cache_stats.exchanges > 0

    def test_all_policies_exact(self):
        graph = generators.erdos_renyi(100, 400, seed=2)
        expected = triangle_count_forward(graph)
        for policy in ("lru", "fifo", "random"):
            config = AcceleratorConfig(array_bytes=1024, policy=policy)
            assert TCIMAccelerator(config).run(graph).triangles == expected


class TestEvents:
    def test_event_consistency(self):
        graph = generators.erdos_renyi(80, 300, seed=3)
        result = TCIMAccelerator().run(graph)
        events = result.events
        assert events.and_operations == events.bitcount_operations
        assert events.index_lookups == events.edges_processed == graph.num_edges
        assert events.col_slice_writes == result.cache_stats.writes
        assert events.col_slice_hits == result.cache_stats.hits
        # Column accesses = hits + writes = AND operations (one column slice
        # is touched per valid pair).
        assert (
            events.col_slice_hits + events.col_slice_writes == events.and_operations
        )

    def test_row_writes_bounded_by_valid_slices(self):
        from repro.core.slicing import SlicedMatrix

        graph = generators.erdos_renyi(80, 300, seed=4)
        result = TCIMAccelerator().run(graph)
        rows = SlicedMatrix.from_graph(graph, "upper")
        assert result.events.row_slice_writes == rows.num_valid_slices

    def test_write_savings_positive_when_columns_reused(self):
        graph = generators.ego_network(300, num_circles=6, seed=5)
        result = TCIMAccelerator().run(graph)
        assert result.events.write_savings_percent > 0.0

    def test_computation_reduction_on_sparse_graph(self):
        graph = generators.road_network(40, 40, seed=6)
        result = TCIMAccelerator().run(graph)
        assert result.events.computation_reduction_percent > 90.0

    def test_empty_events_percentages(self):
        events = EventCounts()
        assert events.write_savings_percent == 0.0
        assert events.total_write_savings_percent == 0.0
        assert events.computation_reduction_percent == 0.0

    def test_write_savings_is_column_reuse_saving(self):
        """Regression: row writes used to dilute the reuse saving.

        The ISSUE's example: 100 row writes, 70 column hits, 30 column
        writes.  The paper's "saves 72 % of memory WRITE operations" claim
        is about the reuse cache, whose saving here is 70 % — the old
        formula reported 35 %.
        """
        events = EventCounts(
            row_slice_writes=100, col_slice_hits=70, col_slice_writes=30
        )
        assert events.write_savings_percent == pytest.approx(70.0)
        assert events.total_write_savings_percent == pytest.approx(35.0)

    def test_write_savings_consistent_with_cache_statistics(self):
        from repro.graph import generators as gen

        graph = gen.ego_network(300, num_circles=6, seed=5)
        result = TCIMAccelerator().run(graph)
        assert result.events.write_savings_percent == pytest.approx(
            result.cache_stats.write_savings_percent
        )
        assert (
            result.events.total_write_savings_percent
            <= result.events.write_savings_percent
        )


class TestCapacityPressure:
    def test_smaller_array_more_exchanges(self):
        graph = generators.powerlaw_cluster(200, 5, 0.7, seed=7)
        big = TCIMAccelerator(AcceleratorConfig(array_bytes=1 << 20)).run(graph)
        small = TCIMAccelerator(AcceleratorConfig(array_bytes=1024)).run(graph)
        assert small.cache_stats.exchanges >= big.cache_stats.exchanges
        assert small.triangles == big.triangles

    def test_row_region_reported(self):
        graph = generators.erdos_renyi(100, 300, seed=8)
        result = TCIMAccelerator().run(graph)
        assert result.row_region_slices >= 1
        assert (
            result.column_cache_slices
            == result.config.capacity_slices - result.row_region_slices
        )

    def test_array_smaller_than_row_region_rejected(self):
        graph = generators.complete_graph(64)  # one dense row -> 1 slice, need >= 2
        config = AcceleratorConfig(array_bytes=16)  # 2 slices, row region 1 -> ok
        TCIMAccelerator(config).run(graph)
        tiny = AcceleratorConfig(array_bytes=8)  # capacity 1 -> rejected at init
        with pytest.raises(ArchitectureError):
            TCIMAccelerator(tiny)
