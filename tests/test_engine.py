"""Differential tests: the vectorized engine vs the per-edge reference loop.

The batched engine (:mod:`repro.core.engine`) must be *bit-identical* to
:func:`repro.analysis.validation.per_edge_reference` — the same triangle
count, every :class:`EventCounts` field, and the same cache
hit/miss/exchange statistics — across graph families, slice widths,
replacement policies and capacity-starved caches.  Any
divergence is a bug in the engine, never an acceptable approximation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.validation import per_edge_reference
from repro.core import engine
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.kernels import execute_workload
from repro.core.slicing import SlicedMatrix
from repro.graph import generators
from repro.graph.graph import Graph


def execute(graph: Graph, column_capacity: int, edges=None, slice_bits=64):
    """One :func:`execute_workload` call over ``graph``'s upper and lower
    structures and its upper edge list (or the subset ``edges``)."""
    row = SlicedMatrix.from_graph(graph, "upper", slice_bits=slice_bits)
    col = SlicedMatrix.from_graph(graph, "lower", slice_bits=slice_bits)
    sources, destinations = edges or engine.oriented_edges(graph, "upper")
    return execute_workload(
        row, col, sources, destinations, column_capacity, "lru", 0
    )


def run_both(graph: Graph, **config_kwargs):
    """``(reference, vectorized)``: the per-edge loop's ``(triangles,
    events, cache_stats)`` and the accelerator's run on the same config."""
    config = AcceleratorConfig(**config_kwargs)
    reference = per_edge_reference(graph, config)
    vectorized = TCIMAccelerator(config).run(graph)
    return reference, vectorized


def assert_identical(graph: Graph, **config_kwargs):
    (triangles, events, cache_stats), vectorized = run_both(graph, **config_kwargs)
    assert vectorized.triangles == triangles
    assert dataclasses.asdict(vectorized.events) == dataclasses.asdict(events)
    assert dataclasses.asdict(vectorized.cache_stats) == dataclasses.asdict(
        cache_stats
    )
    # The row region is the widest row; the rest of the array caches columns.
    config = vectorized.config
    row_sliced = SlicedMatrix.from_graph(graph, "upper", slice_bits=config.slice_bits)
    row_region = int(row_sliced.row_valid_counts().max(initial=0))
    assert vectorized.row_region_slices == row_region
    assert vectorized.column_cache_slices == config.capacity_slices - row_region


GRAPH_FAMILIES = {
    "ba": lambda: generators.barabasi_albert(150, 5, seed=1),
    "rmat": lambda: generators.rmat(8, 1200, seed=2),
    "road": lambda: generators.road_network(12, 12, seed=3),
    "erdos": lambda: generators.erdos_renyi(80, 320, seed=4),
    "powerlaw": lambda: generators.powerlaw_cluster(120, 4, 0.6, seed=5),
    "triangle-free": lambda: generators.complete_bipartite(9, 11),
    "complete": lambda: generators.complete_graph(40),
    "empty": lambda: Graph(0),
    "single-vertex": lambda: Graph(1),
    "isolated": lambda: Graph(9),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


class TestDifferentialFamilies:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_default_config(self, family):
        assert_identical(GRAPH_FAMILIES[family]())


class TestDifferentialSliceWidths:
    @pytest.mark.parametrize("slice_bits", [8, 64, 128])
    def test_slice_widths(self, slice_bits):
        for family in ("ba", "road", "triangle-free"):
            assert_identical(GRAPH_FAMILIES[family](), slice_bits=slice_bits)


class TestDifferentialCachePressure:
    """Tiny arrays force exchanges — the serial tail of the trace sim."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("array_bytes", [128, 512, 4096])
    def test_policies_under_pressure(self, policy, array_bytes):
        graph = generators.powerlaw_cluster(150, 5, 0.7, seed=6)
        (triangles, _, cache_stats), vectorized = run_both(
            graph, array_bytes=array_bytes, policy=policy, seed=9
        )
        assert dataclasses.asdict(vectorized.cache_stats) == dataclasses.asdict(
            cache_stats
        )
        assert vectorized.triangles == triangles

    def test_exchanges_actually_forced(self):
        graph = generators.powerlaw_cluster(150, 5, 0.7, seed=6)
        _, vectorized = run_both(graph, array_bytes=512)
        assert vectorized.cache_stats.exchanges > 0


class TestDifferentialJoinPaths:
    """Both join implementations (dense table / searchsorted) are exact."""

    def test_searchsorted_fallback(self, monkeypatch):
        monkeypatch.setattr(engine, "DENSE_LOOKUP_MAX_KEYS", 0)
        for family in ("ba", "road", "complete", "empty"):
            assert_identical(GRAPH_FAMILIES[family]())
            assert_identical(GRAPH_FAMILIES[family](), array_bytes=512)

    def test_tiny_batches(self, monkeypatch):
        graph = generators.barabasi_albert(120, 4, seed=8)
        reference = execute(graph, 1 << 16)
        monkeypatch.setattr(engine, "DEFAULT_BATCH_CANDIDATES", 3)
        tiny = execute(graph, 1 << 16)
        assert tiny == reference


class TestDifferentialProperty:
    def test_random_edge_lists(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, 4 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            slice_bits = int(rng.choice([8, 16, 64]))
            assert_identical(graph, slice_bits=slice_bits)


class TestEngineEdgeCases:
    """Degenerate inputs through the batched kernel and the trace sim."""

    def test_empty_graph_through_execute_batched(self):
        result = execute(Graph(0), 16)
        assert result.accumulator == 0
        assert result.events.edges_processed == 0
        assert result.events.and_operations == 0
        assert result.events.row_slice_writes == 0
        assert result.cache_stats.accesses == 0

    def test_edgeless_graph_through_execute_batched(self):
        result = execute(Graph(12), 16)
        assert result.accumulator == 0
        assert result.events.dense_pair_operations == 0

    def test_no_valid_slice_pairs(self):
        """Edges whose row and column slices never share a slice index.

        With 8-bit slices, vertex 16's predecessors {0, 1} live in slice
        0 of the column structure while rows 0/1's successor {16} lives
        in slice 2 of the row structure — every join probe misses, so no
        AND fires and the cache trace stays empty, yet the per-edge
        counters still tick.
        """
        graph = Graph(17, [(0, 16), (1, 16)])
        result = execute(graph, 16, slice_bits=8)
        assert result.accumulator == 0
        assert result.events.and_operations == 0
        assert result.events.edges_processed == 2
        assert result.cache_stats.accesses == 0
        assert_identical(graph, slice_bits=8)

    def test_simulate_key_trace_capacity_one(self):
        from repro.core.reuse import simulate_key_trace, simulate_trace

        trace = np.array([3, 3, 5, 3, 5, 5, 3], dtype=np.int64)
        for policy in ("lru", "fifo", "random"):
            fast = simulate_key_trace(trace, 1, policy=policy, seed=2)
            serial = simulate_trace(trace.tolist(), 1, policy=policy, seed=2)
            assert dataclasses.asdict(fast) == dataclasses.asdict(serial)
        # Capacity 1 can never hit on an alternating trace.
        stats = simulate_key_trace(np.array([1, 2, 1, 2]), 1)
        assert stats.hits == 0
        assert stats.writes == 4

    def test_simulate_key_trace_empty_trace_capacity_one(self):
        from repro.core.reuse import simulate_key_trace

        stats = simulate_key_trace(np.empty(0, dtype=np.int64), 1)
        assert stats.accesses == 0
        assert stats.writes == 0

    def test_shard_edges_subset(self):
        """A subset of the edge list runs with row writes for touched rows only."""
        graph = generators.barabasi_albert(80, 4, seed=13)
        sources, destinations = engine.oriented_edges(graph, "upper")
        half = sources.size // 2
        full = execute(graph, 1 << 16)
        first = execute(graph, 1 << 16, edges=(sources[:half], destinations[:half]))
        second = execute(graph, 1 << 16, edges=(sources[half:], destinations[half:]))
        assert first.accumulator + second.accumulator == full.accumulator
        assert (
            first.events.and_operations + second.events.and_operations
            == full.events.and_operations
        )
        assert first.events.edges_processed == half
        upper = SlicedMatrix.from_graph(graph, "upper")
        _, touched = upper.row_slice_ranges(np.unique(sources[:half]))
        assert first.events.row_slice_writes == touched.sum()


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        from repro.errors import ArchitectureError

        # There is one engine; the retired selector is an unknown key.
        with pytest.raises(ArchitectureError, match="engine"):
            AcceleratorConfig.from_mapping({"engine": "warp-drive"})

    def test_bad_num_arrays_rejected(self):
        from repro.errors import ArchitectureError

        for bad in (0, -3):
            with pytest.raises(ArchitectureError, match="num_arrays"):
                TCIMAccelerator(AcceleratorConfig(num_arrays=bad))

    def test_default_is_vectorized(self):
        # There is one execution path: a run is exactly the batched engine
        # on the run's own column-cache budget.
        graph = GRAPH_FAMILIES["powerlaw"]()
        result = TCIMAccelerator().run(graph)
        direct = execute(graph, result.column_cache_slices)
        assert result.triangles == direct.accumulator
        assert result.events == direct.events
        assert result.cache_stats == direct.cache_stats

    def test_oriented_edges_rejects_unknown_orientation(self):
        from repro.errors import ArchitectureError

        graph = generators.complete_graph(4)
        with pytest.raises(ArchitectureError, match="orientation"):
            engine.oriented_edges(graph, "lower")

    def test_oriented_edges_order_matches_legacy_iteration(self):
        graph = generators.erdos_renyi(30, 90, seed=11)
        sources, destinations = engine.oriented_edges(graph, "upper")
        # Lexicographic by (source, destination) — the reference loop order.
        keys = sources * graph.num_vertices + destinations
        assert np.all(np.diff(keys) > 0)
        sym_src, sym_dst = engine.oriented_edges(graph, "symmetric")
        assert sym_src.size == 2 * graph.num_edges
        sym_keys = sym_src * graph.num_vertices + sym_dst
        assert np.all(np.diff(sym_keys) > 0)


class TestEngineSpeed:
    def test_vectorized_faster_on_mid_size_graph(self):
        """Coarse guard: the batched engine beats the Python loop clearly.

        The acceptance-scale benchmark (20k vertices, >=20x) is the
        ``engine`` gate in benchmarks/gates.py; this keeps a cheaper
        signal in the tier-1 suite.
        """
        import time

        graph = generators.barabasi_albert(4000, 8, seed=12)
        config = AcceleratorConfig()
        TCIMAccelerator(config).run(graph)  # warm numpy
        start = time.perf_counter()
        vectorized = TCIMAccelerator(config).run(graph)
        vectorized_s = time.perf_counter() - start
        start = time.perf_counter()
        triangles, _, _ = per_edge_reference(graph, config)
        reference_s = time.perf_counter() - start
        assert vectorized.triangles == triangles
        assert reference_s / vectorized_s > 3.0
