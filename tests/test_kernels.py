"""Tests for the executor (:func:`repro.core.kernels.execute_workload`).

One dataflow with two reductions: a count run keeps only the scalar
accumulator, a ``per_edge`` run also reduces each edge's popcounts,
value-identical to the pure-Python oracles; and every path — the
plan-free join, pricing from a count plan
(:func:`repro.core.sharding.price_partition`), edge subsets — produces
the same values, events, and cache statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.truss import edge_support
from repro.core import engine
from repro.core.accelerator import AcceleratorConfig
from repro.core.kernels import execute_workload
from repro.core.plan import build_join_plan
from repro.core.sharding import _plan_edge_sums, price_partition
from repro.core.slicing import SlicedMatrix, SliceWindow
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph


def _sym_setup(graph):
    sym = SlicedMatrix.from_graph(graph, "symmetric")
    sources, destinations = engine.oriented_edges(graph, "symmetric")
    return sym, sources, destinations


def _run(graph, capacity=1 << 16, per_edge=True):
    sym, sources, destinations = _sym_setup(graph)
    return execute_workload(
        sym, sym, sources, destinations, capacity, "lru", 0, per_edge=per_edge
    )


class TestPairPopcounts:
    def test_sums_to_pair_popcount(self, random_graphs):
        for graph in random_graphs:
            sym, sources, destinations = _sym_setup(graph)
            plan = build_join_plan(sym, sym, sources, destinations)
            vector = engine.pair_popcounts(
                sym.data, sym.data, plan.row_positions, plan.col_positions
            )
            scalar = engine.pair_popcount(
                sym.data, sym.data, plan.row_positions, plan.col_positions
            )
            assert vector.dtype == np.int64
            assert int(vector.sum()) == scalar

    def test_empty_positions(self):
        empty = np.empty(0, dtype=np.int64)
        data = np.zeros((4, 1), dtype=np.uint64)
        result = engine.pair_popcounts(data, data, empty, empty)
        assert result.size == 0 and result.dtype == np.int64


class TestCountKernel:
    def test_matches_execute_batched(self, random_graphs):
        # A count run is the per-edge run minus the per-edge sums, over
        # the upper and lower structures as over the symmetric one.
        for graph in random_graphs:
            row = SlicedMatrix.from_graph(graph, "upper")
            col = SlicedMatrix.from_graph(graph, "lower")
            edges = engine.oriented_edges(graph, "upper")
            count, support = (
                execute_workload(row, col, *edges, 1 << 16, "lru", 0, per_edge=flag)
                for flag in (False, True)
            )
            assert count.accumulator == support.accumulator
            assert count.accumulator == int(support.per_edge.sum())
            assert count.events == support.events
            assert count.cache_stats == support.cache_stats
            symmetric = _run(graph, per_edge=False)
            assert symmetric.accumulator == 6 * count.accumulator

    def test_no_per_edge_materialised(self, paper_graph):
        result = _run(paper_graph, per_edge=False)
        assert result.per_edge is None
        assert isinstance(result.accumulator, int)


class TestEdgeSupportKernel:
    def test_matches_oracle(self, random_graphs):
        for graph in random_graphs:
            result = _run(graph)
            sources, destinations = engine.oriented_edges(graph, "symmetric")
            oracle = edge_support(graph)
            for u, v, got in zip(
                sources.tolist(), destinations.tolist(), result.per_edge.tolist()
            ):
                assert got == oracle[(min(u, v), max(u, v))]

    def test_accumulator_is_six_times_triangles(self, k5):
        result = _run(k5)
        assert result.accumulator == 6 * 10
        assert int(result.per_edge.sum()) == result.accumulator

    def test_planned_matches_batched(self, random_graphs):
        # One array priced from the plan, and the plan's per-edge sums
        # (what scattered shards reduce), equal the plan-free join under
        # the same capacity split.
        for graph in random_graphs:
            sym, sources, destinations = _sym_setup(graph)
            plan = build_join_plan(sym, sym, sources, destinations)
            priced = price_partition(
                AcceleratorConfig(), sym, sym, (sources, destinations), plan
            )
            (shard,) = priced.shards
            free = _run(graph, capacity=shard.column_cache_slices)
            assert np.array_equal(free.per_edge, _plan_edge_sums(sym, sym, plan))
            assert free.accumulator == priced.accumulator
            assert free.events == priced.events
            assert free.cache_stats == priced.cache_stats

    def test_zero_pair_edges(self):
        # A path graph: no triangles, every edge's pair run reduces to 0 —
        # the case np.add.reduceat would mis-handle in the plan's sums.
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sym, sources, destinations = _sym_setup(graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        sums = _plan_edge_sums(sym, sym, plan)
        assert np.array_equal(sums, np.zeros(sources.size, dtype=np.int64))

    def test_edge_subset_matches_full(self, k5):
        # A shard-style subset run agrees positionally with the full run.
        sym, sources, destinations = _sym_setup(k5)
        positions = np.arange(0, sources.size, 2)
        full = _run(k5)
        subset = execute_workload(
            sym, sym, sources[positions], destinations[positions], 1 << 16,
            "lru", 0, per_edge=True,
        )
        assert np.array_equal(subset.per_edge, full.per_edge[positions])


class TestValidation:
    def test_graph_run_reads_the_upper_edge_list(self, paper_graph):
        # Over the upper-triangular edge list a per-edge run gives one
        # value per edge, summing to the triangle count.
        row = SlicedMatrix.from_graph(paper_graph, "upper")
        col = SlicedMatrix.from_graph(paper_graph, "lower")
        result = execute_workload(
            row, col, *engine.oriented_edges(paper_graph, "upper"), 8, "lru", 0,
            per_edge=True,
        )
        assert result.per_edge.size == paper_graph.num_edges
        assert result.per_edge.sum() == result.accumulator == 2

    def test_plan_edge_count_mismatch(self, paper_graph):
        sym, sources, destinations = _sym_setup(paper_graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        with pytest.raises(ArchitectureError, match="compile a plan"):
            price_partition(
                AcceleratorConfig(), sym, sym, (sources[:2], destinations[:2]), plan
            )

    def test_window_side_rejected(self, paper_graph):
        # A window's diagonal slices carry the other side's bits, which
        # only a count plan masks: the plan-free join refuses windows.
        sym = SlicedMatrix.from_graph(paper_graph, "symmetric")
        upper, lower = SliceWindow.pair(sym)
        edges = engine.oriented_edges(paper_graph, "upper")
        for row, col in ((upper, lower), (upper, sym), (sym, lower)):
            with pytest.raises(ArchitectureError, match="SliceWindow"):
                execute_workload(row, col, *edges, 8, "lru", 0)

    def test_stale_plan_rejected(self):
        from repro.core import incremental

        graph = generators.barabasi_albert(200, 4, seed=9)
        sym, sources, destinations = _sym_setup(graph)
        plan = build_join_plan(sym, sym, sources, destinations)
        # Force a structural insert: a bit in a column block row 0 does
        # not yet cover, so the slice directory shifts under the plan.
        covered = set(sym.row_slices(0)[0].tolist())
        block = next(k for k in range(sym.slices_per_row) if k not in covered)
        delta = incremental.set_bit(sym, 0, block * 64)
        assert delta.changed
        with pytest.raises(ArchitectureError, match="stale join plan"):
            price_partition(
                AcceleratorConfig(), sym, sym, (sources, destinations), plan
            )
