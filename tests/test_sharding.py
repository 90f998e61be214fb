"""Differential guarantees for sharded multi-array execution.

The contract of :mod:`repro.core.sharding` (the functional model of the
paper's Fig. 4 bank organisation):

* ``num_arrays=1`` is **bit-identical** to the single-array vectorized
  engine — triangles, every :class:`EventCounts` field, cache stats;
* for any ``num_arrays`` and any partitioner the merged triangle count
  is exact, and the additive event counters conserve the single-array
  totals (``edges_processed``, ``and_operations``,
  ``dense_pair_operations``, ``index_lookups``, ``bitcount_operations``);
* each priced position shard equals executing its edges on its own
  array (``shard_reference.run_shard``), field by field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from shard_reference import run_shard
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    array_share,
)
from repro.core.engine import oriented_edges
from repro.core.reuse import CacheStatistics
from repro.core import sharding
from repro.core.sharding import (
    PARTITIONERS,
    POSITION_PARTITIONERS,
    position_shards,
    price_partition,
)
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph

#: Counters that must sum to the single-array totals across any partition
#: of the edge list.  Not conserved: ``row_slice_writes`` (the contiguous
#: edge partitioner can split a row across two arrays, each loading it)
#: and ``col_slice_writes``/``col_slice_hits`` (each shard's private,
#: smaller cache reclassifies hits vs writes).
CONSERVED_FIELDS = (
    "edges_processed",
    "and_operations",
    "dense_pair_operations",
    "index_lookups",
    "bitcount_operations",
)

GRAPHS = {
    "ba": lambda: generators.barabasi_albert(300, 6, seed=1),
    "road": lambda: generators.road_network(15, 15, seed=2),
    "powerlaw": lambda: generators.powerlaw_cluster(200, 5, 0.5, seed=3),
    "empty": lambda: Graph(0),
    "isolated": lambda: Graph(7),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


def run(graph: Graph, **kwargs) -> "TCIMRunResult":  # noqa: F821
    return TCIMAccelerator(AcceleratorConfig(**kwargs)).run(graph)


class TestSingleArrayIdentity:
    """num_arrays=1 must stay bit-identical to the plain engine."""

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_accelerator_path(self, family):
        graph = GRAPHS[family]()
        baseline = run(graph)
        single = run(graph, num_arrays=1)
        assert single.triangles == baseline.triangles
        assert dataclasses.asdict(single.events) == dataclasses.asdict(
            baseline.events
        )
        assert dataclasses.asdict(single.cache_stats) == dataclasses.asdict(
            baseline.cache_stats
        )
        assert single.row_region_slices == baseline.row_region_slices
        assert single.column_cache_slices == baseline.column_cache_slices
        assert single.shards == []

    @pytest.mark.parametrize("shard_by", POSITION_PARTITIONERS)
    def test_orchestrator_with_one_shard(self, shard_by, monkeypatch):
        """The pricer itself, not just the accelerator shortcut; one array
        is one lane over the whole list, so no position array is built."""
        graph = GRAPHS["ba"]()
        config = AcceleratorConfig(shard_by=shard_by)
        baseline = run(graph)
        row_sliced = SlicedMatrix.from_graph(graph, "upper")
        col_sliced = SlicedMatrix.from_graph(graph, "lower")

        def no_positions(*args):
            raise AssertionError("one array partitioned its positions")

        monkeypatch.setattr(sharding, "position_shards", no_positions)
        outcome = price_partition(
            config, row_sliced, col_sliced, oriented_edges(graph, "upper")
        )
        assert outcome.accumulator == baseline.triangles
        assert dataclasses.asdict(outcome.events) == dataclasses.asdict(
            baseline.events
        )
        assert dataclasses.asdict(outcome.cache_stats) == dataclasses.asdict(
            baseline.cache_stats
        )
        (shard,) = outcome.shards
        assert shard.row_region_slices == baseline.row_region_slices
        assert shard.column_cache_slices == baseline.column_cache_slices


class TestShardedExactness:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("shard_by", POSITION_PARTITIONERS)
    @pytest.mark.parametrize("num_arrays", [2, 4, 8])
    def test_triangles_exact_and_events_conserved(
        self, family, shard_by, num_arrays
    ):
        graph = GRAPHS[family]()
        baseline = run(graph)
        sharded = run(graph, num_arrays=num_arrays, shard_by=shard_by)
        assert sharded.triangles == baseline.triangles
        for field in CONSERVED_FIELDS:
            assert getattr(sharded.events, field) == getattr(
                baseline.events, field
            ), field
        assert len(sharded.shards) == num_arrays
        # The merged events equal the field-wise shard sums.
        merged = EventCounts()
        merged_cache = CacheStatistics()
        for shard in sharded.shards:
            merged = merged + shard.events
            merged_cache = merged_cache.merge(shard.cache_stats)
        assert dataclasses.asdict(merged) == dataclasses.asdict(sharded.events)
        assert dataclasses.asdict(merged_cache) == dataclasses.asdict(
            sharded.cache_stats
        )

    @pytest.mark.parametrize("shard_by", ["rows", "degree"])
    def test_whole_row_partitioners_conserve_row_writes(self, shard_by):
        """Row-granular partitioners never duplicate a row's load."""
        graph = GRAPHS["powerlaw"]()
        baseline = run(graph)
        sharded = run(graph, num_arrays=4, shard_by=shard_by)
        assert (
            sharded.events.row_slice_writes == baseline.events.row_slice_writes
        )

    def test_capacity_pressure(self):
        """Exactness holds when the per-array column caches thrash."""
        graph = GRAPHS["powerlaw"]()
        baseline = run(graph, array_bytes=16 * 1024)
        sharded = run(
            graph, array_bytes=16 * 1024, num_arrays=4, shard_by="edges"
        )
        assert sharded.triangles == baseline.triangles
        assert sharded.events.and_operations == baseline.events.and_operations

    def test_random_graphs_property(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(0, 5 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            baseline = run(graph)
            num_arrays = int(rng.choice([2, 3, 4, 8]))
            shard_by = POSITION_PARTITIONERS[trial % len(POSITION_PARTITIONERS)]
            sharded = run(graph, num_arrays=num_arrays, shard_by=shard_by)
            assert sharded.triangles == baseline.triangles
            for field in CONSERVED_FIELDS:
                assert getattr(sharded.events, field) == getattr(
                    baseline.events, field
                )


def _sources(graph: Graph) -> np.ndarray:
    return oriented_edges(graph, "upper")[0]


class TestShardPlans:
    def test_edges_partitioner_is_contiguous(self):
        graph = GRAPHS["ba"]()
        positions = np.concatenate(position_shards(_sources(graph), 4, "edges"))
        assert np.array_equal(positions, np.arange(graph.num_edges))

    def test_rows_partitioner_keeps_rows_together(self):
        sources = _sources(GRAPHS["ba"]())
        for shard_id, positions in enumerate(position_shards(sources, 4, "rows")):
            assert np.all(sources[positions] % 4 == shard_id)

    def test_degree_partitioner_balances_better_than_rows(self):
        """LPT should not be worse-balanced than round-robin on a skewed
        power-law graph (measured by the heaviest shard's edge count)."""
        graph = generators.powerlaw_cluster(400, 8, 0.4, seed=9)
        rows, degree = (
            [s.edges for s in run(graph, num_arrays=8, shard_by=by).shards]
            for by in ("rows", "degree")
        )
        assert max(degree) <= max(rows)

    def test_plan_covers_every_edge_once(self):
        graph = GRAPHS["powerlaw"]()
        for shard_by in PARTITIONERS:
            shards = position_shards(_sources(graph), 5, shard_by)
            assert len(shards) == 5
            positions = np.sort(np.concatenate(shards))
            assert np.array_equal(positions, np.arange(graph.num_edges))

    def test_more_arrays_than_edges(self):
        graph = GRAPHS["single-edge"]()
        sharded = run(graph, num_arrays=8)
        assert sharded.triangles == 0
        assert len(sharded.shards) == 8
        assert sum(s.edges for s in sharded.shards) == 1


class TestValidation:
    def test_bad_num_arrays(self):
        with pytest.raises(ArchitectureError, match="num_arrays"):
            TCIMAccelerator(AcceleratorConfig(num_arrays=0))

    def test_bad_shard_by(self):
        with pytest.raises(ArchitectureError, match="shard_by"):
            TCIMAccelerator(AcceleratorConfig(shard_by="hash"))

    def test_bad_workers(self):
        # Shards run in-process: the retired worker-pool and backing
        # knobs are unknown keys, never silently ignored.
        with pytest.raises(TypeError, match="workers"):
            AcceleratorConfig(workers=2)
        for key, value in (("workers", "2"), ("backing", "shm")):
            with pytest.raises(
                ArchitectureError, match=f"unknown AcceleratorConfig keys \\['{key}'\\]"
            ):
                AcceleratorConfig.from_mapping({key: value})

    def test_plan_validation(self):
        sources = _sources(GRAPHS["ba"]())
        with pytest.raises(ArchitectureError, match="num_arrays"):
            position_shards(sources, 0, "edges")
        with pytest.raises(ArchitectureError, match="shard_by"):
            position_shards(sources, 2, "random")

    def test_array_too_small_to_split(self):
        graph = GRAPHS["ba"]()
        with pytest.raises(ArchitectureError):
            run(graph, array_bytes=1024, num_arrays=64)

    def test_merge_rejects_foreign_type(self):
        with pytest.raises(TypeError):
            EventCounts().merge(object())
        assert EventCounts().__add__(3) is NotImplemented


class TestPricingMatchesExecution:
    """A priced position shard equals executing its edges, field by field."""

    def test_randomized_configs(self):
        rng = np.random.default_rng(31)
        evicted = 0
        for trial in range(24):
            n = int(rng.integers(2, 200))
            graph = Graph(n, rng.integers(0, n, size=(int(rng.integers(0, 8 * n)), 2)))
            slice_bits = int(rng.choice([8, 64, 128]))
            num_arrays = int(rng.choice([2, 4, 16]))
            config = AcceleratorConfig(
                slice_bits=slice_bits,
                array_bytes=int(rng.choice([64, 256, 2**20])) * num_arrays * slice_bits // 8,
                policy=str(rng.choice(["lru", "fifo", "random"])),
                seed=trial,
                num_arrays=num_arrays,
                shard_by=POSITION_PARTITIONERS[trial % 3],
            )
            row = SlicedMatrix.from_graph(graph, "upper", slice_bits=slice_bits)
            col = SlicedMatrix.from_graph(graph, "lower", slice_bits=slice_bits)
            sources, destinations = oriented_edges(graph, "upper")
            shards = position_shards(sources, num_arrays, config.shard_by)
            per_array = array_share(config.capacity_slices, num_arrays)
            expected = [
                run_shard(
                    shard_id, row, col, sources[positions], destinations[positions],
                    per_array, config.policy, config.seed,
                )
                for shard_id, positions in enumerate(shards)
            ]
            outcome = price_partition(config, row, col, (sources, destinations))
            assert [dataclasses.asdict(s) for s in outcome.shards] == [
                dataclasses.asdict(s) for s in expected
            ], trial
            evicted += outcome.cache_stats.exchanges > 0
        assert evicted
