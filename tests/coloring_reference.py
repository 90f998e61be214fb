"""Reference executor of coloring shards, the oracle of their pricing.

Builds what a communication-free color-triple shard physically holds
and runs it: for each triple ``T`` (in ``color_triples`` order), a row
structure of every oriented edge whose color pair ``T`` contains, and
for each witness color ``r`` of ``T`` a column structure of those edges
whose source has color ``r``, both with ``SlicedMatrix.from_nonzeros``.
Each lane's pivot edges — the color pair ``T ∖ {r}`` — then run through
``execute_workload`` under ``run_shard``'s capacity split: one row
region sized to the shard's touched rows, the rest of the array's share
as the column cache, one private cache trace per lane.
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import EventCounts, array_share, split_capacity
from repro.core.engine import oriented_edges
from repro.core.kernels import CountKernel, execute_workload
from repro.core.reuse import CacheStatistics
from repro.core.sharding import (
    ShardResult,
    assign_colors,
    color_triples,
    min_colors,
    num_color_shards,
)
from repro.core.slicing import SlicedMatrix


def execute_coloring(graph, config) -> list[ShardResult]:
    """Every shard of ``config``'s coloring partition, executed."""
    n = graph.num_vertices
    bits = config.slice_bits
    sources, destinations = oriented_edges(graph, "upper")
    num_colors = min_colors(config.num_arrays)
    colors = assign_colors(n, num_colors, config.seed)
    lo = np.minimum(colors[sources], colors[destinations])
    hi = np.maximum(colors[sources], colors[destinations])
    per_array = array_share(config.capacity_slices, num_color_shards(num_colors))
    results = []
    for shard_id, triple in enumerate(color_triples(num_colors)):
        lanes = []
        for witness in sorted(set(triple)):
            rest = list(triple)
            rest.remove(witness)
            lanes.append((witness, (lo == rest[0]) & (hi == rest[1])))
        owned = np.logical_or.reduce([pivots for _, pivots in lanes])
        own_src, own_dst = sources[owned], destinations[owned]
        row = SlicedMatrix.from_nonzeros(own_src, own_dst, n, n, slice_bits=bits)
        touched = np.unique(np.concatenate([sources[p] for _, p in lanes]))
        _, touched_counts = row.row_slice_ranges(touched)
        row_region, column_cache = split_capacity(
            per_array, touched_counts, f"shard {shard_id}"
        )
        events, cache_stats, accumulator = EventCounts(), CacheStatistics(), 0
        for witness, pivots in lanes:
            mask = colors[own_src] == witness
            col = SlicedMatrix.from_nonzeros(
                own_dst[mask], own_src[mask], n, n, slice_bits=bits
            )
            lane_src = sources[pivots]
            outcome = execute_workload(
                CountKernel(), None, row, col, column_cache,
                config.policy, config.seed,
                edges=(lane_src, destinations[pivots]),
                row_writes=int(row.row_slice_ranges(np.unique(lane_src))[1].sum()),
            )
            events = events + EventCounts(**outcome.events)
            cache_stats = cache_stats.merge(outcome.cache_stats)
            accumulator += outcome.accumulator
        results.append(
            ShardResult(
                shard_id=shard_id,
                edges=int(sum(pivots.sum() for _, pivots in lanes)),
                rows=int(touched.size),
                accumulator=accumulator,
                events=events,
                cache_stats=cache_stats,
                row_region_slices=row_region,
                column_cache_slices=column_cache,
            )
        )
    return results
