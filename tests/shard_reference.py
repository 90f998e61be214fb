"""Reference executors of multi-array shards, the oracles of their pricing.

:func:`repro.core.sharding.price_partition` prices every shard from the
count plan instead of executing it.  These functions build what each
simulated array physically holds and run it through
``execute_workload``, so the tests can compare the two field by field.

* :func:`run_shard` runs one position shard's edge list on its private
  array: a row region sized to the largest valid-slice count of the rows
  it touches, the rest of the array's share as the column cache, and
  row-slice WRITEs for the touched rows only.
* :func:`execute_coloring` runs every communication-free color-triple
  shard: for each triple ``T`` (in ``color_triples`` order), a row
  structure of every oriented edge whose color pair ``T`` contains, and
  for each witness color ``r`` of ``T`` a column structure of those
  edges whose source has color ``r``, both with
  ``SlicedMatrix.from_nonzeros``.  Each lane's pivot edges — the color
  pair ``T ∖ {r}`` — then run under :func:`run_shard`'s capacity split
  over the whole shard's touched rows, one private cache trace per lane.
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import EventCounts, array_share, split_capacity
from repro.core.engine import oriented_edges
from repro.core.kernels import execute_workload
from repro.core.reuse import CacheStatistics
from repro.core.sharding import (
    ShardResult,
    assign_colors,
    color_triples,
    min_colors,
    num_color_shards,
)
from repro.core.slicing import SlicedMatrix


def run_shard(
    shard_id: int,
    row_sliced,
    col_sliced,
    sources: np.ndarray,
    destinations: np.ndarray,
    per_array_capacity: int,
    policy,
    seed: int,
) -> ShardResult:
    """Execute one shard's edge list (reference order) on its own array."""
    touched = np.unique(sources)
    _, touched_counts = row_sliced.row_slice_ranges(touched)
    row_region, column_capacity = split_capacity(
        per_array_capacity, touched_counts, f"shard {shard_id}"
    )
    outcome = execute_workload(
        row_sliced, col_sliced, sources, destinations, column_capacity,
        policy, seed, row_writes=int(touched_counts.sum()),
    )
    return ShardResult(
        shard_id=shard_id,
        edges=int(sources.size),
        rows=int(touched.size),
        accumulator=outcome.accumulator,
        events=outcome.events,
        cache_stats=outcome.cache_stats,
        row_region_slices=row_region,
        column_cache_slices=column_capacity,
    )


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
            outcome = execute_workload(
                row, col, sources[pivots], destinations[pivots], column_cache,
                config.policy, config.seed,
            )
            events = events + outcome.events
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
