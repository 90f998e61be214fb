"""Cross-implementation validation.

Runs every triangle-counting implementation in the repository on the same
graph and checks that they all agree — the functional-correctness gate for
the whole reproduction.  :func:`per_edge_reference` is the event-level
oracle: the paper's Algorithm 1 as a plain per-edge loop, against which
the batched engine must match every event counter and cache statistic.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.baselines.intersection import (
    triangle_count_edge_iterator,
    triangle_count_forward,
    triangle_count_node_iterator,
)
from repro.baselines.matmul import triangle_count_matmul, triangle_count_trace
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    split_capacity,
)
from repro.core.bitwise import triangle_count_dense, triangle_count_sliced
from repro.core.reuse import CacheStatistics, SliceCache
from repro.core.slicing import SlicedMatrix, valid_pair_positions
from repro.errors import ValidationError
from repro.graph.graph import Graph

__all__ = [
    "default_implementations",
    "per_edge_reference",
    "validate_implementations",
]


def per_edge_reference(
    graph: Graph, config: AcceleratorConfig | None = None
) -> tuple[int, EventCounts, CacheStatistics]:
    """Single-array Algorithm 1 as a per-edge Python loop.

    The differential-testing oracle of :class:`TCIMAccelerator`: for the
    same ``config`` (``num_arrays`` is ignored — the loop is one array)
    it must return the same triangle count, every :class:`EventCounts`
    field, and the same cache statistics as the batched engine.
    """
    config = config or AcceleratorConfig()
    row_sliced = SlicedMatrix.from_graph(graph, "upper", slice_bits=config.slice_bits)
    col_sliced = SlicedMatrix.from_graph(graph, "lower", slice_bits=config.slice_bits)
    _, column_capacity = split_capacity(
        config.capacity_slices, row_sliced.row_valid_counts()
    )
    cache = SliceCache(column_capacity, policy=config.policy, seed=config.seed)
    events = EventCounts()
    accumulator = 0
    slices_per_row = row_sliced.slices_per_row
    indptr, indices = graph.csr
    for row in range(graph.num_vertices):
        neighbours = indices[indptr[row]: indptr[row + 1]]
        successors = neighbours[neighbours > row]
        if successors.size == 0:
            continue
        row_ids, row_data = row_sliced.row_slices(row)
        # The row is loaded once and overwrites the previous row
        # (Section IV-A), so each valid row slice costs one WRITE.
        events.row_slice_writes += int(row_ids.size)
        events.edges_processed += int(successors.size)
        events.dense_pair_operations += int(successors.size) * slices_per_row
        for column in successors.tolist():
            events.index_lookups += 1
            col_ids, col_data = col_sliced.row_slices(column)
            if col_ids.size == 0 or row_ids.size == 0:
                continue
            row_pos, col_pos = valid_pair_positions(row_ids, col_ids)
            if row_pos.size == 0:
                continue
            for matched in col_pos.tolist():
                cache.access((column, int(col_ids[matched])))
            conj = row_data[row_pos] & col_data[col_pos]
            accumulator += int(np.bitwise_count(conj).sum())
            events.and_operations += int(row_pos.size)
            events.bitcount_operations += int(row_pos.size)
    events.col_slice_writes = cache.stats.writes
    events.col_slice_hits = cache.stats.hits
    return accumulator, events, cache.stats


def default_implementations(
    include_dense: bool = True, include_accelerator: bool = True
) -> dict[str, Callable[[Graph], int]]:
    """The standard battery of implementations keyed by name."""
    implementations: dict[str, Callable[[Graph], int]] = {
        "bitwise-sliced": triangle_count_sliced,
        "edge-iterator": triangle_count_edge_iterator,
        "node-iterator": triangle_count_node_iterator,
        "forward": triangle_count_forward,
        "matmul": triangle_count_matmul,
        "trace": triangle_count_trace,
    }
    if include_dense:
        implementations["bitwise-dense"] = triangle_count_dense
    if include_accelerator:
        implementations["tcim-accelerator"] = lambda g: TCIMAccelerator().run(g).triangles
    return implementations


def validate_implementations(
    graph: Graph,
    implementations: dict[str, Callable[[Graph], int]] | None = None,
) -> dict[str, int]:
    """Run all implementations and raise :class:`ValidationError` on any
    disagreement; returns the per-implementation counts on success."""
    if implementations is None:
        implementations = default_implementations(
            include_dense=graph.num_vertices <= 5000
        )
    results = {name: fn(graph) for name, fn in implementations.items()}
    distinct = set(results.values())
    if len(distinct) > 1:
        details = ", ".join(f"{name}={count}" for name, count in sorted(results.items()))
        raise ValidationError(f"triangle-count mismatch: {details}")
    return results
