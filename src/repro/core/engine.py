"""Vectorized batch execution engine for the TCIM dataflow.

The per-edge reference loop
(:func:`repro.analysis.validation.per_edge_reference`) walks the oriented
adjacency structure one edge at a time and one slice pair at a time in
pure Python — faithful to Algorithm 1, but minutes-to-hours away from the
paper's Table II graphs (wiki-Talk has ~5M edges, cit-Patents ~16.5M).
This module executes the *same* dataflow in bulk:

1. the oriented edge list is processed in row-batches sized by candidate
   slice-pair count, not one edge at a time;
2. valid slice pairs are merge-joined for a whole batch against one
   side's sorted ``row * slices_per_row + slice_id`` keys — a dense
   position table over every valid slice when the batch's candidates
   amortise it, else a single :func:`np.searchsorted` over the keys of
   only the rows the edge list references; the engine probes whichever
   side (row structure or column structure) fans out fewer candidate
   slices;
3. all matched payloads of the batch are gathered and ANDed at once
   through 64-bit word views of the slice payloads
   (:func:`repro.graph.bitops.word_view`), accumulating triangles with
   one word-level popcount per batch into preallocated scratch buffers;
4. the column-slice access trace is emitted as an integer key array and
   classified by :func:`repro.core.reuse.simulate_key_trace`, whose
   eviction-free prefix is vectorized.

The engine is **bit-identical** to the reference loop: the same triangle
count, the same :class:`EventCounts` field by field, and the same cache
statistics.  The emitted key trace preserves the reference access order —
rows ascending, successors ascending within a row, slice ids ascending
within an edge; slice ids of a matched pair ascend regardless of which
side is probed, so the join direction never changes the trace.  The
differential test-suite in ``tests/test_engine.py`` asserts all of this
across generators, slice widths and capacity-starved caches.

Join plans (:mod:`repro.core.plan`) capture steps 1–2 once per
session generation, and every count run prices from one
(:func:`repro.core.sharding.price_partition`): gather → AND → popcount
over the plan's matched position arrays, with no candidate expansion
or merge-join — the repeat-query path the serving tier leans on.  The
plan-free executor, :func:`repro.core.kernels.execute_workload`, drives
all four steps for an ad-hoc edge list on one simulated array: a
delta-join term or a probe batch.  Both are bit-identical (same
accumulator, events, and cache statistics); ``tests/test_plan.py``
holds the differential suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.slicing import SlicedMatrix, expand_runs
from repro.errors import ArchitectureError
from repro.graph import bitops
from repro.graph.graph import Graph

__all__ = [
    "conjunctions",
    "join_batches",
    "pair_popcount",
    "pair_popcounts",
    "oriented_edges",
    "DEFAULT_BATCH_CANDIDATES",
]

#: Candidate slice pairs examined per batch.  Bounds peak memory of the
#: expanded join arrays (several int64 temporaries per candidate, so a few
#: hundred MB worst case) while amortising every numpy call.
DEFAULT_BATCH_CANDIDATES = 1 << 21

#: Largest ``num_rows * slices_per_row`` key space for which the join uses
#: a dense position table (one int32 per slice position, 64 MB at the
#: cap) instead of per-candidate binary search.  O(1) probes beat
#: ``searchsorted``'s log factor by ~10x where the table fits.
DENSE_LOOKUP_MAX_KEYS = 1 << 24

#: Payload lanes (words or bytes) ANDed per conjunction chunk; bounds the
#: scratch buffers of :func:`conjunctions` to a few tens of MB.
CONJUNCTION_CHUNK_LANES = 1 << 21


def oriented_edges(graph: Graph, orientation: str) -> tuple[np.ndarray, np.ndarray]:
    """``(sources, destinations)`` of the oriented matrix, in the reference
    iteration order (rows ascending, successors ascending within a row).

    ``"upper"`` yields each undirected edge once as ``u -> v`` with
    ``u < v``; ``"symmetric"`` yields both directions.
    """
    if orientation not in ("upper", "symmetric"):
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    if orientation == "upper":
        edges = graph.edge_array()
        return edges[:, 0], edges[:, 1]
    indptr, indices = graph.csr
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr)
    )
    return sources, indices


class _Workspace:
    """Reusable gather/AND/popcount buffers for one engine invocation.

    :func:`conjunctions` chunks its position arrays and re-gathers into
    these buffers with ``np.take(..., out=...)`` instead of allocating
    fresh temporaries per chunk — at millions of matched pairs per query
    the allocator traffic is a measurable slice of a planned run.
    """

    __slots__ = ("left", "right", "counts")

    def __init__(self) -> None:
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.counts: np.ndarray | None = None

    def buffers(
        self, rows: int, lanes: int, dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        left = self.left
        if (
            left is None
            or left.shape[0] < rows
            or left.shape[1] != lanes
            or left.dtype != dtype
        ):
            self.left = np.empty((rows, lanes), dtype=dtype)
            self.right = np.empty((rows, lanes), dtype=dtype)
            self.counts = np.empty((rows, lanes), dtype=np.uint8)
        return self.left, self.right, self.counts


def conjunctions(
    row_data: np.ndarray,
    col_data: np.ndarray,
    row_positions: np.ndarray,
    col_positions: np.ndarray,
    workspace: _Workspace | None = None,
    diagonal: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Chunked gather → AND over matched slice-pair positions.

    Yields ``(start, anded, counts)`` per chunk: ``anded[i]`` is
    ``row_data[r] & col_data[c]`` for pair ``start + i``, and ``counts``
    is a same-shape uint8 scratch block for its popcounts.  ``diagonal``
    is a plan's ``(pairs, masks)`` (:attr:`repro.core.plan.JoinPlan.diagonal`):
    each listed pair's AND is further ANDed with its mask — the one place
    a window's diagonal slice is cut to its side.  Payloads are
    processed as 64-bit words (:func:`repro.graph.bitops.word_view`)
    whenever the slice width is a multiple of 64 bits — 8x fewer lanes
    than per-byte work — and per-byte otherwise; ``anded.view(np.uint8)``
    recovers the payload byte layout either way.  Both blocks are
    workspace buffers reused by the next chunk, and the chunk size bounds
    them to a few tens of MB however many pairs there are.
    """
    total_pairs = int(row_positions.size)
    if total_pairs == 0:
        return
    wide_row = bitops.word_view(row_data)
    wide_col = bitops.word_view(col_data)
    if wide_row is not None and wide_col is not None:
        row_data, col_data = wide_row, wide_col
    lanes = row_data.shape[1]
    if lanes == 0:
        return
    if diagonal is not None:
        diagonal_pairs, masks = diagonal
        masks = np.ascontiguousarray(masks).view(row_data.dtype)
    if workspace is None:
        workspace = _Workspace()
    chunk_rows = max(1, CONJUNCTION_CHUNK_LANES // lanes)
    left, right, counts = workspace.buffers(
        min(chunk_rows, total_pairs), lanes, row_data.dtype
    )
    for start in range(0, total_pairs, chunk_rows):
        stop = min(start + chunk_rows, total_pairs)
        n = stop - start
        a = left[:n]
        b = right[:n]
        np.take(row_data, row_positions[start:stop], axis=0, out=a)
        np.take(col_data, col_positions[start:stop], axis=0, out=b)
        np.bitwise_and(a, b, out=a)
        if diagonal is not None:
            lo, hi = np.searchsorted(diagonal_pairs, (start, stop))
            if hi > lo:
                # Flat lane indices: a 2-D row scatter is ~2x slower.
                hit = (diagonal_pairs[lo:hi] - start)[:, None] * lanes + np.arange(lanes)
                a.reshape(-1)[hit.reshape(-1)] &= masks[lo:hi].reshape(-1)
        yield start, a, counts[:n]


def pair_popcount(
    row_data: np.ndarray,
    col_data: np.ndarray,
    row_positions: np.ndarray,
    col_positions: np.ndarray,
    workspace: _Workspace | None = None,
    diagonal: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Gather → AND → popcount over matched slice-pair positions.

    The computational-array step of the dataflow for an arbitrary list
    of matched pairs: ``sum(popcount(row_data[r] & col_data[c]))`` over
    ``zip(row_positions, col_positions)``, one chunk of
    :func:`conjunctions` at a time (``diagonal`` as there).
    """
    accumulator = 0
    for _, anded, counts in conjunctions(
        row_data, col_data, row_positions, col_positions, workspace, diagonal
    ):
        np.bitwise_count(anded, out=counts)
        accumulator += int(counts.sum())
    return accumulator


def pair_popcounts(
    row_data: np.ndarray,
    col_data: np.ndarray,
    row_positions: np.ndarray,
    col_positions: np.ndarray,
    workspace: _Workspace | None = None,
    diagonal: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-pair gather → AND → popcount: one int64 count per matched pair.

    The vector-valued sibling of :func:`pair_popcount`: instead of
    accumulating one scalar over the whole position list, it returns
    ``popcount(row_data[r] & col_data[c])`` for every pair — the quantity
    a per-edge run of :func:`repro.core.kernels.execute_workload` and the
    pricing of scattered shards reduce over edge runs.  Summing the
    result equals :func:`pair_popcount` exactly; both walk the same
    chunked :func:`conjunctions`.
    """
    result = np.zeros(int(row_positions.size), dtype=np.int64)
    for start, anded, counts in conjunctions(
        row_data, col_data, row_positions, col_positions, workspace, diagonal
    ):
        np.bitwise_count(anded, out=counts)
        counts.sum(axis=1, dtype=np.int64, out=result[start: start + counts.shape[0]])
    return result


def join_batches(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int = DEFAULT_BATCH_CANDIDATES,
    with_edge_ids: bool = False,
):
    """Merge-join the valid slice pairs of an oriented edge list, batched.

    Yields ``(row_positions, col_positions, edge_ids, trace_keys)`` per
    batch: positions of each matched pair in ``row_sliced.data`` /
    ``col_sliced.data``, in the reference iteration order (edges in input
    order, slice ids ascending within an edge), and each match's
    column-structure key ``destination * slices_per_row + slice_id`` —
    the column cache's access trace, which every caller consumes.
    ``edge_ids`` (the index into ``sources`` of each match's edge) is
    only materialised when ``with_edge_ids`` — the plan compiler needs
    it, the executor does not.

    The build side is keyed one of two ways.  When the candidates reach
    ``key_space // 16`` (full runs and plan compiles), a dense position
    table over every valid slice; otherwise the sorted keys of only the
    build rows the edge list references, so a small join (a delta join,
    a pair probe, a plan patch's re-join) never builds a whole-structure
    key array.

    This is the shared join of the plan-free executor and the
    :mod:`repro.core.plan` compiler; keeping it in one place is what
    makes a planned run structurally incapable of joining differently
    from the plan-free one.
    """
    if batch_candidates < 1:
        batch_candidates = 1
    num_edges = int(sources.size)
    slices_per_row = row_sliced.slices_per_row
    row_starts, row_counts = row_sliced.row_slice_ranges(sources)
    col_starts, col_counts = col_sliced.row_slice_ranges(destinations)
    # A valid pair needs both sides valid, so either side can be probed
    # against the other's sorted keys; probe the one that expands into
    # fewer candidates.  The matched slice ids — and with them the cache
    # trace order — are identical either way.
    probe_rows = int(row_counts.sum()) <= int(col_counts.sum())
    if probe_rows:
        probe_starts, probe_counts = row_starts, row_counts
        probe_ids, probe_owner = row_sliced.slice_ids, destinations
        build = col_sliced
    else:
        probe_starts, probe_counts = col_starts, col_counts
        probe_ids, probe_owner = col_sliced.slice_ids, sources
        build = row_sliced
    # Keys fit int32 whenever the slice-position space does; the narrower
    # dtype halves the memory the batch binary searches touch.
    key_space = max(row_sliced.num_rows, col_sliced.num_rows) * slices_per_row
    key_dtype = np.int32 if key_space <= np.iinfo(np.int32).max else np.int64
    spr_key = key_dtype(slices_per_row)
    position_table = None
    # The dense table costs one O(key_space) fill up front; only pay it
    # when the probe volume amortises it.
    total_candidates = int(probe_counts.sum())
    dense_space = build.num_rows * slices_per_row
    if 0 < dense_space <= DENSE_LOOKUP_MAX_KEYS and total_candidates >= dense_space // 16:
        build_keys, build_positions = _referenced_keys(build, None, key_dtype)
        position_table = np.full(dense_space, -1, dtype=np.int32)
        position_table[build_keys] = build_positions
    else:
        build_keys, build_positions = _referenced_keys(build, probe_owner, key_dtype)
    bounds = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(probe_counts, out=bounds[1:])
    start = 0
    while start < num_edges:
        stop = int(
            np.searchsorted(bounds, bounds[start] + batch_candidates, side="right")
        ) - 1
        stop = min(max(stop, start + 1), num_edges)
        total = int(bounds[stop] - bounds[start])
        if total == 0:
            start = stop
            continue
        # Expand the batch: one entry per (edge, probe slice) candidate.
        # Candidate t of edge e sits at probe position start_e + offset_t;
        # a single repeat of the per-edge delta turns the flat arange into
        # all probe positions at once.
        counts = probe_counts[start:stop]
        delta = probe_starts[start:stop] - (bounds[start:stop] - bounds[start])
        probe_positions = np.arange(total, dtype=np.int64) + np.repeat(delta, counts)
        slice_ids = probe_ids[probe_positions].astype(key_dtype, copy=False)
        owners = np.repeat(
            probe_owner[start:stop].astype(key_dtype, copy=False), counts
        )
        targets = owners * spr_key + slice_ids
        if position_table is not None:
            found = position_table[targets]
            matched = found >= 0
        elif build_keys.size:
            found = np.searchsorted(build_keys, targets)
            np.minimum(found, build_keys.size - 1, out=found)
            matched = build_keys[found] == targets
        else:
            matched = np.zeros(total, dtype=bool)
        if matched.any():
            probe_hit = probe_positions[matched]
            key_hit = found[matched]
            build_hit = key_hit if position_table is not None else build_positions[key_hit]
            match_edges = None
            if with_edge_ids or not probe_rows:
                match_edges = np.repeat(
                    np.arange(start, stop, dtype=np.int64), counts
                )[matched]
            # Gathers over the matches only, never a pass over the candidates.
            if probe_rows:
                trace_keys = targets[matched]  # the build side is the column
            else:
                trace_keys = destinations[match_edges] * slices_per_row + probe_ids[probe_hit]
            edge_ids = match_edges if with_edge_ids else None
            if probe_rows:
                yield probe_hit, build_hit, edge_ids, trace_keys
            else:
                yield build_hit, probe_hit, edge_ids, trace_keys
        start = stop


def _referenced_keys(build, rows, key_dtype) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys of the valid slices of the build rows ``rows`` names
    (every row when ``None``), and the payload position of each key."""
    if rows is None:
        if isinstance(build, SlicedMatrix):
            keys = build.global_keys().astype(key_dtype, copy=False)
            return keys, build.valid_positions()
        rows = np.arange(build.num_rows, dtype=np.int64)
    # A sort for a few rows, one pass over a row mask for many.
    elif rows.size * 8 < build.num_rows:
        rows = np.unique(rows)
    else:
        referenced = np.zeros(build.num_rows, dtype=bool)
        referenced[rows] = True
        rows = np.flatnonzero(referenced)
    starts, counts = build.row_slice_ranges(rows)
    positions = expand_runs(starts, counts)
    keys = np.repeat(rows.astype(key_dtype), counts) * key_dtype(
        build.slices_per_row
    ) + build.slice_ids[positions].astype(key_dtype, copy=False)
    return keys, positions
