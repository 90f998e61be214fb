"""Incremental (streaming) updates on the vectorized fast path.

:class:`repro.core.dynamic.DynamicTriangleCounter` maintains the count
under edge insertions/deletions with pure-Python set intersections —
exact, but untouched by the ~29x batched engine.  This module routes a
*batch* of updates through the executor itself
(:func:`repro.core.kernels.execute_workload`), as a delta re-join of
only the affected rows' slice pairs.

Mathematical core
-----------------
Let ``A`` be the symmetric adjacency matrix of the base graph and ``D``
the (symmetric, disjoint) adjacency matrix of the batch of new edges.
The triangles gained by ``A -> A + D`` split by how many delta edges
each new triangle uses:

* **1 delta edge** — for each delta edge ``{u, v}``, the common
  neighbours of ``u`` and ``v`` in ``A``: a join of two ``A`` rows;
* **2 delta edges** — ``tr(DAD) / 2``: for each *directed* delta edge
  ``(u, v)``, a join of ``A``'s row ``u`` against ``D``'s row ``v``;
* **3 delta edges** — ``tr(D^3) / 6``: for each delta edge ``{u, v}``,
  a join of two ``D`` rows (each all-new triangle is seen three times).

Every term is exactly the dataflow :func:`execute_workload` runs —
ANDing valid slice pairs of a "row" structure against a "column"
structure over an edge list and popcounting — so each term runs on the
vectorized engine with its own event accounting, touching only the rows
the batch references.  Deletions are the time-reversed picture: remove
the edges first, then the same three terms on the *post-deletion* graph
count the destroyed triangles.

Sharding
--------
Each term's edge list is partitioned with
:func:`repro.core.sharding.position_shards` across ``config.num_arrays``
simulated arrays (same partitioners, same per-array capacity split as a
full sharded run; ``"coloring"`` falls back to degree-LPT).  Each shard
is one :func:`execute_workload` call on its own array: a row region
sized to the rows it touches, the rest of the array's share as its
column cache, and its own cache trace.  The per-shard
:class:`EventCounts` merge with :meth:`EventCounts.merge`.  With
``num_arrays=1`` each term is one call over its whole edge list.

The differential oracle remains :class:`DynamicTriangleCounter`; the
randomized op-stream suite in ``tests/test_api.py`` checks this module
against it op by op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    array_share,
    split_capacity,
)
from repro.core.reuse import CacheStatistics
from repro.core.sharding import position_shards
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError, GraphError

__all__ = [
    "DeltaOutcome",
    "StructureDelta",
    "canonical_delta_edges",
    "compose_deltas",
    "delta_sliced",
    "set_bit",
    "set_bits",
    "clear_bit",
    "clear_bits",
    "test_bits",
    "symmetric_delta",
]


@dataclass
class DeltaOutcome:
    """Result of one incremental batch join.

    ``triangles`` is the number of triangles the batch creates (for
    insertions) or destroys (for deletions) — always non-negative; the
    caller applies the sign.  ``events`` and ``cache_stats`` account the
    engine work of all three terms, merged across shards.
    """

    triangles: int
    events: EventCounts = field(default_factory=EventCounts)
    cache_stats: CacheStatistics = field(default_factory=CacheStatistics)


# ----------------------------------------------------------------------
# Delta edge handling
# ----------------------------------------------------------------------
def canonical_delta_edges(edges, num_vertices: int) -> np.ndarray:
    """Normalise a batch of undirected edges into canonical delta form.

    Returns an ``(k, 2)`` int64 array with ``u < v`` per row, self-loops
    dropped, duplicates merged, sorted lexicographically (the iteration
    order :func:`execute_workload` expects).  Raises
    :class:`~repro.errors.GraphError` on out-of-range endpoints.
    """
    array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    array = array.astype(np.int64, copy=False).reshape(-1, 2)
    low, high = int(array.min()), int(array.max())
    if low < 0 or high >= num_vertices:
        raise GraphError(
            f"edge endpoint out of range [0, {num_vertices}): "
            f"saw vertex {low if low < 0 else high}"
        )
    u = np.minimum(array[:, 0], array[:, 1])
    v = np.maximum(array[:, 0], array[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(u * np.int64(num_vertices) + v)
    out = np.empty((keys.size, 2), dtype=np.int64)
    out[:, 0] = keys // num_vertices
    out[:, 1] = keys % num_vertices
    return out


def delta_sliced(
    delta_edges: np.ndarray, num_vertices: int, slice_bits: int
) -> SlicedMatrix:
    """Symmetric :class:`SlicedMatrix` of a canonical delta edge batch."""
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    return SlicedMatrix.from_nonzeros(
        np.concatenate([u, v]),
        np.concatenate([v, u]),
        num_vertices,
        num_vertices,
        slice_bits=slice_bits,
    )


# ----------------------------------------------------------------------
# In-place bit maintenance of a symmetric SlicedMatrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StructureDelta:
    """Structural change report of one :func:`set_bits`/:func:`clear_bits`.

    Describes exactly how the valid-slice arrays moved, in the compact
    coordinates (positions among the live slices, spare rows never
    counted) a position-holding artifact — a resident
    :class:`~repro.core.plan.JoinPlan` — needs to renumber itself:

    ``inserted_before``
        Sorted insertion points in *pre-insert* coordinates — the
        ``obj`` argument :func:`np.insert` would take (duplicates mark
        several new slices landing at one point).  A pre-mutation
        position ``p`` now lives at
        ``p + searchsorted(inserted_before, p, side="right")``.
    ``removed_at``
        Sorted removed positions in *pre-delete* coordinates; a
        surviving position ``p`` now lives at
        ``p - searchsorted(removed_at, p)``.
    ``inserted_rows`` / ``removed_rows``
        Owning row of each inserted/removed slice (aligned with the
        position arrays) — the rows whose valid-slice *set* changed,
        i.e. whose join pairs must be recomputed.

    One call only ever inserts (``set_bits``) or removes
    (``clear_bits``), never both; :func:`compose_deltas` folds a sequence
    into one delta that removes, then inserts.  :attr:`changed` is
    ``False`` for a payload-only mutation, whose positions all stay
    valid.

    :func:`repro.core.plan.merge_oriented_edges` reports the splice of
    an oriented edge list the same way: positions are edge indices and
    the rows are the spliced edges' sources.
    """

    inserted_before: np.ndarray
    inserted_rows: np.ndarray
    removed_at: np.ndarray
    removed_rows: np.ndarray

    @property
    def changed(self) -> bool:
        return bool(self.inserted_before.size or self.removed_at.size)

    @classmethod
    def unchanged(cls) -> "StructureDelta":
        empty = np.empty(0, dtype=np.int64)
        return cls(empty, empty, empty, empty)


def compose_deltas(size: int, deltas) -> StructureDelta:
    """One :class:`StructureDelta` equal to applying ``deltas`` in order
    to ``size`` positions.

    The result removes first (``removed_at`` in the original
    coordinates) and then inserts (``inserted_before`` in the
    coordinates left after the removals), which is how
    :func:`repro.core.plan.patch_join_plan` reads a delta that holds
    both.  A position inserted by one delta and removed by a later one
    appears in neither list.  A session composes the batches of one
    ``apply()`` call (its delete and insert batches, or ``record=True``'s
    per-op batches): the next call drops what no read folded.
    """
    deltas = list(deltas)
    if len(deltas) == 1:
        return deltas[0]
    origin = np.arange(size, dtype=np.int64)
    owners = np.full(size, -1, dtype=np.int64)
    removed: list[np.ndarray] = []
    removed_rows: list[np.ndarray] = []
    for delta in deltas:
        if delta.inserted_before.size:
            origin = np.insert(origin, delta.inserted_before, -1)
            owners = np.insert(owners, delta.inserted_before, delta.inserted_rows)
        if delta.removed_at.size:
            gone = origin[delta.removed_at]
            kept = gone >= 0
            removed.append(gone[kept])
            removed_rows.append(delta.removed_rows[kept])
            origin = np.delete(origin, delta.removed_at)
            owners = np.delete(owners, delta.removed_at)
    fresh = np.flatnonzero(origin < 0)
    removed_at = np.concatenate([np.empty(0, dtype=np.int64), *removed])
    order = np.argsort(removed_at, kind="stable")
    return StructureDelta(
        inserted_before=fresh - np.arange(fresh.size),
        inserted_rows=owners[fresh],
        removed_at=removed_at[order],
        removed_rows=np.concatenate([np.empty(0, dtype=np.int64), *removed_rows])[order],
    )


def set_bits(
    sliced: SlicedMatrix, rows: np.ndarray, cols: np.ndarray, store=None
) -> StructureDelta:
    """Set many bits at once, inserting new valid slices as needed.

    One splice covers every structural change of the batch: the stored
    slices shift right in place inside the structure's spare rows
    (:meth:`SlicedMatrix.insert_slices`), so a k-bit update moves
    ``O(N_VS)`` bytes once instead of the ``O(k * N_VS)`` a per-bit loop
    would pay, and allocates nothing while the room lasts.  Keeps the
    CSR-of-slices invariants (ascending slice ids per row, no invalid
    slices stored), so a mutated matrix is indistinguishable from one
    rebuilt from scratch — the property the equivalence tests rely on.

    ``store`` (a :class:`repro.storage.backing.BackingStore`) allocates
    larger buffers when the room runs out, so a spilled structure stays
    spilled; ``None`` allocates on the heap.  If that allocation fails,
    the bits of already-valid slices are set and no slice is inserted:
    clearing the batch's bits restores the structure.

    Returns a :class:`StructureDelta` naming the inserted slices (empty
    for a payload-only update), and bumps
    :attr:`SlicedMatrix.structure_version` iff slices were inserted.
    """
    rows, cols, positions, exists, bytes_, masks = _locate_bits(sliced, rows, cols)
    if rows.size == 0:
        return StructureDelta.unchanged()
    # Existing slices: in-place OR.  ``.at`` handles several bits landing
    # in the same (slice, byte) cell.
    if exists.any():
        np.bitwise_or.at(
            sliced.data, (positions[exists], bytes_[exists]), masks[exists]
        )
    missing = ~exists
    if not missing.any():
        return StructureDelta.unchanged()
    # New slices: group the missing bits by global slice key, build each
    # payload, and splice them all in at once.
    spr = np.int64(sliced.slices_per_row)
    keys = rows[missing] * spr + cols[missing] // sliced.slice_bits
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    head = np.empty(keys_sorted.size, dtype=bool)
    if keys_sorted.size:
        head[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=head[1:])
    unique_keys = keys_sorted[head]
    ordinal = np.cumsum(head) - 1
    payloads = np.zeros((unique_keys.size, sliced.slice_bits // 8), dtype=np.uint8)
    np.bitwise_or.at(
        payloads, (ordinal, bytes_[missing][order]), masks[missing][order]
    )
    # A missing bit's located position is exactly where its new slice
    # belongs, so no second search over the structure is needed.
    insert_at = positions[missing][order][head]
    owner_rows = unique_keys // spr
    sliced.insert_slices(insert_at, owner_rows, unique_keys % spr, payloads, store)
    empty = np.empty(0, dtype=np.int64)
    return StructureDelta(
        inserted_before=insert_at.astype(np.int64),
        inserted_rows=owner_rows,
        removed_at=empty,
        removed_rows=empty,
    )


def clear_bits(sliced: SlicedMatrix, rows: np.ndarray, cols: np.ndarray) -> StructureDelta:
    """Clear many bits at once, dropping slices that become empty.

    The kept slices shift left in place
    (:meth:`SlicedMatrix.remove_slices`); a clear never allocates, so it
    cannot fail half-way, and the rows it frees are room for the next
    inserts.  Returns a :class:`StructureDelta` naming the dropped slices
    (empty when every touched slice kept at least one bit), and bumps
    :attr:`SlicedMatrix.structure_version` iff slices were dropped.
    """
    rows, cols, positions, exists, bytes_, masks = _locate_bits(sliced, rows, cols)
    if not exists.any():
        return StructureDelta.unchanged()
    np.bitwise_and.at(
        sliced.data,
        (positions[exists], bytes_[exists]),
        np.bitwise_not(masks[exists]),
    )
    touched = np.unique(positions[exists])
    emptied = touched[~sliced.data[touched].any(axis=1)]
    if emptied.size == 0:
        return StructureDelta.unchanged()
    owners = np.searchsorted(sliced.indptr, emptied, side="right") - 1
    sliced.remove_slices(emptied, owners)
    empty = np.empty(0, dtype=np.int64)
    return StructureDelta(
        inserted_before=empty,
        inserted_rows=empty,
        removed_at=emptied.astype(np.int64),
        removed_rows=owners.astype(np.int64),
    )


def set_bit(sliced: SlicedMatrix, row: int, col: int) -> StructureDelta:
    """Single-bit convenience wrapper over :func:`set_bits`."""
    return set_bits(sliced, np.array([row]), np.array([col]))


def clear_bit(sliced: SlicedMatrix, row: int, col: int) -> StructureDelta:
    """Single-bit convenience wrapper over :func:`clear_bits`."""
    return clear_bits(sliced, np.array([row]), np.array([col]))


def test_bits(sliced: SlicedMatrix, rows, cols) -> np.ndarray:
    """Boolean array: whether each bit ``(rows[i], cols[i])`` is set.

    The session's edge membership test — the symmetric structure is its
    only edge set.  ``O(k log(slices per row))``, read-only.
    """
    _, _, positions, exists, bytes_, masks = _locate_bits(sliced, rows, cols)
    present = exists.copy()
    present[exists] = (
        sliced.data[positions[exists], bytes_[exists]] & masks[exists]
    ) != 0
    return present


def _locate_bits(sliced: SlicedMatrix, rows, cols):
    """Vectorized lookup of each bit's slice position.

    Returns ``(rows, cols, positions, exists, byte_index, bit_mask)``
    int64/bool/uint8 arrays; ``positions[i]`` is the index of bit ``i``'s
    slice in the valid-slice arrays when ``exists[i]`` (else where that
    slice would be inserted).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise GraphError(
            f"rows/cols must be matching 1-D arrays, got {rows.shape} vs {cols.shape}"
        )
    if rows.size and (
        rows.min() < 0
        or rows.max() >= sliced.num_rows
        or cols.min() < 0
        or cols.max() >= sliced.num_cols
    ):
        raise GraphError(
            f"bit out of range for a ({sliced.num_rows}, {sliced.num_cols}) matrix"
        )
    positions, exists = sliced.find_slices(rows, cols // sliced.slice_bits)
    within = cols % sliced.slice_bits
    bytes_ = within // 8
    masks = (np.uint8(1) << (within % 8).astype(np.uint8)).astype(np.uint8)
    return rows, cols, positions, exists, bytes_, masks


# ----------------------------------------------------------------------
# The delta re-join
# ----------------------------------------------------------------------
def symmetric_delta(
    num_vertices: int,
    base_sym: SlicedMatrix,
    delta_edges: np.ndarray,
    config: AcceleratorConfig,
) -> DeltaOutcome:
    """Triangles created (or, time-reversed, destroyed) by a delta batch.

    ``base_sym`` is the symmetric slice structure of the base graph —
    *excluding* every edge in ``delta_edges`` (for insertions: the state
    before the batch; for deletions: the state after removal).
    ``delta_edges`` is canonical (see :func:`canonical_delta_edges`) and
    must be disjoint from the base edge set; overlap silently miscounts,
    so the session filters no-op edges before calling in.

    Only the vertex count is needed, not a :class:`Graph` — the planner
    and the engine consume explicit edge arrays here, so a session can
    keep applying batches without ever materialising a graph snapshot.

    The three inclusion–exclusion terms each run on the vectorized
    engine, sharded across ``config.num_arrays`` simulated arrays, and
    the returned :class:`EventCounts` / cache statistics merge every
    term's and every shard's accounting.
    """
    if delta_edges.size == 0:
        return DeltaOutcome(triangles=0)
    slice_bits = config.slice_bits
    if base_sym.slice_bits != slice_bits:
        raise ArchitectureError(
            f"base structure uses {base_sym.slice_bits}-bit slices but the "
            f"config asks for {slice_bits}"
        )
    d_sym = delta_sliced(delta_edges, num_vertices, slice_bits)
    undirected_src = delta_edges[:, 0]
    undirected_dst = delta_edges[:, 1]
    # Both directions of every delta edge, in engine iteration order.
    directed_src = np.concatenate([undirected_src, undirected_dst])
    directed_dst = np.concatenate([undirected_dst, undirected_src])
    order = np.lexsort((directed_dst, directed_src))
    directed_src, directed_dst = directed_src[order], directed_dst[order]
    # (row structure, column structure, edges, divisor): the three terms of
    # the module docstring.  Divisors fold the multiplicity with which each
    # term sees a triangle back to 1.
    terms = (
        (base_sym, base_sym, undirected_src, undirected_dst, 1),
        (base_sym, d_sym, directed_src, directed_dst, 2),
        (d_sym, d_sym, undirected_src, undirected_dst, 3),
    )
    per_array_capacity = array_share(config.capacity_slices, config.num_arrays)
    triangles = 0
    events = EventCounts()
    cache_stats = CacheStatistics()
    for row_sliced, col_sliced, sources, destinations, divisor in terms:
        if config.num_arrays > 1:
            shards = [
                (sources[positions], destinations[positions])
                for positions in position_shards(
                    sources, config.num_arrays, config.shard_by
                )
                if positions.size
            ]
        else:
            shards = [(sources, destinations)]
        accumulator = 0
        for shard_sources, shard_destinations in shards:
            _, touched_counts = row_sliced.row_slice_ranges(np.unique(shard_sources))
            _, column_capacity = split_capacity(
                per_array_capacity, touched_counts, "incremental batch"
            )
            result = kernels.execute_workload(
                row_sliced,
                col_sliced,
                shard_sources,
                shard_destinations,
                column_capacity,
                config.policy,
                config.seed,
                row_writes=int(touched_counts.sum()),
            )
            accumulator += result.accumulator
            events = events.merge(result.events)
            cache_stats = cache_stats.merge(result.cache_stats)
        if accumulator % divisor:
            raise ArchitectureError(
                f"delta re-join parity violated: term accumulator "
                f"{accumulator} is not divisible by {divisor} — the delta "
                "batch overlaps the base edge set"
            )
        triangles += accumulator // divisor
    return DeltaOutcome(
        triangles=triangles, events=events, cache_stats=cache_stats
    )
