"""Resident join plans: compile the valid-pair index once, reuse forever.

The paper's central software insight (Section IV-B, Table IV) is that
only *valid slice pairs* ever reach the computational array — and for a
resident graph, which pairs those are is a pure function of the slice
*structure*, not of the payload bits.  Yet every query through
:func:`repro.core.engine.execute_batched` re-derives them: candidate
expansion, the merge-join against the sorted slice keys, and the
column-key cache trace are recomputed per call, which dominates repeat
queries on an unchanged graph (the serving tier's bread and butter).

A :class:`JoinPlan` materialises that derivation once:

* ``row_positions`` / ``col_positions`` — the matched pair positions
  into the row/column :class:`~repro.core.slicing.SlicedMatrix` payload
  arrays, in the exact reference iteration order (int32 wherever the
  position space allows);
* ``trace_keys`` — the column-slice cache trace the pairs induce, whose
  hit/miss/exchange classification is memoised per cache configuration;
* ``pair_counts`` — pairs per oriented edge, so any edge subset (a
  shard of the Fig. 4 bank organisation) finds its own pairs as the runs
  of its positions (:func:`repro.core.sharding.price_partition`).

With a plan, a query is gather → AND → popcount and nothing else; the
engine's ``plan=`` fast path is bit-identical to the plan-free one.

Plans stay *coherent* with their structures through
:attr:`SlicedMatrix.structure_version`: the in-place slice maintenance
of :mod:`repro.core.incremental` reports every structural change as a
:class:`~repro.core.incremental.StructureDelta`, and
:func:`patch_join_plan` splices a batch into a new plan instead of
recompiling the whole thing.  Its cost is a re-join of the *cut* edges
only — the delta edges and the edges whose source row or destination
column changed its valid-slice set — plus one copy pass over the
surviving pairs, block by block between cuts, with no per-pair search.
``tests/test_plan.py`` asserts a patched plan is array-equal to a
from-scratch rebuild after every operation of randomized insert/delete
streams.

This mirrors what real-PIM follow-ups observe (PIM-TC, Asquini et al.
2025): precomputed, partition-local work assignments are what make
repeated and dynamic triangle workloads pay off on processing-in-memory
substrates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core import engine
from repro.core.incremental import StructureDelta
from repro.core.reuse import CacheStatistics, ReplacementPolicy, simulate_key_trace
from repro.core.slicing import SlicedMatrix, _alloc, expand_runs
from repro.errors import ArchitectureError

__all__ = [
    "FusedPlan",
    "JoinPlan",
    "build_join_plan",
    "fuse_plans",
    "patch_join_plan",
    "merge_oriented_edges",
    "oriented_structure_bits",
]


def _position_dtype(size: int) -> np.dtype:
    """int32 wherever the position space allows, int64 beyond."""
    return np.dtype(np.int32 if size <= np.iinfo(np.int32).max else np.int64)


def _adopt(store, array: np.ndarray) -> np.ndarray:
    """Move an array into the store's backing (identity when ``store=None``)."""
    if store is None:
        return array
    return store.adopt(array)


def _plan_dtypes(row_sliced: SlicedMatrix, col_sliced: SlicedMatrix) -> tuple:
    """``(row, col, trace)`` dtypes of a plan over these structures."""
    return (
        _position_dtype(max(row_sliced.num_valid_slices, 1) - 1),
        _position_dtype(max(col_sliced.num_valid_slices, 1) - 1),
        _position_dtype(col_sliced.num_rows * col_sliced.slices_per_row),
    )


def _join(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(row_positions, col_positions, trace_keys, pair_counts)`` of an
    edge list.

    The matched pairs of :func:`repro.core.engine.join_batches` and their
    column trace keys, concatenated in join order, and the pairs per edge.
    """
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    edge_parts: list[np.ndarray] = []
    trace_parts: list[np.ndarray] = []
    for row_hit, col_hit, edge_ids, trace_keys in engine.join_batches(
        row_sliced, col_sliced, sources, destinations,
        batch_candidates, with_edge_ids=True,
    ):
        row_parts.append(row_hit)
        col_parts.append(col_hit)
        edge_parts.append(edge_ids)
        trace_parts.append(trace_keys)
    if not row_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(sources.size, dtype=np.int64)
    return (
        np.concatenate(row_parts),
        np.concatenate(col_parts),
        np.concatenate(trace_parts),
        np.bincount(np.concatenate(edge_parts), minlength=sources.size),
    )


@dataclass(eq=False)
class JoinPlan:
    """The compiled valid-pair index of one oriented edge list.

    Built by :func:`build_join_plan` against a specific pair of slice
    structures; validity is keyed on their
    :attr:`~repro.core.slicing.SlicedMatrix.structure_version` (payload
    mutation inside existing slices leaves a plan valid — the positions
    and the trace depend only on which slices exist).  Plans are
    immutable in practice: :func:`patch_join_plan` returns a *new* plan,
    so a reader holding a reference never observes a half-patched state.
    """

    #: Matched pair position into the row structure's payload array.
    row_positions: np.ndarray
    #: Matched pair position into the column structure's payload array.
    col_positions: np.ndarray
    #: Column-structure global key of each pair — the cache access trace.
    trace_keys: np.ndarray
    #: Pairs per oriented edge (aligned with the compiled edge list).
    pair_counts: np.ndarray
    #: Edges the plan covers.
    num_edges: int
    #: ``structure_version`` of the row structure at compile/patch time.
    row_version: int
    #: ``structure_version`` of the column structure at compile/patch time.
    col_version: int
    #: Valid-slice counts at compile time (second staleness guard: two
    #: *different* structures can share a version counter value).
    row_valid_slices: int
    col_valid_slices: int
    _bounds: np.ndarray | None = field(default=None, repr=False)
    #: ``(capacity, policy, seed) -> CacheStatistics`` — the trace is part
    #: of the plan, so its classification per cache configuration is too.
    _stats_memo: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Matched valid slice pairs (= AND operations per query)."""
        return int(self.row_positions.size)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the plan arrays (pool-budget quantity),
        the per-edge :attr:`bounds` included once materialised."""
        return (
            self.row_positions.nbytes
            + self.col_positions.nbytes
            + self.trace_keys.nbytes
            + self.pair_counts.nbytes
            + (self._bounds.nbytes if self._bounds is not None else 0)
        )

    @property
    def bounds(self) -> np.ndarray:
        """Exclusive prefix bounds of each edge's pair run (cached)."""
        if self._bounds is None:
            bounds = np.zeros(self.num_edges + 1, dtype=np.int64)
            np.cumsum(self.pair_counts, out=bounds[1:])
            self._bounds = bounds
        return self._bounds

    def staleness(
        self, row_sliced: SlicedMatrix, col_sliced: SlicedMatrix
    ) -> str | None:
        """Why this plan cannot serve these structures (``None`` = current)."""
        if (
            self.row_version != row_sliced.structure_version
            or self.row_valid_slices != row_sliced.num_valid_slices
        ):
            return (
                f"row structure moved to version "
                f"{row_sliced.structure_version} "
                f"({row_sliced.num_valid_slices} slices), plan was compiled "
                f"at version {self.row_version} ({self.row_valid_slices})"
            )
        if (
            self.col_version != col_sliced.structure_version
            or self.col_valid_slices != col_sliced.num_valid_slices
        ):
            return (
                f"column structure moved to version "
                f"{col_sliced.structure_version} "
                f"({col_sliced.num_valid_slices} slices), plan was compiled "
                f"at version {self.col_version} ({self.col_valid_slices})"
            )
        return None

    def matches(self, row_sliced: SlicedMatrix, col_sliced: SlicedMatrix) -> bool:
        """Whether the plan is current for these structures."""
        return self.staleness(row_sliced, col_sliced) is None

    # ------------------------------------------------------------------
    # Query-time services
    # ------------------------------------------------------------------
    def cache_statistics(self, capacity: int, policy, seed: int) -> CacheStatistics:
        """Hit/miss/exchange classification of the plan's trace (memoised).

        The trace is a plan artifact, so for a fixed cache configuration
        its simulation result is too; repeat queries pay a dictionary
        lookup instead of an O(n log n) trace pass.  A fresh copy is
        returned per call so callers may merge/mutate freely.
        """
        key = (int(capacity), ReplacementPolicy(policy).value, int(seed))
        stats = self._stats_memo.get(key)
        if stats is None:
            stats = simulate_key_trace(
                self.trace_keys, capacity, policy=policy, seed=seed
            )
            self._stats_memo[key] = stats
        return dataclasses.replace(stats)


def build_join_plan(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    *,
    chunk_edges: int | None = None,
    store=None,
) -> JoinPlan:
    """Compile the join plan of an oriented edge list — the one-time cost.

    Runs the engine's own merge-join (:func:`repro.core.engine.join_batches`)
    and records, instead of executing, every matched pair.  Sharing the
    join keeps the compiled plan structurally identical to what the
    plan-free executor would derive per query.

    ``chunk_edges`` streams the compile through bounded edge windows:
    each window's matched pairs are materialised, pushed into ``store``
    (spilling to disk when large), and released before the next window
    starts, so peak heap during compile is O(window pairs) instead of
    O(total pairs).  The join order is window-independent (edges in
    input order, slice ids ascending per edge — see
    :func:`~repro.core.engine.join_batches`), so the chunked result is
    array-equal to the unchunked one.  ``store`` alone (no chunking)
    still moves the finished plan arrays into spill backing.
    """
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    num_edges = int(sources.size)
    if chunk_edges is not None:
        if chunk_edges <= 0:
            raise ArchitectureError(
                f"chunk_edges must be a positive edge-window size, got {chunk_edges}"
            )
        if num_edges > chunk_edges:
            return _build_join_plan_chunked(
                row_sliced, col_sliced, sources, destinations,
                batch_candidates, int(chunk_edges), store,
            )
    row_positions, col_positions, trace_keys, pair_counts = _join(
        row_sliced, col_sliced, sources, destinations, batch_candidates
    )
    row_dtype, col_dtype, trace_dtype = _plan_dtypes(row_sliced, col_sliced)
    return JoinPlan(
        row_positions=_adopt(store, row_positions.astype(row_dtype, copy=False)),
        col_positions=_adopt(store, col_positions.astype(col_dtype, copy=False)),
        trace_keys=_adopt(store, trace_keys.astype(trace_dtype, copy=False)),
        pair_counts=pair_counts,
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )


def _build_join_plan_chunked(
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    batch_candidates: int,
    chunk_edges: int,
    store,
) -> JoinPlan:
    """The bounded-window compile loop behind ``build_join_plan(chunk_edges=)``.

    One window at a time: join, record the window's pairs, adopt them
    into the store (disk when large), release the heap copy.  After the
    sweep the per-window records are copied — window by window — into
    the final store-allocated arrays, so neither pass ever holds more
    than one window of pair records on the heap.
    """
    num_edges = int(sources.size)
    row_dtype, col_dtype, trace_dtype = _plan_dtypes(row_sliced, col_sliced)
    pair_counts = np.zeros(num_edges, dtype=np.int64)
    windows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, num_edges, chunk_edges):
        stop = min(start + chunk_edges, num_edges)
        rows, cols, traces, pair_counts[start:stop] = _join(
            row_sliced, col_sliced, sources[start:stop], destinations[start:stop],
            batch_candidates,
        )
        if not rows.size:
            continue
        windows.append(
            (
                _adopt(store, rows.astype(row_dtype, copy=False)),
                _adopt(store, cols.astype(col_dtype, copy=False)),
                _adopt(store, traces.astype(trace_dtype, copy=False)),
            )
        )
    total = int(pair_counts.sum())
    row_positions = _alloc(store, total, row_dtype)
    col_positions = _alloc(store, total, col_dtype)
    trace_keys = _alloc(store, total, trace_dtype)
    offset = 0
    while windows:
        # Pop as we copy so each window's (possibly spilled) staging
        # arrays are reclaimed before the next one lands.
        rows, cols, traces = windows.pop(0)
        size = rows.size
        row_positions[offset: offset + size] = rows
        col_positions[offset: offset + size] = cols
        trace_keys[offset: offset + size] = traces
        offset += size
    return JoinPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        trace_keys=trace_keys,
        pair_counts=pair_counts,
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )


# ----------------------------------------------------------------------
# Cross-plan fusion
# ----------------------------------------------------------------------
@dataclass(eq=False)
class FusedPlan:
    """Several compiled plans concatenated into one fused pair space.

    The serving tier's fusion scheduler groups compatible queries across
    *different* resident sessions and executes the whole group as one
    gather → AND → popcount sweep.  A fused plan is the index of that
    sweep: each member plan's gather positions shifted by its segment's
    payload-row offset (so they address a virtually *stacked* payload —
    segment 0's rows first, then segment 1's, ...), plus the pair-space
    bounds needed to split the fused reductions back per segment.

    Fusion is pure concatenation: the pair order inside each segment is
    exactly the member plan's order, so every per-segment reduction is
    bit-identical to running that plan alone.
    """

    #: Fused gather positions into the stacked row payload (offset-baked).
    row_positions: np.ndarray
    #: Fused gather positions into the stacked column payload.
    col_positions: np.ndarray
    #: Exclusive prefix bounds of each segment's pair run (size ``n+1``).
    segment_bounds: np.ndarray
    #: Payload-row offset of each segment in the stacked row payload.
    row_offsets: np.ndarray
    #: Payload-row offset of each segment in the stacked column payload.
    col_offsets: np.ndarray
    #: The member plans, in segment order.
    plans: tuple

    @property
    def num_segments(self) -> int:
        return len(self.plans)

    @property
    def num_pairs(self) -> int:
        """Total matched pairs (= AND operations of the fused sweep)."""
        return int(self.row_positions.size)

    @property
    def nbytes(self) -> int:
        return (
            self.row_positions.nbytes
            + self.col_positions.nbytes
            + self.segment_bounds.nbytes
            + self.row_offsets.nbytes
            + self.col_offsets.nbytes
        )

    def segment_slice(self, index: int) -> slice:
        """The fused pair-space slice owned by segment ``index``."""
        return slice(
            int(self.segment_bounds[index]), int(self.segment_bounds[index + 1])
        )

    def split(self, per_pair: np.ndarray) -> list[np.ndarray]:
        """Split a fused per-pair array back into per-segment views.

        The inverse of the concatenation: ``split(pops)[i]`` is exactly
        what a lone sweep of ``plans[i]`` would have produced, so each
        segment's reduction (scalar accumulator, per-edge runs) proceeds
        as if it had never been fused.
        """
        per_pair = np.asarray(per_pair)
        if per_pair.shape[0] != self.num_pairs:
            raise ArchitectureError(
                f"fused split expects {self.num_pairs} per-pair values, "
                f"got {per_pair.shape[0]}"
            )
        return [per_pair[self.segment_slice(i)] for i in range(self.num_segments)]


def fuse_plans(plans, store=None) -> FusedPlan:
    """Concatenate compiled plans into one fused pair space.

    Each member's positions are shifted by the cumulative valid-slice
    counts of the preceding members — the offsets a physical
    ``np.concatenate`` of the payload arrays induces — so one sweep over
    the stacked payloads executes every member plan at once.  Callers
    group only lane-compatible plans (same slice width); this function
    is pure index arithmetic and does not see the payloads.  A ``store``
    routes the fused gather arrays through a backing store (disk-backed
    when large); per-sweep fused plans are usually left on heap.
    """
    plans = tuple(plans)
    if not plans:
        raise ArchitectureError("fuse_plans needs at least one plan")
    num = len(plans)
    row_offsets = np.zeros(num, dtype=np.int64)
    col_offsets = np.zeros(num, dtype=np.int64)
    np.cumsum([p.row_valid_slices for p in plans[:-1]], out=row_offsets[1:])
    np.cumsum([p.col_valid_slices for p in plans[:-1]], out=col_offsets[1:])
    segment_bounds = np.zeros(num + 1, dtype=np.int64)
    np.cumsum([p.num_pairs for p in plans], out=segment_bounds[1:])
    total = int(segment_bounds[-1])
    row_positions = _alloc(store, total, np.int64)
    col_positions = _alloc(store, total, np.int64)
    for i, plan in enumerate(plans):
        lo, hi = int(segment_bounds[i]), int(segment_bounds[i + 1])
        np.add(
            plan.row_positions, row_offsets[i], out=row_positions[lo:hi],
            casting="unsafe",
        )
        np.add(
            plan.col_positions, col_offsets[i], out=col_positions[lo:hi],
            casting="unsafe",
        )
    return FusedPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        segment_bounds=segment_bounds,
        row_offsets=row_offsets,
        col_offsets=col_offsets,
        plans=plans,
    )


# ----------------------------------------------------------------------
# Incremental maintenance
# ----------------------------------------------------------------------
def oriented_structure_bits(
    delta_edges: np.ndarray, orientation: str, structure: str
) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) bit coordinates a delta batch touches in one
    oriented structure.

    ``structure`` is ``"row"`` (the successor structure) or ``"col"``
    (the predecessor structure, i.e. the transpose's rows).  For the
    ``"upper"`` orientation an edge ``u < v`` is bit ``(u, v)`` of the
    row structure and bit ``(v, u)`` of the column structure; for
    ``"symmetric"`` both structures hold both directions.
    """
    if structure not in ("row", "col"):
        raise ArchitectureError(f"structure must be 'row' or 'col', got {structure!r}")
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    if orientation == "upper":
        return (u, v) if structure == "row" else (v, u)
    if orientation == "symmetric":
        return np.concatenate([u, v]), np.concatenate([v, u])
    raise ArchitectureError(
        f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
    )


def merge_oriented_edges(
    sources: np.ndarray,
    destinations: np.ndarray,
    delta_edges: np.ndarray,
    orientation: str,
    num_vertices: int,
    insert: bool,
) -> tuple[np.ndarray, np.ndarray, StructureDelta]:
    """Splice a canonical delta batch into a sorted oriented edge list.

    ``insert=True`` merges the delta edges in (they must be absent);
    ``insert=False`` removes them (they must be present) — the session
    filters no-ops before calling, exactly as for the slice maintenance.
    Preserves the reference iteration order (lexicographic by source, then
    destination) for both orientations.

    Returns ``(sources, destinations, splice)``: the new edge list and a
    :class:`~repro.core.incremental.StructureDelta` over edge positions —
    ``inserted_before`` / ``removed_at`` are the :func:`np.insert` /
    :func:`np.delete` positions of the splice and ``inserted_rows`` /
    ``removed_rows`` the delta edges' sources.  :func:`patch_join_plan`
    takes it as its edge diff.
    """
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    if orientation == "upper":
        delta_src, delta_dst = u, v
    elif orientation == "symmetric":
        delta_src = np.concatenate([u, v])
        delta_dst = np.concatenate([v, u])
    else:
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    scale = np.int64(max(num_vertices, 1))
    delta_keys = delta_src * scale + delta_dst
    order = np.argsort(delta_keys, kind="stable")
    delta_keys = delta_keys[order]
    delta_src, delta_dst = delta_src[order], delta_dst[order]
    old_keys = sources * scale + destinations
    where = np.searchsorted(old_keys, delta_keys)
    empty = np.empty(0, dtype=np.int64)
    if insert:
        if old_keys.size:
            clamped = np.minimum(where, old_keys.size - 1)
            if bool((old_keys[clamped] == delta_keys).any()):
                raise ArchitectureError(
                    "delta batch overlaps the resident edge list; filter "
                    "no-op insertions before splicing"
                )
        return (
            np.insert(sources, where, delta_src),
            np.insert(destinations, where, delta_dst),
            StructureDelta(where, delta_src, empty, empty),
        )
    if old_keys.size == 0 or bool(
        (old_keys[np.minimum(where, old_keys.size - 1)] != delta_keys).any()
    ):
        raise ArchitectureError(
            "delta batch names edges missing from the resident edge list; "
            "filter no-op deletions before splicing"
        )
    return (
        np.delete(sources, where),
        np.delete(destinations, where),
        StructureDelta(empty, empty, where, delta_src),
    )


def _size_before(sliced: SlicedMatrix, delta: StructureDelta) -> int:
    """Valid-slice count of ``sliced`` before it moved by ``delta``."""
    return (
        sliced.num_valid_slices - delta.inserted_before.size + delta.removed_at.size
    )


def _position_map(sliced: SlicedMatrix, delta: StructureDelta, dtype) -> np.ndarray:
    """Old → new slice position table of a structure that moved by ``delta``.

    A removed position's entry is meaningless: no surviving pair holds
    it.  The shift is a step function — +1 past every insertion point,
    -1 past every removed slice — so the table is one ``arange`` plus
    one ``repeat`` of the step heights.
    """
    old_size = _size_before(sliced, delta)
    if delta.inserted_before.size:
        steps, sign = delta.inserted_before, 1
    else:
        steps, sign = delta.removed_at + 1, -1
    heights = np.arange(0, sign * (steps.size + 1), sign, dtype=dtype)
    table = np.repeat(heights, np.diff(steps, prepend=0, append=old_size))
    table += np.arange(old_size, dtype=dtype)
    return table


def patch_join_plan(
    plan: JoinPlan,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    sources: np.ndarray,
    destinations: np.ndarray,
    edge_delta: StructureDelta,
    row_delta: StructureDelta,
    col_delta: StructureDelta,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    *,
    store=None,
) -> JoinPlan:
    """Splice one committed update batch into a compiled plan.

    ``plan`` was compiled for the edge list and structures *before* the
    batch; ``(sources, destinations)`` and ``row_sliced``/``col_sliced``
    are the state *after* it.  Three
    :class:`~repro.core.incremental.StructureDelta` reports say what
    moved: ``edge_delta`` the edge list (the splice
    :func:`merge_oriented_edges` returns; ``StructureDelta.unchanged()``
    when the list kept its edges) and ``row_delta``/``col_delta`` the
    slice arrays (what :func:`repro.core.incremental.set_bits` /
    ``clear_bits`` return).

    Cost: a re-join of the *cut* edges plus one copy pass, with no
    per-pair search.  The cut is the delta edges, the contiguous edge
    ranges of the source rows whose valid-slice set changed, and the
    edges into changed destination rows (one boolean gather); only they
    go through :func:`repro.core.engine.join_batches`.  Every kept run
    between cuts is block-copied: row positions plus one constant shift
    per run, column positions through one old → new position table of
    the column structure, trace keys verbatim (a surviving slice keeps
    its global key).  Runs also break wherever the sources cross a
    changed row, since the row shift changes there even when the list
    holds no edge of that row (an edge list may share its row structure
    with edges it does not hold).

    Returns ``plan`` itself when nothing moved, else a **new** plan (the
    input is never mutated), array-equal to ``build_join_plan`` on the
    new edge list against the new structures.
    """
    if not (edge_delta.changed or row_delta.changed or col_delta.changed):
        return plan
    num_edges = int(sources.size)
    inserted_at = edge_delta.inserted_before
    removed_at = edge_delta.removed_at
    # Alignment: the plan must describe exactly the pre-batch edge list
    # and structures, so every position it holds indexes them.
    before = (
        num_edges - inserted_at.size + removed_at.size,
        _size_before(row_sliced, row_delta),
        _size_before(col_sliced, col_delta),
    )
    if before != (plan.num_edges, plan.row_valid_slices, plan.col_valid_slices):
        raise ArchitectureError(
            f"plan patch lost alignment: the plan covers {plan.num_edges} "
            f"edges over {plan.row_valid_slices}/{plan.col_valid_slices} "
            f"row/col slices, the batch started from {before[0]} edges over "
            f"{before[1]}/{before[2]}; this is a bug — rebuild the plan"
        )
    # --- the cut, in new edge-list coordinates -------------------------
    changed_cols = np.zeros(col_sliced.num_rows, dtype=bool)
    changed_cols[col_delta.inserted_rows] = True
    changed_cols[col_delta.removed_rows] = True
    cut = changed_cols[destinations]
    changed_rows = np.unique(
        np.concatenate((row_delta.inserted_rows, row_delta.removed_rows))
    )
    row_lo = np.searchsorted(sources, changed_rows)
    row_hi = np.searchsorted(sources, changed_rows, side="right")
    cut[expand_runs(row_lo, row_hi - row_lo)] = True
    inserted = inserted_at + np.arange(inserted_at.size)
    cut[inserted] = True
    cut_idx = np.flatnonzero(cut)
    # --- kept runs: uncut stretches, also broken at deletion gaps and
    # at changed rows (where the row shift steps) ------------------------
    gaps = removed_at - np.arange(removed_at.size)
    breaks = np.unique(
        np.concatenate(([0, num_edges], cut_idx, cut_idx + 1, gaps, row_lo))
    )
    run_lo, run_hi = breaks[:-1], breaks[1:]
    kept = ~cut[run_lo]
    run_lo, run_hi = run_lo[kept], run_hi[kept]
    old_lo = (
        run_lo
        - np.searchsorted(inserted, run_lo)
        + np.searchsorted(gaps, run_lo, side="right")
    )
    run_sources = sources[run_lo]
    row_shift = np.searchsorted(
        row_delta.inserted_rows, run_sources
    ) - np.searchsorted(row_delta.removed_rows, run_sources)
    # --- per-edge counts and bounds, the cut's from its re-join ---------
    redo_row, redo_col, redo_trace, redo_counts = _join(
        row_sliced, col_sliced, sources[cut_idx], destinations[cut_idx],
        batch_candidates,
    )
    if inserted_at.size:
        pair_counts = np.insert(plan.pair_counts, inserted_at, 0)
    elif removed_at.size:
        pair_counts = np.delete(plan.pair_counts, removed_at)
    else:
        pair_counts = plan.pair_counts.copy()
    pair_counts[cut_idx] = redo_counts
    bounds = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=bounds[1:])
    total = int(bounds[-1])
    row_dtype, col_dtype, trace_dtype = _plan_dtypes(row_sliced, col_sliced)
    row_positions = _alloc(store, total, row_dtype)
    col_positions = _alloc(store, total, col_dtype)
    trace_keys = _alloc(store, total, trace_dtype)
    # --- one copy pass over the kept runs -------------------------------
    col_map = (
        _position_map(col_sliced, col_delta, col_dtype)
        if col_delta.changed
        else None
    )
    old_bounds = plan.bounds
    old_rows, old_cols, old_trace = (
        plan.row_positions, plan.col_positions, plan.trace_keys
    )
    for src, stop, dst, shift in zip(
        old_bounds[old_lo].tolist(),
        old_bounds[old_lo + (run_hi - run_lo)].tolist(),
        bounds[run_lo].tolist(),
        row_shift.tolist(),
    ):
        if stop == src:
            continue
        end = dst + stop - src
        if shift:
            np.add(old_rows[src:stop], shift, out=row_positions[dst:end])
        else:
            row_positions[dst:end] = old_rows[src:stop]
        if col_map is None:
            col_positions[dst:end] = old_cols[src:stop]
        else:
            # Unbuffered: the alignment check bounds every old position.
            np.take(
                col_map, old_cols[src:stop], out=col_positions[dst:end], mode="clip"
            )
        trace_keys[dst:end] = old_trace[src:stop]
    # --- the cut's pairs land in their own slots ------------------------
    if redo_row.size:
        targets = expand_runs(bounds[cut_idx], redo_counts)
        row_positions[targets] = redo_row
        col_positions[targets] = redo_col
        trace_keys[targets] = redo_trace
    patched = JoinPlan(
        row_positions=row_positions,
        col_positions=col_positions,
        trace_keys=trace_keys,
        pair_counts=pair_counts,
        num_edges=num_edges,
        row_version=row_sliced.structure_version,
        col_version=col_sliced.structure_version,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
    )
    patched._bounds = bounds
    return patched
