"""Multi-array pricing (paper Fig. 4 bank organisation).

The TCIM chip is not one monolithic array: Fig. 4 organises it as banks of
mats of sub-arrays — 128 sub-arrays in the paper's configuration — each
with its own row buffer and local bit counter.  The analytic layer
(:mod:`repro.arch.pipeline`) has always *priced* that parallelism by
Amdahl-scaling a single-array run; this module produces the per-array
events the model prices instead.

Every :class:`~repro.core.accelerator.EventCounts` and
:class:`~repro.core.reuse.CacheStatistics` field of an array depends only
on which slices exist, which slice pairs it matches and the order of its
column-key trace — never on the payload bits.  The count plan
(:class:`~repro.core.plan.JoinPlan`) already holds every matched pair of
the whole edge list in that order, so :func:`price_partition` prices a
partition instead of executing it:

1. a **partitioner** splits the work across ``num_arrays`` simulated
   arrays, each a list of *lanes* — a selection of plan pairs in plan
   order, plus an edge count, a row-write count and an accumulator;
2. one gather → AND → popcount pass over the plan fills every lane's
   accumulator;
3. each array's :class:`ShardResult` follows from its lanes: a row
   region sized to the rows it touches, a column-slice cache covering the
   rest of its share of the array capacity, and one cache simulation of
   each lane's trace keys; the per-array results merge into a
   :class:`ShardedOutcome` (accumulators and events sum exactly, cache
   statistics merge element-wise) and the breakdown is kept so the
   architecture model can price the *measured* critical path (slowest
   array) instead of a uniform analytic scaling.

Every count run prices here, a single array included: one array is one
position shard that no partitioner splits, priced like any other.

Partitioning strategy matters as much as unit count — real-PIM follow-up
work (Asquini et al.) shows per-bank load balance dominates multi-array
triangle-counting performance — so four partitioners are provided.  The
first three split *positions* of the shared oriented edge list
(:func:`position_shards`), and a shard is one lane: the plan runs of its
positions, one range of the plan's arrays when the positions are
contiguous.

* ``"edges"`` — contiguous edge ranges, the cheapest split (a row's edges
  may straddle a boundary, costing duplicate row-slice loads);
* ``"rows"`` — row round-robin (``row % num_arrays``), keeping each row's
  edges on one array;
* ``"degree"`` — greedy longest-processing-time assignment of whole rows
  by successor count, balancing expected AND work across arrays.

The fourth, ``"coloring"`` (PIM-TC; Asquini et al., "Accelerating
Triangle Counting with Real Processing-in-Memory Systems"), models
arrays that cannot communicate: ``C`` vertex colors induce
``Binom(C+2, 3)`` shards, one per color triple ``{x <= y <= z}``, each
holding only the edges whose color pair the triple contains, so every
triangle is counted in exactly one shard with zero cross-shard slice
traffic.  Its lanes are priced from the same count plan; see
:func:`_coloring_shards` for which plan pairs a lane holds.

Invariants (asserted by ``tests/test_sharding.py``,
``tests/test_coloring.py`` and the golden fixture of
``tests/test_run_golden.py``): ``num_arrays=1`` reproduces the
plan-free executor and the per-edge reference bit for bit; for any
``num_arrays`` the
merged triangle count is exact; position partitioners conserve the
additive event counters (``edges_processed``, ``and_operations``,
``dense_pair_operations``, ...) against their single-array totals,
while coloring replicates each edge into ``C`` shards (the PIM-TC trade:
``C×`` the edge volume buys zero communication) and conserves the merged
counters against the field-wise sum of its shards.  The tests' execution
oracle runs each shard through :func:`~repro.core.kernels.execute_workload`
on the slices its array holds and compares field by field.

The delta join of :mod:`repro.core.incremental` splits each of its
inclusion–exclusion terms with :func:`position_shards` too, and executes
every shard through the plan-free
:func:`~repro.core.kernels.execute_workload`: no count plan covers a
term's edge list.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core import engine, kernels
from repro.core.accelerator import EventCounts, array_share, split_capacity
from repro.core.reuse import CacheStatistics, simulate_key_trace
from repro.core.slicing import SlicedMatrix, SliceWindow, expand_runs
from repro.errors import ArchitectureError
from repro.graph import bitops
from repro.graph.graph import _run_heads

__all__ = [
    "PARTITIONERS",
    "POSITION_PARTITIONERS",
    "ShardResult",
    "ShardedOutcome",
    "assign_colors",
    "color_triples",
    "min_colors",
    "num_color_shards",
    "position_shards",
    "price_partition",
]

#: Partitioners that split positions of one shared oriented edge list.
POSITION_PARTITIONERS = ("edges", "rows", "degree")

#: Recognised values of ``AcceleratorConfig.shard_by``: the position
#: partitioners plus ``"coloring"``, whose shards follow from the vertex
#: colors rather than from edge positions.
PARTITIONERS = POSITION_PARTITIONERS + ("coloring",)


@dataclass
class ShardResult:
    """Outcome of one simulated array's run over its shard."""

    shard_id: int
    edges: int
    rows: int
    accumulator: int
    events: EventCounts
    cache_stats: CacheStatistics
    row_region_slices: int
    column_cache_slices: int


@dataclass
class ShardedOutcome:
    """Merged result of a sharded execution plus the per-shard breakdown."""

    accumulator: int
    events: EventCounts
    cache_stats: CacheStatistics
    shards: list[ShardResult] = field(default_factory=list)


def _partition_edges(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Contiguous edge ranges of near-equal size."""
    return list(np.array_split(np.arange(sources.size, dtype=np.int64), num_arrays))

def _partition_rows(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Row round-robin: shard ``row % num_arrays`` owns all of a row's edges."""
    shard_of = sources % num_arrays
    positions = np.arange(sources.size, dtype=np.int64)
    return [positions[shard_of == s] for s in range(num_arrays)]

def _partition_degree(sources: np.ndarray, num_arrays: int) -> list[np.ndarray]:
    """Greedy LPT over whole rows, weighted by oriented out-degree.

    Rows are assigned heaviest-first to the currently lightest shard —
    the classic longest-processing-time heuristic, deterministic via
    stable sorting.  Out-degree (successor count) is proportional to the
    candidate slice-pair work a row generates, so this balances expected
    AND operations, not just edge counts.
    """
    if sources.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return [empty.copy() for _ in range(num_arrays)]
    import heapq

    rows, counts = np.unique(sources, return_counts=True)
    order = np.argsort(counts, kind="stable")[::-1]
    shard_of_row = np.empty(rows.size, dtype=np.int64)
    heap = [(0, s) for s in range(num_arrays)]
    for r in order.tolist():
        load, target = heapq.heappop(heap)
        shard_of_row[r] = target
        heapq.heappush(heap, (load + int(counts[r]), target))
    # Edge positions are sorted by row, so mapping each edge to its row's
    # shard and selecting per shard preserves ascending position order.
    row_index = np.searchsorted(rows, sources)
    shard_of = shard_of_row[row_index]
    positions = np.arange(sources.size, dtype=np.int64)
    return [positions[shard_of == s] for s in range(num_arrays)]


_PARTITIONER_FUNCS = {
    "edges": _partition_edges,
    "rows": _partition_rows,
    "degree": _partition_degree,
}


def position_shards(
    sources: np.ndarray, num_arrays: int, shard_by: str
) -> tuple[np.ndarray, ...]:
    """Split the positions of an oriented edge list across ``num_arrays``.

    ``sources`` is the list's source array in the reference order (rows
    ascending).  Returns one ascending position array per array (empty
    when there are more arrays than edges), so each array walks its
    edges in the reference order and its cache trace stays
    deterministic; one array gets the whole list, whatever the
    partitioner.  ``"coloring"`` shards by vertex colors, which
    :func:`price_partition` prices on its own; here it falls back to
    degree-LPT, which balances the delta join's terms best (they run
    over the shared symmetric structure, so they always split
    positions).
    """
    if num_arrays < 1:
        raise ArchitectureError(f"num_arrays must be >= 1, got {num_arrays}")
    if shard_by == "coloring":
        shard_by = "degree"
    if shard_by not in POSITION_PARTITIONERS:
        raise ArchitectureError(
            f"shard_by must be one of {PARTITIONERS}, got {shard_by!r}"
        )
    if num_arrays == 1:
        return (np.arange(sources.size, dtype=np.int64),)
    return tuple(_PARTITIONER_FUNCS[shard_by](sources, num_arrays))


# ----------------------------------------------------------------------
# Pricing from the count plan
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Lane:
    """One run of an array: its edge count, row writes and accumulator,
    and ``select``, which returns its plan pairs — one ``slice`` of the
    plan's arrays for a contiguous lane, else their indices, plan order.
    Selecting on demand keeps one lane's pairs alive at a time, so memory
    does not grow as pairs × lanes."""

    select: Callable[[], np.ndarray | slice]
    edges: int
    row_writes: int
    accumulator: int


@dataclass(eq=False)
class _Shard:
    """One array's lanes, the rows it touches, and the valid slices it
    loads per touched row (a row may repeat: only the largest sizes the
    row region)."""

    rows: int
    row_loads: np.ndarray
    lanes: list[_Lane]


def price_partition(
    config,
    row_sliced,
    col_sliced,
    edge_arrays: tuple[np.ndarray, np.ndarray],
    join_plan=None,
) -> ShardedOutcome:
    """Price ``config``'s partition of a full run across its arrays.

    ``edge_arrays`` is the oriented edge list in the reference order and
    ``join_plan`` its compiled :class:`~repro.core.plan.JoinPlan` against
    these structures; ``None`` compiles a transient one.  A stale plan,
    or one of another edge count, raises
    :class:`~repro.errors.ArchitectureError`.

    Each array's :class:`ShardResult` is a filter of the plan's pairs:
    above one array, one per color triple of ``C = min_colors(num_arrays)``
    colors for coloring; else one per :func:`position_shards` entry; a
    single array is one lane over the whole plan, its positions the
    ``range`` of the list (none are allocated).  Capacity follows
    :func:`~repro.core.accelerator.array_share` and
    :func:`~repro.core.accelerator.split_capacity` per shard (above one
    array, errors name ``"shard <id>"``), and ``and_operations`` /
    ``bitcount_operations`` count each lane's pairs.  The results equal,
    field by field, executing every lane through
    :func:`~repro.core.kernels.execute_workload` on the slices its array
    holds.
    """
    from repro.core.plan import build_join_plan

    sources = np.asarray(edge_arrays[0], dtype=np.int64)
    destinations = np.asarray(edge_arrays[1], dtype=np.int64)
    coloring = config.shard_by == "coloring" and config.num_arrays > 1
    if coloring:
        num_shards = num_color_shards(min_colors(config.num_arrays))
    else:
        assignments = (
            position_shards(sources, config.num_arrays, config.shard_by)
            if config.num_arrays > 1
            else (range(sources.size),)
        )
        num_shards = len(assignments)
    per_array_capacity = array_share(config.capacity_slices, num_shards)
    if join_plan is None:
        join_plan = build_join_plan(row_sliced, col_sliced, sources, destinations)
    elif join_plan.num_edges != int(sources.size):
        raise ArchitectureError(
            f"join plan covers {join_plan.num_edges} edges but the oriented "
            f"edge list has {sources.size}; compile a plan for this edge list"
        )
    stale = join_plan.staleness(row_sliced, col_sliced)
    if stale:
        raise ArchitectureError(f"stale join plan: {stale}; rebuild or patch it")
    if coloring:
        shards = _coloring_shards(
            config, row_sliced, col_sliced, sources, destinations, join_plan
        )
    else:
        shards = _position_shards(
            row_sliced, col_sliced, sources, join_plan, assignments
        )
    return _merge_shard_results(
        [
            _shard_result(
                shard_id, shard, per_array_capacity, join_plan.trace_keys,
                row_sliced.slices_per_row, config.policy, config.seed,
                f"shard {shard_id}" if config.num_arrays > 1 else None,
            )
            for shard_id, shard in enumerate(shards)
        ]
    )


def _shard_result(
    shard_id: int,
    shard: _Shard,
    per_array_capacity: int,
    trace_keys: np.ndarray,
    slices_per_row: int,
    policy,
    seed: int,
    owner: str | None,
) -> ShardResult:
    """One array's :class:`ShardResult`: its capacity split (errors name
    ``owner``), then its lanes' events and cache runs (one private trace
    per lane, as one execution per lane would run)."""
    row_region, column_capacity = split_capacity(
        per_array_capacity, shard.row_loads, owner
    )
    events = EventCounts()
    cache_stats = CacheStatistics()
    for lane in shard.lanes:
        trace = trace_keys[lane.select()]
        stats = simulate_key_trace(trace, column_capacity, policy=policy, seed=seed)
        events = events + kernels._array_events(
            lane.edges, slices_per_row, lane.row_writes, int(trace.size), stats
        )
        cache_stats = cache_stats.merge(stats)
    return ShardResult(
        shard_id=shard_id,
        edges=sum(lane.edges for lane in shard.lanes),
        rows=shard.rows,
        accumulator=sum(lane.accumulator for lane in shard.lanes),
        events=events,
        cache_stats=cache_stats,
        row_region_slices=row_region,
        column_cache_slices=column_capacity,
    )


def _merge_shard_results(shard_results: list[ShardResult]) -> ShardedOutcome:
    """Sum accumulators and additive counters across shard results."""
    events = EventCounts()
    cache_stats = CacheStatistics()
    for result in shard_results:
        events = events + result.events
        cache_stats = cache_stats.merge(result.cache_stats)
    return ShardedOutcome(
        accumulator=sum(result.accumulator for result in shard_results),
        events=events,
        cache_stats=cache_stats,
        shards=shard_results,
    )


def _position_shards(
    row_sliced, col_sliced, sources, join_plan, assignments
) -> list[_Shard]:
    """One lane per shard: the plan runs of its positions, which load the
    shared row structure's rows they touch.

    A lane whose positions form one contiguous run (a single array, every
    ``edges`` shard) is priced from its pair range: one popcount pass
    over views of the plan's position arrays, its trace a view of the
    plan's, and its rows' loads read over its source range — a row there
    that the lane does not touch has no edges, so no valid slices.
    Scattered lanes gather their runs and their sources, and their
    accumulators come from one per-edge pass over the whole plan.
    """
    spans = [_span(positions) for positions in assignments]
    per_edge = valid_counts = None
    if None in spans:
        per_edge = _plan_edge_sums(row_sliced, col_sliced, join_plan)
    if any(span is not None for span in spans):
        valid_counts = row_sliced.row_valid_counts()
        pair_starts = _pair_starts(join_plan, spans)
    counts = join_plan.pair_counts
    shards = []
    for positions, span in zip(assignments, spans):
        if span is None:
            # Ascending positions of a sorted edge list: sorted sources.
            touched = _run_heads(sources[positions])
            _, row_loads = row_sliced.row_slice_ranges(touched)
            rows = int(touched.size)
            select = partial(
                expand_runs, join_plan.bounds[positions], counts[positions]
            )
            accumulator = int(per_edge[positions].sum())
        else:
            lo, hi = span
            row_loads = (
                valid_counts[sources[lo]: sources[hi - 1] + 1]
                if hi > lo
                else valid_counts[:0]
            )
            rows = int(np.count_nonzero(row_loads))
            select = partial(slice, pair_starts[lo], pair_starts[hi])
            accumulator = (
                _range_popcount(row_sliced, col_sliced, join_plan, select())
                if per_edge is None
                else int(per_edge[lo:hi].sum())
            )
        lane = _Lane(
            select=select,
            edges=len(positions),
            row_writes=int(row_loads.sum()),
            accumulator=accumulator,
        )
        shards.append(_Shard(rows, row_loads, [lane]))
    return shards


def _span(positions: np.ndarray | range) -> tuple[int, int] | None:
    """``(lo, hi)`` when ascending ``positions`` are exactly ``lo..hi-1``."""
    if not len(positions):
        return 0, 0
    lo = int(positions[0])
    hi = lo + len(positions)
    return (lo, hi) if int(positions[-1]) == hi - 1 else None


def _pair_starts(join_plan, spans) -> dict[int, int]:
    """The first plan pair of each span end (the pairs of the edges
    before it), summing the pair counts once up to the last end short of
    the list's."""
    counts = join_plan.pair_counts
    starts = {join_plan.num_edges: join_plan.num_pairs}
    total = previous = 0
    for end in sorted({end for span in spans if span is not None for end in span}):
        if end not in starts:
            total += int(counts[previous:end].sum(dtype=np.int64))
            starts[end], previous = total, end
    return starts


def _range_popcount(row_sliced, col_sliced, join_plan, pairs: slice) -> int:
    """The popcount sum of the plan pairs ``pairs``, a range of its
    arrays, with the diagonal pairs inside the range."""
    diagonal = None
    if join_plan.diagonal is not None:
        first, last = np.searchsorted(
            join_plan.diagonal_pairs, (pairs.start, pairs.stop)
        )
        if last > first:
            diagonal = (
                join_plan.diagonal_pairs[first:last] - pairs.start,
                join_plan.diagonal_masks[first:last],
            )
    return engine.pair_popcount(
        row_sliced.data, col_sliced.data, join_plan.row_positions[pairs],
        join_plan.col_positions[pairs], diagonal=diagonal,
    )


def _plan_edge_sums(row_sliced, col_sliced, join_plan) -> np.ndarray:
    """Each edge's popcount sum over its run of the plan's pairs."""
    pops = engine.pair_popcounts(
        row_sliced.data, col_sliced.data, join_plan.row_positions,
        join_plan.col_positions, diagonal=join_plan.diagonal,
    )
    # Prefix sums reduce runs of any length exactly, including the
    # zero-pair edges np.add.reduceat would mis-handle.
    prefix = np.zeros(pops.size + 1, dtype=np.int64)
    np.cumsum(pops, out=prefix[1:])
    bounds = join_plan.bounds
    return prefix[bounds[1:]] - prefix[bounds[:-1]]


# ----------------------------------------------------------------------
# Vertex-coloring partitioner
# ----------------------------------------------------------------------
#
# PIM-TC's insight for hardware with expensive inter-core communication:
# color the vertices with C colors and give each of the Binom(C+2, 3)
# color triples {x <= y <= z} its own processing unit.  A triangle's
# three vertex colors form a multiset that names exactly one triple, and
# all three of its edges have color pairs contained in that triple — so
# a shard holding every edge whose color pair is a sub-multiset of its
# triple can count all of its triangles *locally*.  Each edge lands in
# exactly C shards (one per choice of third color), which is the whole
# communication bill: C× edge replication up front, zero slice traffic
# at query time.
#
# Counting *exactly* the triangles of the shard's multiset needs one
# refinement: the edges induced by a triple T also close triangles whose
# multiset is a strict sub-multiset pattern of T (e.g. an {a,a,a}
# triangle lies inside every {a,a,x} shard's edge set).  Each shard
# therefore splits its work into **lanes**, one per distinct witness
# color r in T: the lane's pivot edges are those whose color pair equals
# the multiset T ∖ {r}, joined against a column structure holding only
# third-vertices of color r.  Removing an element from a multiset is
# injective, so a triangle with multiset exactly T is counted by exactly
# one lane of exactly one shard — and by none elsewhere.  A shard has 3
# lanes when its triple's colors are distinct, 2 when two coincide, and
# 1 when monochromatic.  One array is never colored: C=1 would be one
# shard with one unmasked lane, which is the single position shard.


def num_color_shards(colors: int) -> int:
    """Shards induced by ``colors`` vertex colors: ``Binom(colors+2, 3)``."""
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    return colors * (colors + 1) * (colors + 2) // 6


def min_colors(num_arrays: int) -> int:
    """Smallest color count whose shard count covers ``num_arrays``.

    ``--shard-by=coloring`` asks for at least ``num_arrays`` independent
    units; the triple construction quantises that to the next
    ``Binom(C+2, 3)``: 1 → 1 (C=1), 4 → 4 (C=2), 16 → 20 (C=4),
    32 → 35 (C=5).
    """
    if num_arrays < 1:
        raise ArchitectureError(f"num_arrays must be >= 1, got {num_arrays}")
    colors = 1
    while num_color_shards(colors) < num_arrays:
        colors += 1
    return colors


def color_triples(colors: int) -> list[tuple[int, int, int]]:
    """All color multisets ``{x <= y <= z}``, lexicographic — shard ids."""
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    return [
        (x, y, z)
        for x in range(colors)
        for y in range(x, colors)
        for z in range(y, colors)
    ]


def assign_colors(
    num_vertices: int, colors: int, seed: int = 0
) -> np.ndarray:
    """Deterministic seeded vertex coloring (splitmix64 finalizer).

    Hash-based rather than ``vertex % colors`` so that structured vertex
    orderings (BFS, degree sort, file order) cannot correlate with the
    color classes and skew the shard sizes; the same ``(num_vertices,
    colors, seed)`` always produces the same coloring.
    """
    if num_vertices < 0:
        raise ArchitectureError(f"num_vertices must be >= 0, got {num_vertices}")
    if colors < 1:
        raise ArchitectureError(f"colors must be >= 1, got {colors}")
    x = np.arange(num_vertices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x += np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(colors)).astype(np.int64)


def _triple_lanes(triple: tuple[int, int, int]) -> list[tuple[int, tuple[int, int]]]:
    """The distinct ``(witness_color, pivot_pair)`` lanes of one triple.

    Removing one element from the multiset is injective, so distinct
    witness colors give distinct pivot pairs and each edge color pair
    contained in the triple matches exactly one lane.
    """
    lanes: list[tuple[int, tuple[int, int]]] = []
    for witness in dict.fromkeys(triple):
        remaining = list(triple)
        remaining.remove(witness)
        lanes.append((witness, (remaining[0], remaining[1])))
    return lanes


def _color_palettes(colors: np.ndarray, num_colors: int, sliced: SlicedMatrix):
    """``(C, slices_per_row, slice_bytes)`` payload masks: entry ``[r, s]``
    sets the bits of slice ``s`` whose column vertex has color ``r``."""
    bits = sliced.slice_bits
    grid = np.full(sliced.slices_per_row * bits, -1, dtype=np.int64)
    grid[: colors.size] = colors
    member = grid.reshape(1, -1, bits) == np.arange(num_colors).reshape(-1, 1, 1)
    return np.packbits(member, axis=2, bitorder="little")


def _payload_colors(
    data: np.ndarray, slice_ids: np.ndarray, palettes: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Per payload row, the bitmask (``bits[r]`` for color ``r``) of the
    colors its vertices carry — one AND of the payload words with each
    palette."""
    wide = bitops.word_view(data)
    if wide is not None:
        data, palettes = wide, palettes.view(wide.dtype)
    total = data.shape[0]
    present = np.zeros(total, dtype=bits.dtype)
    chunk = max(1, engine.CONJUNCTION_CHUNK_LANES // max(data.shape[1], 1))
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        block = data[start:stop]
        ids = slice_ids[start:stop]
        for bit, palette in zip(bits, palettes):
            masked = np.take(palette, ids, axis=0)
            np.bitwise_and(masked, block, out=masked)
            present[start:stop] |= masked.any(axis=1) * bit
    return present


def _slice_colors(sliced, palettes: np.ndarray, bits: np.ndarray, present=None):
    """:func:`_payload_colors` of a structure's payload (``present`` when
    already computed); a :class:`SliceWindow`'s diagonal slices count
    only the colors on the window's side."""
    if present is None:
        present = _payload_colors(sliced.data, sliced.slice_ids, palettes, bits)
    if isinstance(sliced, SliceWindow):
        present = present.copy()
        positions, rows = sliced.diagonal_positions()
        ids = sliced.slice_ids[positions]
        side = sliced.data[positions] & sliced.side_masks(rows, ids)
        present[positions] = _payload_colors(side, ids, palettes, bits)
    return present


def _color_popcounts(
    row_sliced, col_sliced, row_positions, col_positions, pair_bounds, palettes,
    diagonal,
) -> np.ndarray:
    """``(classes, C)`` int64: per edge color class and color ``r``, the
    sum of ``popcount(row & col & P_r[s])`` over the class's plan pairs.

    The pairs come grouped by class, class ``k`` at
    ``pair_bounds[k]:pair_bounds[k + 1]``, with ``diagonal`` their masks
    (:func:`engine.conjunctions`).  One chunked pass of
    :func:`engine.conjunctions` with one AND and popcount per color, so
    memory stays O(pairs), not O(pairs × C).
    """
    totals = np.zeros((pair_bounds.size - 1, palettes.shape[0]), dtype=np.int64)
    pair_slices = row_sliced.slice_ids[row_positions]
    words = scratch = None
    for start, anded, counts in engine.conjunctions(
        row_sliced.data, col_sliced.data, row_positions, col_positions,
        diagonal=diagonal,
    ):
        if words is None:
            words, scratch = palettes.view(anded.dtype), np.empty_like(anded)
        stop = start + anded.shape[0]
        masked = scratch[: anded.shape[0]]
        slices = pair_slices[start:stop]
        # The non-empty classes this chunk spans, and where each begins.
        spanned = np.arange(
            np.searchsorted(pair_bounds, start, side="right") - 1,
            np.searchsorted(pair_bounds, stop - 1, side="right"),
        )
        spanned = spanned[pair_bounds[spanned + 1] > pair_bounds[spanned]]
        begins = np.maximum(pair_bounds[spanned], start) - start
        for color, palette in enumerate(words):
            np.take(palette, slices, axis=0, out=masked)
            np.bitwise_and(masked, anded, out=masked)
            np.bitwise_count(masked, out=counts)
            totals[spanned, color] += np.add.reduceat(
                counts, begins, axis=0, dtype=np.int64
            ).sum(axis=1)
    return totals


def _reordered_diagonal(join_plan, pair_order: np.ndarray):
    """The plan's diagonal ``(pairs, masks)`` in the pair order
    ``pair_order`` (a selection of plan pairs), ``None`` when empty."""
    if join_plan.diagonal is None:
        return None
    flags = np.zeros(join_plan.num_pairs, dtype=bool)
    flags[join_plan.diagonal_pairs] = True
    pairs = np.flatnonzero(flags[pair_order])
    which = np.searchsorted(join_plan.diagonal_pairs, pair_order[pairs])
    return pairs, np.take(join_plan.diagonal_masks, which, axis=0)


def _coloring_shards(
    config, row_sliced, col_sliced, sources, destinations, join_plan
) -> list[_Shard]:
    """The color-triple shards of a run, priced from the count plan.

    For a pivot ``(u, v)`` of lane ``(T, r)``, ``T = {c(u), c(v), r}``: a
    shard's row structure holds the bits of row ``u`` whose vertex colors
    lie in ``T ∖ {c(u)} = {c(v), r}``, and the lane's column structure
    the bits of column ``v`` of color ``r``.  So the lane holds a plan
    pair of ``(u, v)`` exactly when the row slice holds a vertex of color
    ``c(v)`` or ``r`` and the column slice one of color ``r``, and the
    pair adds ``popcount(row & col & P_r[s])`` to the count, ``P_r[s]``
    marking the color-``r`` vertices of slice ``s`` (outside the lane's
    pairs that AND is empty, so its class's pairs can all be summed).  A
    shard loads the slices of each touched row ``u`` that hold a color
    of ``T ∖ {c(u)}``; that sizes its row region and each lane's row
    writes.  Shards come in :func:`color_triples` order, lanes in
    witness order.
    """
    num_colors = min_colors(config.num_arrays)
    if num_colors > 64:
        raise ArchitectureError(
            f"coloring prices at most 64 colors ({num_color_shards(64)} "
            f"arrays); {config.num_arrays} arrays need {num_colors}"
        )
    num_classes = num_colors * num_colors
    colors = assign_colors(row_sliced.num_rows, num_colors, config.seed)
    # An edge's color class is its color pair (lo, hi) as lo * C + hi,
    # in the narrowest dtype, which makes the stable sort a radix sort.
    src_colors, dst_colors = colors[sources], colors[destinations]
    edge_class = (
        np.minimum(src_colors, dst_colors) * num_colors
        + np.maximum(src_colors, dst_colors)
    ).astype(np.min_scalar_type(num_classes))
    class_order = np.argsort(edge_class, kind="stable")
    class_bounds = np.searchsorted(edge_class[class_order], np.arange(num_classes + 1))
    mask_dtype = np.min_scalar_type((1 << num_colors) - 1)
    bits = np.left_shift(
        np.ones(num_colors, dtype=mask_dtype), np.arange(num_colors, dtype=mask_dtype)
    )
    # The plan pairs grouped by class, plan order within each class.
    counts_by_class = join_plan.pair_counts[class_order]
    pair_order = expand_runs(join_plan.bounds[class_order], counts_by_class)
    pair_starts = np.zeros(counts_by_class.size + 1, dtype=np.int64)
    np.cumsum(counts_by_class, out=pair_starts[1:])
    pair_bounds = pair_starts[class_bounds]
    pair_rows = join_plan.row_positions[pair_order]
    pair_cols = join_plan.col_positions[pair_order]
    palettes = _color_palettes(colors, num_colors, row_sliced)
    totals = _color_popcounts(
        row_sliced, col_sliced, pair_rows, pair_cols, pair_bounds, palettes,
        _reordered_diagonal(join_plan, pair_order),
    )
    # Each pair's slice color masks and its destination's color bit.
    payload = _payload_colors(row_sliced.data, row_sliced.slice_ids, palettes, bits)
    row_masks = _slice_colors(row_sliced, palettes, bits, payload)
    pair_row_masks = row_masks[pair_rows]
    shared = payload if col_sliced.data is row_sliced.data else None
    pair_col_masks = _slice_colors(col_sliced, palettes, bits, shared)[pair_cols]
    pair_dst_bits = bits[np.repeat(dst_colors[class_order], counts_by_class)]
    def lane_pairs(start: int, stop: int, witness_bit) -> np.ndarray:
        """Class pairs whose row slice holds color c(v) or r and whose
        column slice holds color r."""
        keep = ((pair_col_masks[start:stop] & witness_bit) != 0) & (
            (pair_row_masks[start:stop] & (pair_dst_bits[start:stop] | witness_bit))
            != 0
        )
        return pair_order[start:stop][keep]

    loads: dict[int, np.ndarray] = {}
    window_starts, window_counts = row_sliced.row_slice_ranges(
        np.arange(row_sliced.num_rows, dtype=np.int64)
    )

    def color_loads(wanted) -> np.ndarray:
        """Per row: valid slices holding a vertex of a ``wanted`` color."""
        key = int(wanted)
        if key not in loads:
            # Summing bools into int32 is ~3x faster than into int64.
            dtype = np.int32 if row_masks.size < 2**31 else np.int64
            prefix = np.zeros(row_masks.size + 1, dtype=dtype)
            np.cumsum((row_masks & wanted) != 0, out=prefix[1:], dtype=dtype)
            loads[key] = prefix[window_starts + window_counts] - prefix[window_starts]
        return loads[key]

    # Each class's source rows, split by their color (the positions of a
    # class ascend, so its sources are sorted).
    class_rows = {}
    for lo in range(num_colors):
        for hi in range(lo, num_colors):
            k = lo * num_colors + hi
            heads = _run_heads(
                sources[class_order[class_bounds[k]: class_bounds[k + 1]]]
            )
            own = colors[heads] == lo
            class_rows[k] = ((lo, heads[own]), (hi, heads[~own]))
    shards = []
    for triple in color_triples(num_colors):
        touched = np.zeros(colors.size, dtype=bool)
        shard_loads = []
        lanes = []
        for witness, (lo, hi) in _triple_lanes(triple):
            k = lo * num_colors + hi
            # A row of color c loads its slices of a color in T minus c.
            lane_loads = []
            for color, rows in class_rows[k]:
                rest = list(triple)
                rest.remove(color)
                lane_loads.append(color_loads(np.bitwise_or.reduce(bits[rest]))[rows])
                touched[rows] = True
            shard_loads += lane_loads
            lanes.append(
                _Lane(
                    select=partial(
                        lane_pairs, pair_bounds[k], pair_bounds[k + 1], bits[witness]
                    ),
                    edges=int(class_bounds[k + 1] - class_bounds[k]),
                    row_writes=int(sum(part.sum() for part in lane_loads)),
                    accumulator=int(totals[k, witness]),
                )
            )
        shards.append(
            _Shard(int(np.count_nonzero(touched)), np.concatenate(shard_loads), lanes)
        )
    return shards
