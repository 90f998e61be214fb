"""The gather → AND → popcount executor and the triangle-witness passes.

TCIM's core primitive is bulk bitwise AND → popcount over sliced
adjacency rows (Algorithm 1, Fig. 2).  Every workload consumes the same
joined (row, col) slice-pair positions; only the reduction differs:

* **triangle counting** sums every pair popcount into one scalar
  accumulator (the paper's pipelined bit counter): a count run prices
  its arrays from the count plan
  (:func:`repro.core.sharding.price_partition`), a delta-join term runs
  here;
* **common-neighbour scores** reduce the pair popcounts *per edge*
  (``per_edge=True``) — over the symmetric structure joined with itself
  each directed pair's sum is ``|N(u) ∩ N(v)|``;
* **triangle witnesses** (supports, clustering, k-truss peeling) keep
  the ANDed bits themselves: :func:`triangle_witnesses` reads each
  common neighbour off the count plan's conjunctions and names every
  triangle once by its three edge ids, and :func:`pair_witnesses` does
  the same for a few vertex pairs.

:func:`execute_workload` is the plan-free executor of ad-hoc edge
lists: each delta-join term (:func:`repro.core.incremental.symmetric_delta`)
and a session's probe batch (:meth:`repro.api.TCIMSession.pair_scores`)
call it directly.  A delta join calls it once per term and array that
has an edge that can close a triangle: terms 2–3 join only the delta
edges at a vertex with a second delta edge, so a batch whose endpoints
are all distinct (every one-edge apply) is one call per array.  It shares :func:`repro.core.engine.join_batches` with
the plan compiler, so a count plan holds exactly the pairs it would
join.  Events and cache statistics do not depend on the reduction: the
array executes the same gathers, ANDs and popcounts however the host
reduces them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import engine
from repro.core.accelerator import EventCounts
from repro.core.reuse import CacheStatistics, simulate_key_trace
from repro.core.slicing import SliceWindow, expand_runs
from repro.errors import ArchitectureError

__all__ = [
    "WorkloadResult",
    "execute_workload",
    "pair_witnesses",
    "triangle_witnesses",
]


def triangle_witnesses(
    row_sliced,
    col_sliced,
    sources: np.ndarray,
    destinations: np.ndarray,
    plan=None,
    *,
    chunk_edges: int | None = None,
    store=None,
) -> np.ndarray:
    """Every triangle exactly once, as the ids of its three edges.

    Takes a count run's inputs: the upper and lower structures (plain
    or :class:`~repro.core.slicing.SliceWindow` sides) and the
    upper-triangular edge list (CSR order) they join.  ``plan`` is the
    join plan of exactly that list (a session passes its resident count
    plan), and ``None`` compiles a throwaway one (``chunk_edges`` /
    ``store`` as for :func:`repro.core.plan.build_join_plan`).

    Each matched slice pair of edge ``(u, v)`` is ANDed in the chunked
    gather of :func:`repro.core.engine.conjunctions`; a set bit of slice
    ``k`` at position ``t`` is a common neighbour ``w = k·|S| + t``.
    Keeping only ``u < w < v`` (which drops the other side's bits of a
    window's diagonal slice) names each triangle ``u < w < v`` once, at
    its edge ``(u, v)``.  Returns a ``(t, 3)`` int64 array of edge ids
    ``(e_uv, e_uw, e_wv)``, ordered by ``e_uv`` then ``w`` and allocated
    through ``store``.  Edge id ``i`` is the ``i``-th edge of the list,
    so each id occurs as often as its edge's triangle support.
    """
    from repro.core.plan import _alloc, build_join_plan

    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    if plan is None:
        plan = build_join_plan(
            row_sliced, col_sliced, sources, destinations,
            chunk_edges=chunk_edges, store=store,
        )
    if plan.num_edges != sources.size:
        raise ArchitectureError(
            f"join plan covers {plan.num_edges} edges but the witness pass "
            f"supplies {sources.size}; compile a plan for this edge list"
        )
    stale = plan.staleness(row_sliced, col_sliced)
    if stale:
        raise ArchitectureError(f"stale join plan: {stale}; rebuild or patch it")
    bits = row_sliced.slice_bits
    pair_edges = np.repeat(np.arange(sources.size, dtype=np.int64), plan.pair_counts)
    pair_slices = row_sliced.slice_ids[plan.row_positions]
    width = bits // 8
    edge_parts: list[np.ndarray] = []
    witness_parts: list[np.ndarray] = []
    for start, anded, _ in engine.conjunctions(
        row_sliced.data, col_sliced.data, plan.row_positions, plan.col_positions
    ):
        flat = anded.view(np.uint8).reshape(-1)
        hot = np.flatnonzero(flat)
        which, bit = np.nonzero(
            np.unpackbits(flat[hot][:, None], axis=1, bitorder="little")
        )
        byte = hot[which]
        pair = start + byte // width
        witness = pair_slices[pair] * bits + (byte % width) * 8 + bit
        edges = pair_edges[pair]
        keep = (witness > sources[edges]) & (witness < destinations[edges])
        edge_parts.append(edges[keep])
        witness_parts.append(witness[keep])
    triangles = _alloc(store, (sum(part.size for part in edge_parts), 3), np.int64)
    if not triangles.size:
        return triangles
    uv = np.concatenate(edge_parts)
    w = np.concatenate(witness_parts)
    triangles[:, 0] = uv
    scale = np.int64(max(row_sliced.num_rows, 1))
    keys = sources * scale + destinations
    for column, (left, right) in ((1, (sources[uv], w)), (2, (w, destinations[uv]))):
        wanted = left * scale + right
        # Sorted needles search ~3x faster than scattered ones.
        order = np.argsort(wanted)
        found = np.searchsorted(keys, wanted[order])
        if found.max() >= keys.size or bool((keys[found] != wanted[order]).any()):
            raise ArchitectureError(
                "a witness bit names a missing edge: the slice structures "
                "and the edge list disagree"
            )
        triangles[order, column] = found
    return triangles


def pair_witnesses(
    sym, sources: np.ndarray, destinations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every common neighbour of a few vertex pairs, as set bits.

    The :meth:`repro.api.TCIMSession.common_neighbors_many` join, keeping
    the ANDed bits instead of their popcounts: each valid slice of row
    ``sources[i]`` of the symmetric structure ``sym`` is ANDed with the
    same slice of row ``destinations[i]``, and every set bit ``w`` is a
    common neighbour.  Both sides' slices are keyed ``i * slices per row
    + slice id``, ascending, so one ``searchsorted`` matches them.
    Returns ``(pairs, witnesses)``: pair index and neighbour, ascending
    by pair, then by neighbour.  For an edge ``(u, v)`` these are its
    triangles ``{u, v, w}``.
    """
    sides = []
    for rows in (sources, destinations):
        starts, counts = sym.row_slice_ranges(rows)
        positions = expand_runs(starts, counts)
        pairs = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        keys = pairs * sym.slices_per_row + sym.slice_ids[positions]
        sides.append((positions, pairs, keys))
    (left, pairs, keys), (right, _, right_keys) = sides
    found = np.searchsorted(right_keys, keys)
    shared = found < right_keys.size
    shared[shared] = right_keys[found[shared]] == keys[shared]
    left, right = left[shared], right[found[shared]]
    slot, witnesses = sym.decode(
        sym.slice_ids[left], sym.data[left] & sym.data[right]
    )
    return pairs[shared][slot], witnesses


@dataclass
class WorkloadResult:
    """Outcome of one :func:`execute_workload` run.

    ``accumulator`` is the raw popcount sum, ``per_edge`` the popcount
    sum of each edge (``None`` unless the run asked for it), and
    ``events`` / ``cache_stats`` the array's.
    """

    accumulator: int
    per_edge: np.ndarray | None
    events: EventCounts
    cache_stats: CacheStatistics


def execute_workload(
    row_sliced,
    col_sliced,
    sources: np.ndarray,
    destinations: np.ndarray,
    column_capacity: int,
    policy,
    seed: int,
    *,
    row_writes: int | None = None,
    per_edge: bool = False,
) -> WorkloadResult:
    """Run the dataflow over one edge list on one simulated array.

    ``(sources, destinations)`` is an oriented edge list in the
    reference iteration order (rows ascending, successors ascending
    within a row): a delta-join term or a batch of probe pairs, joined
    against two plain :class:`~repro.core.slicing.SlicedMatrix` sides.
    Every valid slice pair of every edge is gathered, ANDed and
    popcounted, and its column slice goes through a private cache of
    ``column_capacity`` slices (``policy`` and ``seed`` as for
    :func:`~repro.core.reuse.simulate_key_trace`).  ``row_writes`` is
    the run's row-slice WRITE count; ``None`` loads each row the list
    touches once.  ``per_edge`` also returns each edge's popcount sum:
    over the symmetric structure joined with itself, the
    common-neighbour score ``|N(u) ∩ N(v)|`` of each pair.

    A :class:`~repro.core.slicing.SliceWindow` side raises
    :class:`~repro.errors.ArchitectureError`: its diagonal slices hold
    the other side's bits, which only a count plan masks, so window
    joins price through :func:`repro.core.sharding.price_partition`.
    """
    if isinstance(row_sliced, SliceWindow) or isinstance(col_sliced, SliceWindow):
        raise ArchitectureError(
            "execute_workload joins plain SlicedMatrix sides; a SliceWindow's "
            "diagonal slices need the count plan's masks, so price window "
            "joins with repro.core.sharding.price_partition"
        )
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    num_edges = int(sources.size)
    if row_writes is None:
        _, touched_counts = row_sliced.row_slice_ranges(np.unique(sources))
        row_writes = int(touched_counts.sum())
    accumulator = 0
    matches = 0
    sums = np.zeros(num_edges, dtype=np.int64) if per_edge else None
    trace_parts: list[np.ndarray] = []
    workspace = engine._Workspace()
    for row_hit, col_hit, edge_ids, trace_keys in engine.join_batches(
        row_sliced, col_sliced, sources, destinations,
        engine.DEFAULT_BATCH_CANDIDATES, with_edge_ids=per_edge,
    ):
        if per_edge:
            pops = engine.pair_popcounts(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
            accumulator += int(pops.sum())
            # Float64 bincount weights are exact here: every pair count
            # and partial sum is bounded far below 2**53.
            sums += np.bincount(
                edge_ids, weights=pops.astype(np.float64), minlength=num_edges
            ).astype(np.int64)
        else:
            accumulator += engine.pair_popcount(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
        trace_parts.append(trace_keys)
        matches += int(row_hit.size)
    trace = (
        np.concatenate(trace_parts) if trace_parts else np.empty(0, dtype=np.int64)
    )
    cache_stats = simulate_key_trace(trace, column_capacity, policy=policy, seed=seed)
    events = _array_events(
        num_edges, row_sliced.slices_per_row, row_writes, matches, cache_stats
    )
    return WorkloadResult(accumulator, sums, events, cache_stats)


def _array_events(
    num_edges: int,
    slices_per_row: int,
    row_writes: int,
    pairs: int,
    cache_stats: CacheStatistics,
) -> EventCounts:
    """The events of one array's pass over ``num_edges`` edges whose
    ``pairs`` matched slice pairs ran the cache trace ``cache_stats``."""
    return EventCounts(
        row_slice_writes=row_writes,
        col_slice_writes=cache_stats.writes,
        col_slice_hits=cache_stats.hits,
        and_operations=pairs,
        bitcount_operations=pairs,
        index_lookups=num_edges,
        edges_processed=num_edges,
        dense_pair_operations=num_edges * slices_per_row,
    )
