"""Generic bulk-bitwise subgraph kernels over the shared join machinery.

TCIM's core primitive is not "triangles" — it is bulk bitwise AND →
popcount over sliced adjacency rows.  The journal extension of the paper
generalises the architecture beyond triangle counting, and every kernel
of that family consumes the *same* joined (row, col) slice-pair
positions; only the reduction differs:

* **triangle counting** sums every pair popcount into one scalar
  accumulator (the paper's pipelined bit counter);
* **edge support** (common-neighbour scores) reduces the pair
  popcounts *per oriented edge* — over the symmetric orientation each
  directed edge's popcount is ``|N(u) ∩ N(v)|``;
* **triangle witnesses** (supports, clustering, k-truss peeling) keep
  the ANDed bits themselves: :func:`triangle_witnesses` reads each
  common neighbour off the count plan's conjunctions and names every
  triangle once by its three edge ids, and :func:`pair_witnesses` does
  the same for a few vertex pairs.

:func:`execute_workload` is the one executor behind the popcount
kernels (the witness pass shares its chunked gather → AND,
:func:`repro.core.engine.conjunctions`): the generalisation of the
batched triangle dataflow
(:func:`repro.core.engine.execute_batched` now delegates here) that can
additionally materialise per-edge popcount sums.  It shares
:func:`repro.core.engine.join_batches` and the resident
:class:`repro.core.plan.JoinPlan` fast path, so the compiled valid-pair
index — and its incremental patching — serves *every* workload, not
just triangle counts.  Events and cache statistics are identical to the
counting path field by field: the array executes the same gathers, ANDs
and popcounts regardless of how the host reduces them.

A :class:`BitwiseKernel` is deliberately small: a flag saying whether
per-edge popcount sums must be materialised, plus a ``finalize`` that
turns ``(accumulator, per_edge, sources, destinations)`` into the
workload's value.  The executor owns all the heavy machinery.  Every
call runs one workload over one set of structures; the serving tier
batches a session's probes into one call
(:meth:`repro.api.TCIMSession.pair_scores`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import engine
from repro.core.reuse import CacheStatistics, simulate_key_trace
from repro.core.slicing import SliceWindow, expand_runs
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = [
    "BitwiseKernel",
    "CountKernel",
    "EdgeSupportKernel",
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


class BitwiseKernel:
    """One workload of the gather → AND → popcount family.

    ``per_edge`` tells :func:`execute_workload` whether per-edge popcount
    sums must be materialised (the counting fast path keeps a scalar
    accumulator and never allocates them).  ``finalize`` receives the
    scalar ``accumulator``, the per-edge int64 array (``None`` unless
    ``per_edge``), and the oriented edge arrays, and returns the
    workload's value.
    """

    name = "bitwise"
    per_edge = False

    def finalize(self, accumulator, per_edge, sources, destinations):
        raise NotImplementedError


class CountKernel(BitwiseKernel):
    """Triangle counting: the raw popcount accumulator (exactly what
    :func:`repro.core.engine.execute_batched` returns — the triangle
    count over the upper orientation, six times it over the symmetric
    one)."""

    name = "count"
    per_edge = False

    def finalize(self, accumulator, per_edge, sources, destinations):
        return accumulator


class EdgeSupportKernel(BitwiseKernel):
    """Per-oriented-edge popcount sums.

    Over the *symmetric* orientation the value of directed edge
    ``(u, v)`` is ``|N(u) ∩ N(v)|`` — the triangle support of the
    undirected edge ``{u, v}``, and the common-neighbour score of the
    (not necessarily linked) pair.  Over the ``"upper"`` orientation it
    is the oriented successor intersection, whose sum is the triangle
    count.
    """

    name = "support"
    per_edge = True

    def finalize(self, accumulator, per_edge, sources, destinations):
        return per_edge


@dataclass
class WorkloadResult:
    """Outcome of one :func:`execute_workload` run.

    ``value`` is whatever the kernel's ``finalize`` produced;
    ``accumulator`` is always the raw popcount sum, and
    ``events``/``cache_stats`` match the counting executor field by
    field.
    """

    value: object
    accumulator: int
    events: dict
    cache_stats: CacheStatistics


def execute_workload(
    kernel: BitwiseKernel,
    graph: Graph | None,
    row_sliced,
    col_sliced,
    column_capacity: int,
    policy,
    seed: int,
    batch_candidates: int = engine.DEFAULT_BATCH_CANDIDATES,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
    row_writes: int | None = None,
    plan=None,
) -> WorkloadResult:
    """Run one bulk-bitwise workload over the shared dataflow.

    The argument surface matches :func:`repro.core.engine.execute_batched`
    (which is now a thin :class:`CountKernel` delegation to this
    function) plus the ``kernel``.  ``plan`` passes a resident
    :class:`repro.core.plan.JoinPlan` compiled against these structures
    and this edge list: the merge-join is skipped and per-edge reductions
    run over the plan's ``pair_counts`` runs — so the one compiled
    valid-pair index serves every workload.  All paths (planned or not,
    whole-list or one shard's ``edges``) produce identical values, events
    and cache statistics.  Over :class:`~repro.core.slicing.SliceWindow`
    sides a run without ``plan`` compiles a transient one, so their
    diagonal slices are masked on the one planned path.
    """
    if batch_candidates < 1:
        batch_candidates = 1
    if plan is not None:
        if edges is None and graph is not None:
            # The edge count is known without materialising the list; a
            # plan compiled for a different edge list must not be trusted
            # for its event accounting (mirrors the sharded
            # orchestrator's check).
            if plan.num_edges != graph.num_edges:
                raise ArchitectureError(
                    f"join plan covers {plan.num_edges} edges but the "
                    f"graph has {graph.num_edges}; compile a plan for "
                    "this edge list"
                )
        return _execute_planned(
            kernel, row_sliced, col_sliced, column_capacity, policy, seed,
            plan, edges=edges, row_writes=row_writes,
        )
    if edges is None:
        sources, destinations = engine.oriented_edges(graph, "upper")
        # Rows without successors carry no valid slices, so the per-row sum
        # of the reference loop equals the total valid-slice count.
        row_writes = row_sliced.num_valid_slices
    else:
        sources, destinations = edges
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if row_writes is None:
            # A shard loads only the rows it owns edges for, once each.
            _, touched_counts = row_sliced.row_slice_ranges(np.unique(sources))
            row_writes = int(touched_counts.sum())
    if isinstance(row_sliced, SliceWindow) or isinstance(col_sliced, SliceWindow):
        from repro.core.plan import build_join_plan

        plan = build_join_plan(
            row_sliced, col_sliced, sources, destinations, batch_candidates
        )
        return _execute_planned(
            kernel, row_sliced, col_sliced, column_capacity, policy, seed,
            plan, edges=(sources, destinations), row_writes=row_writes,
        )
    num_edges = int(sources.size)
    events = engine._base_events(num_edges, row_sliced.slices_per_row, row_writes)
    accumulator = 0
    matches = 0
    per_edge = np.zeros(num_edges, dtype=np.int64) if kernel.per_edge else None
    trace_parts: list[np.ndarray] = []
    workspace = engine._Workspace()
    for row_hit, col_hit, edge_ids, trace_keys in engine.join_batches(
        row_sliced, col_sliced, sources, destinations, batch_candidates,
        with_edge_ids=kernel.per_edge,
    ):
        if kernel.per_edge:
            pops = engine.pair_popcounts(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
            accumulator += int(pops.sum())
            # Float64 bincount weights are exact here: every pair count
            # and partial sum is bounded far below 2**53.
            per_edge += np.bincount(
                edge_ids, weights=pops.astype(np.float64), minlength=num_edges
            ).astype(np.int64)
        else:
            accumulator += engine.pair_popcount(
                row_sliced.data, col_sliced.data, row_hit, col_hit, workspace
            )
        trace_parts.append(trace_keys)
        matches += int(row_hit.size)
    events["and_operations"] = matches
    events["bitcount_operations"] = matches
    trace = (
        np.concatenate(trace_parts) if trace_parts else np.empty(0, dtype=np.int64)
    )
    cache_stats = simulate_key_trace(
        trace, column_capacity, policy=policy, seed=seed
    )
    events["col_slice_writes"] = cache_stats.writes
    events["col_slice_hits"] = cache_stats.hits
    return WorkloadResult(
        value=kernel.finalize(accumulator, per_edge, sources, destinations),
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
    )


def _execute_planned(
    kernel: BitwiseKernel,
    row_sliced,
    col_sliced,
    column_capacity: int,
    policy,
    seed: int,
    plan,
    edges: tuple[np.ndarray, np.ndarray] | None,
    row_writes: int | None,
) -> WorkloadResult:
    """The resident-plan fast path: gather → AND → popcount, nothing else."""
    stale = plan.staleness(row_sliced, col_sliced)
    if stale:
        raise ArchitectureError(f"stale join plan: {stale}; rebuild or patch it")
    sources = destinations = None
    if edges is None:
        num_edges = plan.num_edges
        row_writes = row_sliced.num_valid_slices
    else:
        sources = np.asarray(edges[0], dtype=np.int64)
        destinations = np.asarray(edges[1], dtype=np.int64)
        num_edges = int(sources.size)
        if num_edges != plan.num_edges:
            raise ArchitectureError(
                f"join plan covers {plan.num_edges} edges but the run "
                f"supplies {num_edges}; compile a plan for this edge list"
            )
        if row_writes is None:
            _, touched_counts = row_sliced.row_slice_ranges(np.unique(sources))
            row_writes = int(touched_counts.sum())
    events = engine._base_events(num_edges, row_sliced.slices_per_row, row_writes)
    per_edge = None
    if kernel.per_edge:
        pops = engine.pair_popcounts(
            row_sliced.data, col_sliced.data, plan.row_positions, plan.col_positions,
            diagonal=plan.diagonal,
        )
        # Reduce each edge's pair run via prefix sums: exact for runs of
        # any length, including the zero-pair edges np.add.reduceat
        # would mis-handle.
        prefix = np.zeros(pops.size + 1, dtype=np.int64)
        np.cumsum(pops, out=prefix[1:])
        bounds = plan.bounds
        per_edge = prefix[bounds[1:]] - prefix[bounds[:-1]]
        accumulator = int(prefix[-1])
    else:
        accumulator = engine.pair_popcount(
            row_sliced.data, col_sliced.data, plan.row_positions, plan.col_positions,
            diagonal=plan.diagonal,
        )
    matches = plan.num_pairs
    events["and_operations"] = matches
    events["bitcount_operations"] = matches
    cache_stats = plan.cache_statistics(column_capacity, policy, seed)
    events["col_slice_writes"] = cache_stats.writes
    events["col_slice_hits"] = cache_stats.hits
    return WorkloadResult(
        value=kernel.finalize(accumulator, per_edge, sources, destinations),
        accumulator=accumulator,
        events=events,
        cache_stats=cache_stats,
    )
