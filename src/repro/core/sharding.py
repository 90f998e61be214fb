"""Sharded multi-array execution (paper Fig. 4 bank organisation).

The TCIM chip is not one monolithic array: Fig. 4 organises it as banks of
mats of sub-arrays — 128 sub-arrays in the paper's configuration — each
with its own row buffer and local bit counter.  The analytic layer
(:mod:`repro.arch.pipeline`) has always *priced* that parallelism by
Amdahl-scaling a single-array run; this module produces the per-array
events the model prices instead:

1. a pluggable **partitioner** splits the oriented edge list across
   ``num_arrays`` simulated arrays;
2. :func:`run_shard` — the one per-shard function every multi-array pass
   goes through — runs each shard on its private simulated array: a row
   region sized to the rows it touches, a column-slice cache covering the
   rest of its share of the array capacity, and one
   :func:`repro.core.kernels.execute_workload` pass per lane;
3. per-shard results are merged: the triangle accumulator and the
   additive :class:`~repro.core.accelerator.EventCounts` sum exactly,
   cache statistics merge element-wise, and the per-shard breakdown is
   kept so the architecture model can price the *measured* critical path
   (slowest shard) instead of a uniform analytic scaling.

Shards run one after another in the calling process.  The arrays are a
modelled organisation: the host only has to produce each array's
events, and none of the multi-process planes measured on the host beat
the single-array resident sweep (EXPERIMENTS.md §10).

Partitioning strategy matters as much as unit count — real-PIM follow-up
work (Asquini et al.) shows per-bank load balance dominates multi-array
triangle-counting performance — so four partitioners are provided.  The
first three split *positions* of one shared oriented edge list (a
:class:`ShardPlan`): every shard reads the same global slice structures
and the per-shard results are merged afterwards.

* ``"edges"`` — contiguous edge ranges, the cheapest split (a row's edges
  may straddle a boundary, costing duplicate row-slice loads);
* ``"rows"`` — row round-robin (``row % num_arrays``), keeping each row's
  edges on one array;
* ``"degree"`` — greedy longest-processing-time assignment of whole rows
  by successor count, balancing expected AND work across arrays.

The fourth, ``"coloring"`` (PIM-TC; Asquini et al., "Accelerating
Triangle Counting with Real Processing-in-Memory Systems"), instead
makes each shard *self-contained*: ``C`` vertex colors induce
``Binom(C+2, 3)`` shards, one per color triple ``{x <= y <= z}``, and
each shard owns its own oriented edge arrays, its own locally built
:class:`SlicedMatrix` structures and its own compiled
:class:`~repro.core.plan.JoinPlan` — a :class:`ShardContext`.  Every
triangle's vertex-color multiset names exactly one shard, so the
per-shard counts sum to the exact total with **zero cross-shard slice
traffic**.  See :func:`build_shard_contexts` for the construction and
the lane decomposition that keeps monochromatic triples exact.

Invariants (asserted by ``tests/test_sharding.py`` and
``tests/test_coloring.py``): ``num_arrays=1`` reproduces the
single-array vectorized engine bit for bit; for any ``num_arrays`` the
merged triangle count is exact; position partitioners conserve the
additive event counters (``edges_processed``, ``and_operations``,
``dense_pair_operations``, ...) against their single-array totals,
while coloring replicates each edge into ``C`` contexts (the PIM-TC
trade: ``C×`` the edge volume buys zero communication) and conserves
the merged counters against the field-wise sum of its shards.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from repro.core import kernels
from repro.core.accelerator import EventCounts, array_share, split_capacity
from repro.core.engine import DEFAULT_BATCH_CANDIDATES, oriented_edges
from repro.core.reuse import CacheStatistics
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph.graph import Graph

__all__ = [
    "PARTITIONERS",
    "POSITION_PARTITIONERS",
    "ShardContext",
    "ShardLane",
    "ShardPlan",
    "ShardResult",
    "ShardedOutcome",
    "assign_colors",
    "build_shard_contexts",
    "color_triples",
    "context_balance",
    "execute_contexts",
    "execute_sharded",
    "min_colors",
    "num_color_shards",
    "plan_shards",
    "position_shards",
    "run_shard",
]

#: Partitioners that split positions of one shared oriented edge list
#: (the only values :func:`plan_shards` accepts).
POSITION_PARTITIONERS = ("edges", "rows", "degree")

#: Recognised values of ``AcceleratorConfig.shard_by``: the position
#: partitioners plus ``"coloring"``, which builds self-contained
#: :class:`ShardContext` shards instead of a :class:`ShardPlan`.
PARTITIONERS = POSITION_PARTITIONERS + ("coloring",)


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """Assignment of every oriented-edge position to one simulated array.

    ``assignments[s]`` holds the positions (indices into the oriented
    edge arrays) owned by shard ``s``, ascending — so each shard walks its
    edges in the reference iteration order and its private cache trace
    stays deterministic.  Shards may be empty (more arrays than edges).

    ``orientation`` records which oriented edge list the positions index
    into; :func:`execute_sharded` rejects a plan built for a different
    orientation or a different edge count (the position spaces differ, so
    reusing one silently selects the wrong edges).

    ``eq=False``: ndarray fields make the generated ``__eq__`` ambiguous,
    so plans compare (and hash) by identity.
    """

    num_arrays: int
    shard_by: str
    assignments: tuple[np.ndarray, ...]
    orientation: str = "upper"

    def __post_init__(self) -> None:
        if self.num_arrays < 1:
            raise ArchitectureError(
                f"num_arrays must be >= 1, got {self.num_arrays}"
            )
        if self.shard_by not in POSITION_PARTITIONERS:
            raise ArchitectureError(
                f"a ShardPlan splits positions of a shared edge list, so "
                f"shard_by must be one of {POSITION_PARTITIONERS}, got "
                f"{self.shard_by!r} (coloring builds ShardContexts instead "
                "— see build_shard_contexts)"
            )
        if len(self.assignments) != self.num_arrays:
            raise ArchitectureError(
                f"plan has {len(self.assignments)} shards for "
                f"{self.num_arrays} arrays"
            )

    @property
    def num_edges(self) -> int:
        """Total edges across all shards."""
        return sum(int(positions.size) for positions in self.assignments)

    def edges_per_shard(self) -> list[int]:
        """Edge count of each shard (load-balance diagnostic)."""
        return [int(positions.size) for positions in self.assignments]


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


def plan_shards(
    graph: Graph | None,
    orientation: str,
    num_arrays: int,
    shard_by: str = "edges",
    sources: np.ndarray | None = None,
) -> ShardPlan:
    """Split the oriented edge list of ``graph`` across ``num_arrays``.

    ``sources`` optionally passes the already-materialised oriented
    source array (``oriented_edges(graph, orientation)[0]``) so callers
    that hold it anyway skip a second O(m) expansion — with it given,
    ``graph`` is never touched and may be ``None`` (the incremental
    engine plans shards over delta edge lists without a graph snapshot).
    """
    if num_arrays < 1:
        raise ArchitectureError(f"num_arrays must be >= 1, got {num_arrays}")
    if shard_by == "coloring":
        raise ArchitectureError(
            "the coloring partitioner builds self-contained ShardContexts, "
            "not position assignments; use build_shard_contexts"
        )
    if shard_by not in POSITION_PARTITIONERS:
        raise ArchitectureError(
            f"shard_by must be one of {POSITION_PARTITIONERS}, got {shard_by!r}"
        )
    if sources is None:
        if graph is None:
            raise ArchitectureError(
                "plan_shards needs a graph when sources is not provided"
            )
        sources, _ = oriented_edges(graph, orientation)
    assignments = _PARTITIONER_FUNCS[shard_by](sources, num_arrays)
    return ShardPlan(
        num_arrays=num_arrays,
        shard_by=shard_by,
        assignments=tuple(assignments),
        orientation=orientation,
    )


def position_shards(
    sources: np.ndarray, num_arrays: int, shard_by: str
) -> tuple[np.ndarray, ...]:
    """Position shards of a transient symmetric edge list.

    Workload sweeps and the delta join's inclusion–exclusion terms run
    over the shared symmetric structure, so they always split positions:
    ``"coloring"``, which owns edges only for the resident count
    contexts, falls back to degree-LPT, which balances them best.
    """
    if shard_by == "coloring":
        shard_by = "degree"
    return plan_shards(
        None, "symmetric", num_arrays, shard_by, sources=sources
    ).assignments


def run_shard(
    shard_id: int,
    row_sliced: SlicedMatrix,
    lanes: Sequence[tuple],
    per_array_capacity: int,
    orientation: str,
    policy,
    seed: int,
    *,
    owner: str | None = None,
) -> ShardResult:
    """Execute one shard on its private simulated array.

    A shard is one or more *lanes* over one row structure.  Each lane is
    a ``(sources, destinations, col_sliced, join_plan)`` tuple: an edge
    list in the reference iteration order (rows ascending, successors
    ascending), the column structure it joins against, and optionally
    its compiled :class:`~repro.core.plan.JoinPlan` (``None`` re-derives
    the merge-join, bit-identically).  A position shard is one lane over
    the shared structures; a coloring context has one lane per witness
    color.

    The row region holds the largest valid-slice count of any row the
    lanes touch, and the rest of ``per_array_capacity`` caches column
    slices (:func:`~repro.core.accelerator.split_capacity`, whose
    capacity error names ``owner``, by default ``"shard <id>"``).  Each
    lane then runs a :class:`~repro.core.kernels.CountKernel` through
    :func:`~repro.core.kernels.execute_workload`, paying row-slice
    WRITEs for its own rows and running its own cache trace, and the
    lane results merge into the returned :class:`ShardResult`.
    """
    lane_sources = [lane[0] for lane in lanes]
    touched = np.unique(
        lane_sources[0] if len(lanes) == 1 else np.concatenate(lane_sources)
    )
    _, touched_counts = row_sliced.row_slice_ranges(touched)
    row_region, column_capacity = split_capacity(
        per_array_capacity, touched_counts, owner or f"shard {shard_id}"
    )
    outcomes = []
    for sources, destinations, col_sliced, join_plan in lanes:
        lane_counts = (
            touched_counts
            if len(lanes) == 1
            else row_sliced.row_slice_ranges(np.unique(sources))[1]
        )
        outcomes.append(
            kernels.execute_workload(
                kernels.CountKernel(),
                None,
                row_sliced,
                col_sliced,
                orientation,
                column_capacity,
                policy,
                seed,
                edges=(sources, destinations),
                row_writes=int(lane_counts.sum()),
                plan=join_plan,
            )
        )
    return ShardResult(
        shard_id=shard_id,
        edges=sum(int(lane_edges.size) for lane_edges in lane_sources),
        rows=int(touched.size),
        accumulator=sum(outcome.accumulator for outcome in outcomes),
        events=reduce(
            operator.add, [EventCounts(**outcome.events) for outcome in outcomes]
        ),
        cache_stats=reduce(
            CacheStatistics.merge, [outcome.cache_stats for outcome in outcomes]
        ),
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


def execute_sharded(
    graph: Graph | None,
    row_sliced: SlicedMatrix,
    col_sliced: SlicedMatrix,
    orientation: str,
    plan: ShardPlan,
    capacity_slices: int,
    policy,
    seed: int,
    edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    join_plan=None,
) -> ShardedOutcome:
    """Run the shards of ``plan`` on their simulated arrays and merge.

    ``capacity_slices`` is the *total* computational-array capacity; each
    of the ``plan.num_arrays`` arrays owns an equal share, mirroring the
    fixed 16 MB budget the paper splits across its 128 sub-arrays.  Each
    shard is one :func:`run_shard` lane over the shared structures.
    ``edge_arrays`` optionally passes the already-materialised
    ``(sources, destinations)`` pair (then ``graph`` may be ``None``).

    ``join_plan`` optionally passes the full edge list's compiled
    :class:`repro.core.plan.JoinPlan`; each shard then receives its
    :meth:`~repro.core.plan.JoinPlan.subset` and skips the per-query
    merge-join.  The plan must cover exactly the edges of ``plan`` (same
    oriented edge list) — a count mismatch raises rather than silently
    mis-joining.
    """
    if plan.orientation != orientation:
        raise ArchitectureError(
            f"plan was built for orientation {plan.orientation!r} but the "
            f"run uses {orientation!r}; shard positions index different "
            "edge lists — rebuild the plan with plan_shards"
        )
    per_array_capacity = array_share(capacity_slices, plan.num_arrays)
    if edge_arrays is None:
        sources, destinations = oriented_edges(graph, orientation)
    else:
        sources, destinations = edge_arrays
    if plan.num_edges != int(sources.size):
        raise ArchitectureError(
            f"plan covers {plan.num_edges} edges but the oriented edge list "
            f"has {sources.size}; the plan was built for a different graph "
            "— rebuild it with plan_shards"
        )
    if join_plan is not None and join_plan.num_edges != int(sources.size):
        raise ArchitectureError(
            f"join plan covers {join_plan.num_edges} edges but the oriented "
            f"edge list has {sources.size}; compile a plan for this edge list"
        )
    return _merge_shard_results(
        [
            run_shard(
                shard_id,
                row_sliced,
                [
                    (
                        sources[positions],
                        destinations[positions],
                        col_sliced,
                        join_plan.subset(positions)
                        if join_plan is not None
                        else None,
                    )
                ],
                per_array_capacity,
                orientation,
                policy,
                seed,
            )
            for shard_id, positions in enumerate(plan.assignments)
        ]
    )


# ----------------------------------------------------------------------
# Vertex-coloring partitioner: self-contained shard contexts
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
# triangle lies inside every {a,a,x} shard's edge set).  Each context
# therefore splits its work into **lanes**, one per distinct witness
# color r in T: the lane's pivot edges are those whose color pair equals
# the multiset T ∖ {r}, joined against a column structure holding only
# third-vertices of color r.  Removing an element from a multiset is
# injective, so a triangle with multiset exactly T is counted by exactly
# one lane of exactly one shard — and by none elsewhere.  A shard has 3
# lanes when its triple's colors are distinct, 2 when two coincide, and
# 1 when monochromatic; C=1 degenerates to one shard with one unmasked
# lane, bit-identical to the unsharded engine.


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
    colors, seed)`` always produces the same coloring, which is what
    lets a session rebuild identical contexts from a snapshot.
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


@dataclass(eq=False)
class ShardLane:
    """One witness-color lane of a :class:`ShardContext`.

    ``sources``/``destinations`` are the lane's pivot edges — the
    context's oriented edges whose color pair equals ``pair`` — in the
    global lexicographic order.  ``col_sliced`` is the lane's private
    column structure: the predecessor bits of *all* context edges whose
    source vertex has ``witness_color``, so the AND against the shared
    row structure keeps exactly the witnesses of that color.
    ``join_plan`` is the lane's own compiled valid-pair index
    (:func:`repro.core.plan.build_join_plan` over these structures),
    patched in place on incremental ``apply``.
    """

    witness_color: int
    pair: tuple[int, int]
    sources: np.ndarray
    destinations: np.ndarray
    col_sliced: SlicedMatrix
    join_plan: object | None = None

    @property
    def num_edges(self) -> int:
        return int(self.sources.size)

    @property
    def nbytes(self) -> int:
        plan_bytes = self.join_plan.nbytes if self.join_plan is not None else 0
        return (
            self.sources.nbytes
            + self.destinations.nbytes
            + self.col_sliced.compressed_bytes
            + plan_bytes
        )


@dataclass(eq=False)
class ShardContext:
    """A fully self-contained shard: structures, edges and plans owned.

    Unlike the :class:`ShardPlan` path — position subsets over *shared*
    slice structures, merged globally afterwards — a context carries
    everything one simulated array needs to count its color triple's
    triangles: the shard's own oriented edge arrays (one lane per
    witness color), its own row :class:`SlicedMatrix` built from exactly
    its edges, each lane's own color-masked column structure, and each
    lane's own compiled :class:`~repro.core.plan.JoinPlan`.  Contexts
    reference **no** global structure, which is what makes them
    communication-free.

    ``triple`` is the color multiset this shard owns; every triangle
    whose vertex colors form that multiset is counted here and nowhere
    else.  Exactness is orientation-generic: under ``"upper"`` each
    triangle contributes once (at its (min, max) pivot edge), under
    ``"symmetric"`` six times — all six in this one shard, so the
    merged accumulator keeps its usual ``// 6``.
    """

    shard_id: int
    triple: tuple[int, int, int]
    orientation: str
    num_vertices: int
    slice_bits: int
    colors: int
    color_seed: int
    row_sliced: SlicedMatrix
    lanes: list[ShardLane] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        """Oriented edges this context owns (every lane's pivot edges)."""
        return sum(lane.num_edges for lane in self.lanes)

    @property
    def nbytes(self) -> int:
        """Resident footprint: structures, edge arrays and lane plans."""
        return self.row_sliced.compressed_bytes + sum(
            lane.nbytes for lane in self.lanes
        )

    def owned_mask(
        self, delta_edges: np.ndarray, vertex_colors: np.ndarray
    ) -> np.ndarray:
        """Which canonical delta edges this shard owns (pair ⊆ triple)."""
        lo = vertex_colors[delta_edges[:, 0]]
        hi = vertex_colors[delta_edges[:, 1]]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        x, y, z = self.triple
        return (
            ((lo == x) & (hi == y))
            | ((lo == x) & (hi == z))
            | ((lo == y) & (hi == z))
        )

    def apply_delta(
        self,
        delta_edges: np.ndarray,
        vertex_colors: np.ndarray,
        insert: bool,
        batch_candidates: int | None = None,
    ) -> bool:
        """Route one canonical delta batch into this shard, in place.

        Mutates only what the batch touches: the shard row structure
        gets every owned oriented bit (one :class:`StructureDelta`
        shared by all lane-plan patches), each lane's column structure
        gets the owned bits whose *source* vertex carries the lane's
        witness color, each lane whose pivot pair matches an owned edge
        splices its edge list, and every lane plan is patched
        (:func:`repro.core.plan.patch_join_plan`; a lane where nothing
        moved keeps its plan object).  Returns ``False``
        without touching anything when the shard owns no edge of the
        batch — the routing property that makes sharded ``apply``
        O(owning shards), not O(all shards).
        """
        from repro.core.incremental import StructureDelta, clear_bits, set_bits
        from repro.core.plan import (
            merge_oriented_edges,
            oriented_structure_bits,
            patch_join_plan,
        )

        owned = self.owned_mask(delta_edges, vertex_colors)
        if not bool(owned.any()):
            return False
        owned_edges = delta_edges[owned]
        mutate = set_bits if insert else clear_bits
        row_bits = oriented_structure_bits(owned_edges, self.orientation, "row")
        row_delta = mutate(self.row_sliced, *row_bits)
        # Oriented (source, destination) directions of the owned batch —
        # the coordinates both the lane column masks and the lane edge
        # splices are expressed in.
        u, v = owned_edges[:, 0], owned_edges[:, 1]
        if self.orientation == "upper":
            delta_src, delta_dst = u, v
        else:
            delta_src = np.concatenate([u, v])
            delta_dst = np.concatenate([v, u])
        src_colors = vertex_colors[delta_src]
        pair_lo = np.minimum(vertex_colors[u], vertex_colors[v])
        pair_hi = np.maximum(vertex_colors[u], vertex_colors[v])
        candidates = batch_candidates or DEFAULT_BATCH_CANDIDATES
        for lane in self.lanes:
            # Column bits route by *source-vertex* color (the witness
            # side of the AND); edge-list membership routes by the
            # edge's color *pair* (the pivot side).  These are different
            # selections on purpose.
            mask = src_colors == lane.witness_color
            if bool(mask.any()):
                col_delta = mutate(
                    lane.col_sliced, delta_dst[mask], delta_src[mask]
                )
            else:
                col_delta = StructureDelta.unchanged()
            lane_owned = (pair_lo == lane.pair[0]) & (pair_hi == lane.pair[1])
            if bool(lane_owned.any()):
                lane.sources, lane.destinations, edge_delta = merge_oriented_edges(
                    lane.sources,
                    lane.destinations,
                    owned_edges[lane_owned],
                    self.orientation,
                    self.num_vertices,
                    insert,
                )
            else:
                edge_delta = StructureDelta.unchanged()
            if lane.join_plan is not None:
                lane.join_plan = patch_join_plan(
                    lane.join_plan,
                    self.row_sliced,
                    lane.col_sliced,
                    lane.sources,
                    lane.destinations,
                    edge_delta,
                    row_delta,
                    col_delta,
                    candidates,
                )
        return True


def build_shard_contexts(
    graph: Graph | None,
    orientation: str,
    num_arrays: int,
    *,
    slice_bits: int = 64,
    seed: int = 0,
    edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    num_vertices: int | None = None,
    use_plan: bool = True,
    batch_candidates: int | None = None,
) -> list[ShardContext]:
    """Build the self-contained coloring shards of a graph.

    ``num_arrays`` is quantised up to the next triple count:
    ``C = min_colors(num_arrays)`` colors give ``Binom(C+2, 3)``
    contexts (the effective array count).  ``edge_arrays`` optionally
    passes the already-materialised oriented ``(sources, destinations)``
    (then ``graph`` may be ``None`` if ``num_vertices`` is given).
    ``use_plan=False`` skips the per-lane plan compiles — queries then
    re-derive the merge-join, bit-identically.

    Construction cost is the PIM-TC replication bill: each oriented
    edge is copied into ``C`` contexts and every context slices its own
    structures.  That one-time cost is what
    :meth:`repro.arch.perf.PimPerformanceModel.evaluate_context_build`
    prices; at query time the contexts are communication-free.
    """
    from repro.core.plan import build_join_plan

    if orientation not in ("upper", "symmetric"):
        raise ArchitectureError(
            f"orientation must be 'upper' or 'symmetric', got {orientation!r}"
        )
    if edge_arrays is None:
        if graph is None:
            raise ArchitectureError(
                "build_shard_contexts needs a graph when edge_arrays "
                "is not provided"
            )
        sources, destinations = oriented_edges(graph, orientation)
    else:
        sources, destinations = edge_arrays
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
    if num_vertices is None:
        if graph is None:
            raise ArchitectureError(
                "build_shard_contexts needs num_vertices when graph is None"
            )
        num_vertices = graph.num_vertices
    colors = min_colors(num_arrays)
    vertex_colors = assign_colors(num_vertices, colors, seed)
    src_colors = vertex_colors[sources] if sources.size else np.empty(0, np.int64)
    dst_colors = (
        vertex_colors[destinations] if destinations.size else np.empty(0, np.int64)
    )
    pair_lo = np.minimum(src_colors, dst_colors)
    pair_hi = np.maximum(src_colors, dst_colors)
    # Group edge positions by color pair once: C(C+1)/2 small buckets,
    # each ascending, so every lane keeps the global lexicographic edge
    # order (what merge_oriented_edges and the cache traces rely on).
    pair_positions: dict[tuple[int, int], np.ndarray] = {}
    for x in range(colors):
        for y in range(x, colors):
            pair_positions[(x, y)] = np.flatnonzero(
                (pair_lo == x) & (pair_hi == y)
            )
    contexts: list[ShardContext] = []
    for shard_id, triple in enumerate(color_triples(colors)):
        lane_specs = _triple_lanes(triple)
        own_positions = np.sort(
            np.concatenate([pair_positions[pair] for _, pair in lane_specs])
        )
        own_src = sources[own_positions]
        own_dst = destinations[own_positions]
        # Lexicographic (source, destination) order is non-decreasing in
        # the slice key, so from_nonzeros skips its argsort here.
        row_sliced = SlicedMatrix.from_nonzeros(
            own_src, own_dst, num_vertices, num_vertices, slice_bits=slice_bits
        )
        own_src_colors = (
            vertex_colors[own_src] if own_src.size else np.empty(0, np.int64)
        )
        lanes: list[ShardLane] = []
        for witness, pair in lane_specs:
            positions = pair_positions[pair]
            lane_src = sources[positions]
            lane_dst = destinations[positions]
            mask = own_src_colors == witness
            col_sliced = SlicedMatrix.from_nonzeros(
                own_dst[mask],
                own_src[mask],
                num_vertices,
                num_vertices,
                slice_bits=slice_bits,
            )
            join_plan = None
            if use_plan:
                join_plan = build_join_plan(
                    row_sliced,
                    col_sliced,
                    lane_src,
                    lane_dst,
                    batch_candidates or DEFAULT_BATCH_CANDIDATES,
                )
            lanes.append(
                ShardLane(
                    witness_color=witness,
                    pair=pair,
                    sources=lane_src,
                    destinations=lane_dst,
                    col_sliced=col_sliced,
                    join_plan=join_plan,
                )
            )
        contexts.append(
            ShardContext(
                shard_id=shard_id,
                triple=triple,
                orientation=orientation,
                num_vertices=num_vertices,
                slice_bits=slice_bits,
                colors=colors,
                color_seed=seed,
                row_sliced=row_sliced,
                lanes=lanes,
            )
        )
    return contexts


def context_balance(contexts: list[ShardContext]) -> float:
    """Partitioner balance: max shard edges over mean shard edges.

    1.0 is perfect balance; the ratio is the latency multiplier the
    slowest shard imposes on an otherwise even fleet.  Empty fleets (or
    all-empty shards) report 1.0.
    """
    if not contexts:
        return 1.0
    loads = [ctx.num_edges for ctx in contexts]
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean else 1.0


def execute_contexts(
    contexts: list[ShardContext],
    capacity_slices: int,
    policy,
    seed: int,
    use_plan: bool = True,
) -> ShardedOutcome:
    """Run self-contained contexts on their simulated arrays and merge.

    The communication-free counterpart of :func:`execute_sharded`: each
    context is one :func:`run_shard` call over its own row structure
    and lanes — no shared slice structures, no join-plan subsetting, no
    global edge list.  ``use_plan=False`` ignores the lanes' compiled
    plans and re-derives the merge-join, bit-identically.
    """
    if not contexts:
        raise ArchitectureError("execute_contexts needs at least one context")
    per_array_capacity = array_share(capacity_slices, len(contexts))
    return _merge_shard_results(
        [
            run_shard(
                context.shard_id,
                context.row_sliced,
                [
                    (
                        lane.sources,
                        lane.destinations,
                        lane.col_sliced,
                        lane.join_plan if use_plan else None,
                    )
                    for lane in context.lanes
                ],
                per_array_capacity,
                context.orientation,
                policy,
                seed,
            )
            for context in contexts
        ]
    )
