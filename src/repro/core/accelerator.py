"""TCIM accelerator orchestration — paper Algorithm 1.

Ties the pieces together the way the processing-in-MRAM controller does
(Fig. 4): the graph is sliced and compressed (Section IV-B), valid slice
pairs are streamed into the computational array, row slices are loaded
once per row and overwritten by the next row, and column slices go through
the LRU-managed array region (Section IV-A).  Every AND + BitCount the
hardware would execute is counted, and the resulting event totals are what
the architecture model (:mod:`repro.arch.perf`) prices into latency and
energy for Table V and Fig. 6.

The functional result (the triangle count) is exact and is validated
against all baselines by the test-suite.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ArchitectureError
from repro.graph.graph import Graph
from repro.core.reuse import CacheStatistics, ReplacementPolicy
from repro.core.slicing import (
    SlicedMatrix,
    SliceStatistics,
    SliceWindow,
    slice_statistics,
)

__all__ = [
    "AcceleratorConfig",
    "EventCounts",
    "TCIMRunResult",
    "TCIMAccelerator",
    "array_share",
    "split_capacity",
]


def array_share(capacity_slices: int, num_arrays: int) -> int:
    """One array's share of ``capacity_slices`` split ``num_arrays`` ways.

    Each share must hold at least two slices (one row slice plus one
    column slice); smaller shares raise :class:`ArchitectureError`.
    """
    share = capacity_slices // num_arrays
    if share < 2:
        raise ArchitectureError(
            f"array of {capacity_slices} slices split {num_arrays} ways "
            f"leaves {share} slices per array; need at least 2"
        )
    return share


def split_capacity(
    capacity_slices: int, row_counts: np.ndarray, owner: str | None = None
) -> tuple[int, int]:
    """``(row_region, column_cache)`` slices of one array — the capacity rule.

    The row region holds the largest valid-slice count of any row the
    array processes (``row_counts``, one entry per processed row); the
    rest of ``capacity_slices`` (the whole array, or one array's
    :func:`array_share`) caches column slices.  A column cache below one
    slice raises :class:`ArchitectureError`, naming ``owner`` (e.g. a
    shard) when given.
    """
    row_region = int(np.max(row_counts, initial=0))
    column_cache = capacity_slices - row_region
    if column_cache < 1:
        where = f" ({owner})" if owner else ""
        raise ArchitectureError(
            f"array too small: row region needs {row_region} slices but "
            f"capacity is {capacity_slices}{where}; use fewer arrays or a "
            "larger array"
        )
    return row_region, column_cache


@dataclass(frozen=True)
class AcceleratorConfig:
    """Algorithm-level configuration of a TCIM run.

    Defaults mirror the paper's evaluation setup: 64-bit slices and a
    16 MB computational STT-MRAM array with LRU replacement.

    Runs price the batched numpy dataflow of :mod:`repro.core.engine`
    from the count plan (:mod:`repro.core.plan`) over the
    upper-triangular (DAG) orientation of Algorithm 1, which finds each
    triangle once; the original per-edge Python loop survives only as
    the differential-testing oracle
    :func:`repro.analysis.validation.per_edge_reference`.

    ``num_arrays`` splits the run across that many simulated sub-arrays
    (the paper's Fig. 4 bank organisation, see
    :mod:`repro.core.sharding`), each owning an equal share of
    ``array_bytes`` with its own row region and column-slice cache.
    ``shard_by`` picks the partitioner: ``"edges"``, ``"rows"`` or
    ``"degree"`` split positions of the shared edge list, ``"coloring"``
    gives each color triple its own communication-free shard.  Every
    partition is priced from the count plan's pairs in the calling
    process.  ``num_arrays=1`` is bit-identical to the unsharded run.

    A resident caller (:class:`repro.api.TCIMSession`) compiles the
    valid-pair join once per graph generation (:mod:`repro.core.plan`)
    and serves repeat queries from it.

    ``storage_dir`` turns on the out-of-core storage tier
    (:mod:`repro.storage`): slice payloads and compiled plan arrays at
    or above ``spill_threshold_bytes`` (default 8 MiB; 0 spills every
    array) become disk-backed ``np.memmap`` files under
    ``<storage_dir>/spill``, plan compilation streams through bounded
    edge windows, and the session pool pages evicted sessions out as
    snapshots under ``<storage_dir>/pool``.  ``None`` (the default)
    keeps everything on heap — byte-identical results either way.
    """

    slice_bits: int = 64
    array_bytes: int = 16 * 2**20
    policy: ReplacementPolicy | str = ReplacementPolicy.LRU
    seed: int = 0
    num_arrays: int = 1
    shard_by: str = "edges"
    storage_dir: str | None = None
    spill_threshold_bytes: int | None = None

    @property
    def slice_bytes(self) -> int:
        """Bytes occupied by one slice in the array."""
        return self.slice_bits // 8

    @property
    def capacity_slices(self) -> int:
        """Total slices the computational array can hold."""
        return self.array_bytes // self.slice_bytes

    #: Fields coerced through ``int()`` by :meth:`from_mapping` (config
    #: files and ``--set key=value`` overrides arrive as strings).
    _INT_FIELDS = ("slice_bits", "array_bytes", "seed", "num_arrays")
    #: Optional fields: ``None`` (or the strings ""/"none"/"null") stays
    #: ``None``; anything else coerces to the named base type.
    _OPTIONAL_FIELDS = {
        "storage_dir": str,
        "spill_threshold_bytes": int,
    }

    @classmethod
    def from_mapping(
        cls, mapping: Mapping | None = None, **overrides
    ) -> "AcceleratorConfig":
        """Build a config from a plain mapping (TOML/JSON file, CLI ``--set``).

        Keys must name config fields; unknown keys raise
        :class:`~repro.errors.ArchitectureError` (typos fail loudly rather
        than silently running the default).  Values are coerced to the
        field's type — integer fields accept numeric strings, the rest are
        taken as strings — so a parsed config file and a ``key=value``
        override line feed through the same path.  ``overrides`` win over
        ``mapping``.
        """
        data: dict = {}
        if mapping:
            data.update(mapping)
        data.update(overrides)
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ArchitectureError(
                f"unknown AcceleratorConfig keys {unknown}; known keys: {known}"
            )
        return cls(
            **{name: cls._coerce_field(name, value) for name, value in data.items()}
        )

    @classmethod
    def _coerce_field(cls, name: str, value):
        if name in cls._OPTIONAL_FIELDS:
            if value is None or str(value).strip().lower() in ("", "none", "null"):
                return None
            base = cls._OPTIONAL_FIELDS[name]
            try:
                return base(value)
            except (TypeError, ValueError):
                raise ArchitectureError(
                    f"config field {name!r} needs a {base.__name__} or none, "
                    f"got {value!r}"
                ) from None
        if name in cls._INT_FIELDS:
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ArchitectureError(
                    f"config field {name!r} needs an integer, got {value!r}"
                ) from None
        if name == "policy":
            return value if isinstance(value, ReplacementPolicy) else str(value)
        return str(value)

    def to_mapping(self) -> dict:
        """The inverse of :meth:`from_mapping`: plain JSON/TOML-able values."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        policy = data["policy"]
        data["policy"] = (
            policy.value if isinstance(policy, ReplacementPolicy) else str(policy)
        )
        return data


@dataclass
class EventCounts:
    """Hardware-visible events of one run, consumed by the perf model."""

    #: Row slices written into the row region (once per processed row).
    row_slice_writes: int = 0
    #: Column slices written (cache misses + exchanges).
    col_slice_writes: int = 0
    #: Column-slice accesses served from the array without a write.
    col_slice_hits: int = 0
    #: In-array AND activations (one per valid slice pair).
    and_operations: int = 0
    #: Bit-counter invocations (one per AND, Fig. 2 dataflow).
    bitcount_operations: int = 0
    #: Valid-slice-index lookups in the data buffer (one per edge).
    index_lookups: int = 0
    #: Edges of the oriented matrix iterated.
    edges_processed: int = 0
    #: Slice pairs an un-sliced design would process (for the reduction claim).
    dense_pair_operations: int = 0

    @property
    def total_slice_writes(self) -> int:
        """All array WRITE operations (rows + columns)."""
        return self.row_slice_writes + self.col_slice_writes

    @property
    def writes_without_reuse(self) -> int:
        """WRITEs a reuse-less design would issue (row + one per access)."""
        return self.row_slice_writes + self.col_slice_hits + self.col_slice_writes

    @property
    def write_savings_percent(self) -> float:
        """Column-slice WRITEs avoided by data reuse (paper: 72 % average).

        Row slices are written exactly once per row whether or not a reuse
        strategy exists, so the saving the paper attributes to data reuse
        is the *column* hit rate — consistent with
        :attr:`CacheStatistics.write_savings_percent`.  (An earlier version
        diluted this by counting the unavoidable row writes in both the
        baseline and the total; :attr:`total_write_savings_percent` keeps
        that whole-run figure under its own name.)
        """
        accesses = self.col_slice_hits + self.col_slice_writes
        if not accesses:
            return 0.0
        return 100.0 * self.col_slice_hits / accesses

    @property
    def total_write_savings_percent(self) -> float:
        """All-WRITE saving including the unavoidable row-slice writes."""
        baseline = self.writes_without_reuse
        if not baseline:
            return 0.0
        return 100.0 * (baseline - self.total_slice_writes) / baseline

    @property
    def computation_reduction_percent(self) -> float:
        """Slice-pair work avoided by slicing (paper: 99.99 % average)."""
        if not self.dense_pair_operations:
            return 0.0
        return 100.0 * (1.0 - self.and_operations / self.dense_pair_operations)

    def merge(self, other: "EventCounts") -> "EventCounts":
        """Field-wise sum — aggregating shards or independent runs.

        Mirrors :meth:`CacheStatistics.merge`.  Every field is an additive
        event counter, so merging the per-shard counts of a sharded run
        reconstructs the totals the hardware would observe (row-slice
        writes may legitimately exceed the single-array total when a
        partitioner splits a row's edges across arrays — each array loads
        the row once).
        """
        if not isinstance(other, EventCounts):
            raise TypeError(f"cannot merge EventCounts with {type(other).__name__}")
        return EventCounts(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "EventCounts") -> "EventCounts":
        if not isinstance(other, EventCounts):
            return NotImplemented
        return self.merge(other)


@dataclass
class TCIMRunResult:
    """Everything produced by one accelerator run."""

    triangles: int
    events: EventCounts
    cache_stats: CacheStatistics
    slice_stats: SliceStatistics
    config: AcceleratorConfig
    #: Slices reserved for the row region (max valid slices of any row; for
    #: sharded runs, the largest row region of any shard).
    row_region_slices: int = 0
    #: Column-cache capacity in slices after the row-region reservation
    #: (for sharded runs, the tightest column cache of any shard).
    column_cache_slices: int = 0
    #: Per-shard breakdown (:class:`~repro.core.sharding.ShardResult`)
    #: when ``config.num_arrays > 1``; empty for single-array runs.
    shards: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def balance(self) -> float:
        """Partitioner balance: max over mean shard edges, the latency
        multiplier the heaviest shard imposes on an otherwise even fleet
        (1.0 = perfect, and for a run without shards)."""
        loads = [shard.edges for shard in self.shards]
        mean = sum(loads) / len(loads) if loads else 0
        return max(loads) / mean if mean else 1.0


class TCIMAccelerator:
    """Functional + statistical simulator of the TCIM dataflow.

    Usage::

        accelerator = TCIMAccelerator()
        result = accelerator.run(graph)
        print(result.triangles, result.events.write_savings_percent)

    The run is exact (the returned ``triangles`` equals the true count) and
    deterministic for a given configuration.
    """

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig()
        if self.config.slice_bits <= 0 or self.config.slice_bits % 8:
            raise ArchitectureError(
                f"slice_bits must be a positive multiple of 8, got {self.config.slice_bits}"
            )
        if self.config.capacity_slices < 2:
            raise ArchitectureError(
                f"array of {self.config.array_bytes} bytes cannot hold two "
                f"slices of {self.config.slice_bytes} bytes"
            )
        from repro.core.sharding import PARTITIONERS

        if self.config.num_arrays < 1:
            raise ArchitectureError(
                f"num_arrays must be >= 1, got {self.config.num_arrays}"
            )
        if self.config.shard_by not in PARTITIONERS:
            raise ArchitectureError(
                f"shard_by must be one of {PARTITIONERS}, "
                f"got {self.config.shard_by!r}"
            )

    def run(
        self,
        graph: Graph | None,
        *,
        num_vertices: int | None = None,
        row_sliced=None,
        col_sliced=None,
        edge_arrays: tuple[np.ndarray, np.ndarray] | None = None,
        join_plan=None,
    ) -> TCIMRunResult:
        """Execute Algorithm 1 on ``graph`` and collect all statistics.

        The keyword arguments let a caller that already holds the sliced
        structures, the oriented edge list, or the join plan (notably
        :class:`repro.api.TCIMSession`, which keeps them resident across
        queries the way the Fig. 4 controller keeps the compressed graph
        in the array) skip the rebuild; omitted structures are the upper
        and lower :class:`~repro.core.slicing.SliceWindow` of one
        symmetric structure built here.  Passed structures
        (:class:`SlicedMatrix` or :class:`~repro.core.slicing.SliceWindow`)
        must match the config's ``slice_bits`` and the vertex count, and
        ``edge_arrays`` must be the upper-triangular edge list in the
        reference order (rows ascending, successors ascending).

        ``graph=None`` runs from resident pieces alone: pass
        ``num_vertices``, both slice structures and ``edge_arrays``
        (anything less raises :class:`ArchitectureError`).  The run then
        reads no :class:`Graph`: after an update a session's slice
        structures are its only edge set, and it never reassembles a
        graph from their bits just to run.

        Every run prices the config's partition from the count plan
        (:func:`repro.core.sharding.price_partition`); a single array is
        one lane over the whole plan.  ``join_plan`` passes the compiled
        :class:`repro.core.plan.JoinPlan` of the oriented edge list
        against exactly these slice structures, and ``None`` compiles a
        transient one; results are bit-identical either way.  A stale
        plan, or one compiled for a different edge count, raises.
        ``num_arrays > 1`` keeps the per-array breakdown in
        :attr:`TCIMRunResult.shards`; coloring runs record their metadata
        (colors, shard count, partitioner balance, the communication-free
        flag) in :attr:`TCIMRunResult.notes`.
        """
        from repro.core.engine import oriented_edges

        config = self.config
        if graph is None:
            if (
                num_vertices is None
                or row_sliced is None
                or col_sliced is None
                or edge_arrays is None
            ):
                raise ArchitectureError(
                    "a run without a graph needs num_vertices, row_sliced, "
                    "col_sliced and edge_arrays"
                )
        else:
            if num_vertices is not None and num_vertices != graph.num_vertices:
                raise ArchitectureError(
                    f"num_vertices={num_vertices} but the graph has "
                    f"{graph.num_vertices} vertices"
                )
            num_vertices = graph.num_vertices
            if row_sliced is None or col_sliced is None:
                built = SliceWindow.pair(
                    SlicedMatrix.from_graph(
                        graph, "symmetric", slice_bits=config.slice_bits
                    )
                )
                row_sliced = built[0] if row_sliced is None else row_sliced
                col_sliced = built[1] if col_sliced is None else col_sliced
            if edge_arrays is None:
                edge_arrays = oriented_edges(graph, "upper")
        for name, sliced in (("row_sliced", row_sliced), ("col_sliced", col_sliced)):
            if sliced.slice_bits != config.slice_bits:
                raise ArchitectureError(
                    f"{name} uses {sliced.slice_bits}-bit slices but the "
                    f"config asks for {config.slice_bits}"
                )
            if sliced.num_rows != num_vertices:
                raise ArchitectureError(
                    f"{name} covers {sliced.num_rows} rows but the graph has "
                    f"{num_vertices} vertices"
                )
        from repro.core.sharding import min_colors, price_partition

        outcome = price_partition(
            config, row_sliced, col_sliced, edge_arrays, join_plan
        )
        shards: list = []
        notes: dict = {}
        if config.num_arrays > 1:
            shards = outcome.shards
            if config.shard_by == "coloring":
                notes = {
                    "shard_by": "coloring",
                    "colors": min_colors(config.num_arrays),
                    "num_shards": len(shards),
                    "communication_free": True,
                }
        stats = slice_statistics(
            None,
            slice_bits=config.slice_bits,
            row_sliced=row_sliced,
            col_sliced=col_sliced,
        )
        result = TCIMRunResult(
            triangles=outcome.accumulator,
            events=outcome.events,
            cache_stats=outcome.cache_stats,
            slice_stats=stats,
            config=config,
            row_region_slices=max(s.row_region_slices for s in outcome.shards),
            column_cache_slices=min(s.column_cache_slices for s in outcome.shards),
            shards=shards,
            notes=notes,
        )
        if notes:
            notes["balance"] = result.balance
        return result
