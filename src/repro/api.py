"""Unified session facade: one stateful entry point for the reproduction.

The paper's controller (Fig. 4) holds the sliced, compressed graph
resident in the MRAM array and serves queries against it.  Before this
module, every caller re-created that residency by hand: functional runs
went through :meth:`TCIMAccelerator.run` (re-slicing per call), priced
runs through :func:`repro.arch.pipeline.simulate_sharded`, and dynamic
workloads through :class:`~repro.core.dynamic.DynamicTriangleCounter`
(pure-Python set intersections).  :class:`TCIMSession` models the
resident controller directly:

* the graph is loaded **once** — the upper-triangular edge list, one
  symmetric :class:`SlicedMatrix` (whose upper and lower
  :class:`~repro.core.slicing.SliceWindow` sides serve as the row and
  column structures of Algorithm 1), the slice statistics and the
  compiled valid-pair :class:`~repro.core.plan.JoinPlan` are cached and
  reused across queries (repeat queries skip the merge-join entirely);
* :meth:`TCIMSession.count` / :meth:`TCIMSession.simulate` /
  :meth:`TCIMSession.slice_stats` / :meth:`TCIMSession.baseline` serve
  repeated queries without re-slicing;
* :meth:`TCIMSession.apply` / :meth:`TCIMSession.apply_edges` stream
  edge insertions/deletions through the **vectorized engine** as a
  delta re-join of only the affected rows' slice pairs
  (:mod:`repro.core.incremental`), shard-aware and with per-shard
  :class:`EventCounts` deltas merged — dynamic workloads get the same
  speedup as full runs.

Everything else the session holds is derived from the symmetric
structure and follows one lifecycle rule: an ``apply()`` call keeps the
windows and count plan, the edge list and the workload cache only if a
reader used them since the previous ``apply()`` call, patches what it
keeps, and drops the rest for a lazy rebuild.

Software baselines (:meth:`TCIMSession.baseline`) and graph-spec
schemes (:func:`resolve_graph`) are looked up in :mod:`repro.registry`,
so new ones plug in without touching this facade.

Usage::

    from repro import open_session

    session = open_session("dataset:com-dblp@0.05", num_arrays=4)
    print(session.count())                   # cached compressed graph
    report = session.simulate()              # unified RunReport
    update = session.apply([("+", 0, 1), ("-", 2, 3)])
    print(update.triangles, update.delta_triangles)
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from repro import registry
from repro.core import incremental
from repro.core import kernels
from repro.core import plan as joinplan
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
    split_capacity,
)
from repro.core.engine import oriented_edges
from repro.core.reuse import CacheStatistics
from repro.core.slicing import (
    SlicedMatrix,
    SliceStatistics,
    SliceWindow,
    slice_statistics,
)
from repro.errors import ArchitectureError, GraphError, ReproError, StorageError
from repro.graph.edgemap import EdgeMap
from repro.graph.graph import Graph
from repro.storage import snapshot as storage_snapshot
from repro.storage.backing import BackingStore

__all__ = [
    "ClusteringReport",
    "RunReport",
    "UpdateReport",
    "TCIMSession",
    "open_session",
    "resolve_graph",
]


#: Edge-window size of chunked plan compiles on memmap-backed sessions.
#: 64k edges keeps the compile's transient heap in the tens of MB even
#: on dense pair distributions, while large enough that the per-window
#: merge-join overhead stays negligible.
_PLAN_CHUNK_EDGES = 65_536

#: Config keys of earlier releases that older snapshots still carry.
#: They are dropped on open; of them only ``orientation`` shaped the
#: persisted arrays, and :meth:`TCIMSession._hydrate` reads it from the
#: manifest before that.
_RETIRED_CONFIG_KEYS = ("engine", "workers", "backing", "orientation", "use_plan")

#: The silent fallbacks :attr:`TCIMSession.fallback_counts` counts: each
#: is a place where an optimisation gives up and drops resident caches
#: for a lazy rebuild (or, for ``truss_repeel``, recomputes eagerly)
#: instead of failing the request.
_FALLBACKS = ("flush_patch_error", "truss_repeel", "workload_patch_error")


def resolve_graph(spec) -> Graph:
    """Resolve a graph source: a :class:`Graph`, a file path, or a
    ``<scheme>:<rest>`` spec such as ``dataset:roadnet-pa@0.02``.

    Scheme specs dispatch through the source registry
    (:func:`repro.registry.register_source`), so custom loaders — remote
    fetchers, generators, caches — plug in without touching this
    function; anything whose prefix is not a registered scheme is
    treated as a file path, keeping paths with colons working.
    """
    if isinstance(spec, Graph):
        return spec
    if not isinstance(spec, str):
        raise ReproError(
            f"graph source must be a Graph, a path, or a dataset spec, "
            f"got {type(spec).__name__}"
        )
    scheme, sep, remainder = spec.partition(":")
    if sep and scheme in registry.source_schemes():
        return registry.source_resolver(scheme)(remainder, spec)
    from repro.graph.io import load_graph

    return load_graph(spec)


@dataclass
class RunReport:
    """Unified outcome of one priced session query.

    Combines the functional result (:class:`TCIMRunResult` — triangles,
    events, cache and slice statistics, per-shard breakdown) with the
    architecture model's pricing (a :class:`~repro.arch.perf.PerfReport`;
    for sharded runs the measured critical path — slowest shard — plus
    one :class:`PerfReport` per simulated array).
    """

    result: TCIMRunResult
    perf: "PerfReport"  # noqa: F821 - repro.arch.perf, imported lazily
    shard_perf: list = field(default_factory=list)

    @property
    def triangles(self) -> int:
        return self.result.triangles

    @property
    def events(self) -> EventCounts:
        return self.result.events

    @property
    def cache_stats(self) -> CacheStatistics:
        return self.result.cache_stats

    @property
    def slice_stats(self) -> SliceStatistics:
        return self.result.slice_stats

    @property
    def shards(self) -> list:
        return self.result.shards

    @property
    def latency_s(self) -> float:
        return self.perf.latency_s

    def to_mapping(self) -> dict:
        """JSON-able summary (the CLI's ``--json`` payload)."""
        config = self.result.config
        payload = {
            "triangles": self.result.triangles,
            "num_arrays": config.num_arrays,
            "shard_by": config.shard_by,
            "events": asdict(self.result.events),
            "cache": asdict(self.result.cache_stats),
            "cache_hit_percent": self.result.cache_stats.hit_percent,
            "write_savings_percent": self.result.events.write_savings_percent,
            "computation_reduction_percent":
                self.result.events.computation_reduction_percent,
            "latency_s": self.perf.latency_s,
            "array_energy_j": self.perf.array_energy_j,
            "system_energy_j": self.perf.system_energy_j,
        }
        if self.result.notes:
            payload["notes"] = dict(self.result.notes)
        if self.result.shards:
            loads = [shard.edges for shard in self.result.shards]
            mean = sum(loads) / len(loads)
            # Partitioner balance: the latency multiplier the heaviest
            # shard imposes on an otherwise even fleet (1.0 = perfect).
            payload["balance"] = max(loads) / mean if mean else 1.0
            reports = self.shard_perf or [None] * len(self.result.shards)
            payload["shards"] = [
                {
                    "shard_id": shard.shard_id,
                    "edges": shard.edges,
                    "rows": shard.rows,
                    "events": asdict(shard.events),
                    **(
                        {"latency_s": report.latency_s}
                        if report is not None
                        else {}
                    ),
                }
                for shard, report in zip(self.result.shards, reports)
            ]
        return payload


@dataclass
class UpdateReport:
    """Outcome of one incremental update batch/stream.

    ``events`` / ``cache_stats`` account the engine work of the delta
    re-joins (merged across batches, terms, and shards) — the numbers
    the performance model prices, exactly as for full runs.
    """

    #: Operations submitted (including no-ops).
    requested: int
    #: Edges the call added to the graph: net insertions that were
    #: absent before it (an edge inserted then deleted counts nowhere).
    #: With ``record=True``, every effective insert op counts.
    inserted: int
    #: Edges the call removed from the graph, counted the same way.
    deleted: int
    #: Net triangle-count change of the whole batch.
    delta_triangles: int
    #: Exact triangle count after the batch.
    triangles: int
    #: Engine batches executed: at most 2 (net deletions, then net
    #: insertions) unless ``record=True``, which runs one per effective op.
    segments: int
    events: EventCounts = field(default_factory=EventCounts)
    cache_stats: CacheStatistics = field(default_factory=CacheStatistics)
    #: Signed per-operation deltas, only with ``record=True`` (each op
    #: runs as its own batch, the differential-testing mode).
    per_op_deltas: list[int] | None = None

    def to_mapping(self) -> dict:
        """JSON-able summary (the CLI's ``--json`` payload)."""
        payload = {
            "requested": self.requested,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "delta_triangles": self.delta_triangles,
            "triangles": self.triangles,
            "segments": self.segments,
            "events": asdict(self.events),
            "cache": asdict(self.cache_stats),
        }
        if self.per_op_deltas is not None:
            payload["per_op_deltas"] = list(self.per_op_deltas)
        return payload


@dataclass
class ClusteringReport:
    """Clustering metrics derived from the session's triangle list.

    The per-vertex triangle counts are the list's corners tallied onto
    vertices and the total is its length, so the one witness pass that
    serves :meth:`TCIMSession.support` also serves the local
    coefficients, the global transitivity, and the triangle total.
    Value-identical to the pure-Python oracles in
    :mod:`repro.analysis.metrics`.  The session hands out one report per
    generation, so both arrays are non-writeable.
    """

    #: Local clustering coefficient per vertex (0.0 where degree < 2).
    local: np.ndarray
    #: Exact triangle count through each vertex.
    triangles_per_vertex: np.ndarray
    #: Mean of the local coefficients (Watts–Strogatz).
    average: float
    #: Global transitivity ``3 * triangles / wedges`` (0.0 without wedges).
    transitivity: float
    #: Number of wedges (paths of length 2), ``sum C(deg, 2)``.
    wedges: int
    #: Total triangle count.
    triangles: int

    def to_mapping(self) -> dict:
        """JSON-able summary (the serving tier's ``cluster`` payload)."""
        return {
            "num_vertices": int(self.local.size),
            "average_clustering": self.average,
            "transitivity": self.transitivity,
            "wedges": self.wedges,
            "triangles": self.triangles,
        }


class TCIMSession:
    """Stateful TCIM entry point: one resident graph, many queries.

    Construct via :func:`open_session` (which also resolves dataset
    specs and config mappings), or directly from a :class:`Graph`.
    The session is also a context manager; ``close()`` drops the cached
    structures.

    **Concurrency**: every public method holds the session's reentrant
    lock for its whole duration, so a session may be shared between
    threads — an in-flight :meth:`apply` can never interleave with
    :meth:`count`/:meth:`simulate` and expose half-maintained slice
    structures.  The lock serialises *per session*; for concurrency
    across many resident graphs, put sessions behind
    :class:`repro.serve.Service`, which multiplexes them on a worker
    pool.
    """

    def __init__(
        self,
        graph: Graph,
        config: AcceleratorConfig | None = None,
        model=None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        # Validates the config eagerly (partitioner names, capacity).
        self._accelerator = TCIMAccelerator(self.config)
        self._model = model
        # One reentrant lock serialises every public entry point (count
        # calls itself from _apply_batches, hence reentrant).
        self._lock = threading.RLock()
        # Bumped on every successful mutation (and on close); lets callers
        # — the serving tier's cache coalescing in particular — detect
        # that resident caches were rebuilt, i.e. engine work was redone.
        self._generation = 0
        self._num_vertices = graph.num_vertices
        # Once the session mutates, the symmetric slice structure is the
        # only edge set: membership reads its bits, the edge count is
        # maintained here, and ``graph`` is rebuilt from the bits lazily.
        self._graph: Graph | None = graph
        self._num_edges = graph.num_edges
        # Where the large resident arrays live (repro.storage.backing):
        # config.storage_dir selects a memmap store that spills slice
        # payloads and plan arrays to disk; the default ram store keeps
        # the historical heap behaviour.  With a memmap store, plan
        # compilation also streams through bounded edge windows so its
        # peak heap is O(window), not O(pairs).
        self._store = BackingStore.from_config(self.config)
        self._plan_chunk_edges = (
            _PLAN_CHUNK_EDGES if self._store.kind == "memmap" else None
        )
        # Resident compressed state, built lazily and reused across
        # queries: the symmetric slice structure, spliced by every apply,
        # is the only one; the count run's row and column structures are
        # its upper and lower windows.
        self._sym_sliced: SlicedMatrix | None = None
        self._oriented: tuple | None = None
        # The one upper-triangular edge list, in CSR order: the plan's
        # edges, and edge i of the triangle list and of the read-only
        # support() / truss() maps.
        self._edge_arrays: tuple[np.ndarray, np.ndarray] | None = None
        # The compiled valid-pair index (repro.core.plan.JoinPlan):
        # built once per generation, incrementally patched by apply, and
        # handed to every vectorized engine run so repeat queries skip
        # the merge-join; multi-array runs price every array from it.
        self._join_plan = None
        #: Cached workload results (the triangle list, support and truss
        #: maps, tallies, clustering).  A mutation patches the list, the
        #: tallies and the trussness for a reader (see :meth:`apply`)
        #: and drops the rest.  The maps and the clustering report are
        #: handed out as they are, so every array they hold is
        #: non-writeable.
        self._workload_cache: dict = {}
        # Whether support / clustering / truss ran since the last apply().
        self._workload_read = False
        # The previous apply() call's batches, not yet folded into the
        # windows and the plan: ``(delta_edges, edge_splice, sym_splice)``.
        self._pending_patches: list[tuple] = []
        self._fallbacks = dict.fromkeys(_FALLBACKS, 0)
        # Cached query results, invalidated by updates.
        self._slice_stats: SliceStatistics | None = None
        self._run: TCIMRunResult | None = None
        self._report: RunReport | None = None
        self._baseline_cache: dict[str, int] = {}
        self._triangles: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "TCIMSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop every cached structure (the session stays usable)."""
        with self._lock:
            self._invalidate()
            # Keep one edge set: the graph when one is held, else the
            # symmetric structure (after an apply or a snapshot open).
            if self._graph is not None:
                self._sym_sliced = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertex count (fixed for the session's lifetime)."""
        return self._num_vertices

    @property
    def lock(self) -> threading.RLock:
        """The session's reentrant lock.

        Every public method already holds it; take it explicitly to make
        a multi-step read atomic against concurrent updates, e.g.
        ``with session.lock: result, gen = session.run(), session.generation``.
        """
        return self._lock

    @property
    def generation(self) -> int:
        """Monotone mutation counter.

        Bumped every time the resident caches are invalidated (each
        applied update batch, and ``close()``).  Two reads of the same
        cached query under an unchanged generation did no new engine
        work — the signal :class:`repro.serve.Service` uses to coalesce
        repeat queries and to price only fresh work.
        """
        with self._lock:
            return self._generation

    @property
    def num_edges(self) -> int:
        """Current edge count."""
        with self._lock:
            return self._num_edges

    @property
    def graph(self) -> Graph:
        """Snapshot of the current graph (rebuilt lazily after updates).

        After a mutation the graph is reassembled from the symmetric
        structure's bits, which are already in CSR order.
        """
        with self._lock:
            if self._graph is None:
                rows, cols = self._sym_sliced.nonzeros()
                indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(rows, minlength=self._num_vertices), out=indptr[1:]
                )
                upper = rows < cols
                edges = np.stack([rows[upper], cols[upper]], axis=1)
                self._graph = Graph.from_parts(self._num_vertices, edges, indptr, cols)
            return self._graph

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is currently present."""
        with self._lock:
            n = self._num_vertices
            if u == v or not (0 <= u < n and 0 <= v < n):
                return False
            if self._graph is not None:
                return bool(self._graph.has_edge(u, v))
            return bool(incremental.test_bits(self._sym_sliced, [u], [v])[0])

    def resident_bytes(self) -> int:
        """Estimated footprint of the resident compressed structures.

        Sums every array the session holds, each once: the symmetric
        :class:`SlicedMatrix` and its windows, the oriented edge arrays,
        the compiled join plan, the graph (edge list and CSR), and the
        cached workload arrays.  This is the figure
        :class:`repro.serve.SessionPool` budgets its eviction against; a
        freshly opened session reports only its graph.
        """
        return self.resident_bytes_detail()["total"]

    def resident_bytes_detail(self) -> dict:
        """:meth:`resident_bytes` decomposed the way paging decisions need.

        Keys (all bytes), each array counted once, under the first key
        that holds it: ``graph`` (the graph's edge list and CSR; 0 after
        a mutation until something reads ``graph`` — the symmetric
        structure in ``slices`` is then the only edge set), ``slices``
        (the symmetric slice structure, the spare rows its buffers keep
        for in-place inserts included, and its windows' offsets),
        ``plan`` (the compiled count plan with its diagonal list),
        ``sym_plan`` (always 0: the workloads read the count plan; the
        key stays for readers of earlier releases), ``edges`` (the
        session's one edge list, unless the graph already holds it — a
        fresh session's are views of its edge list or CSR; the
        ``support()`` / ``truss()`` maps share it), ``workloads`` (the
        current generation's triangle list, supports, trussness and
        clustering arrays; 0 until a workload reads them, and after a
        mutation only what an apply that followed a read patched),
        ``spilled`` (how much of the
        above is disk-backed rather than on heap — 0 for a ram store),
        and ``total`` (== :meth:`resident_bytes`).  Surfaced per session
        by the serving tier's ``stats`` protocol op.
        """
        with self._lock:
            graph, sym = self._graph, self._sym_sliced
            graph, slices, edges, workloads = _held_bytes(
                (graph.edge_array(), *graph.csr) if graph is not None else (),
                (*sym.buffers, sym.indptr) if sym is not None else (),
                self._edge_arrays or (),
                self._workload_arrays(),
            )
            slices += sum(side.offsets.nbytes for side in self._oriented or ())
            plan = self._join_plan.nbytes if self._join_plan is not None else 0
            return {
                "slices": slices,
                "plan": plan,
                "sym_plan": 0,
                "edges": edges,
                "graph": graph,
                "workloads": workloads,
                "spilled": self._store.spilled_bytes,
                "total": slices + plan + edges + graph + workloads,
            }

    @property
    def fallback_counts(self) -> Mapping[str, int]:
        """How often each silent fallback fired (a read-only live view).

        ``flush_patch_error`` — splicing a committed batch into the edge
        list raised, so every derived structure was dropped, or the
        deferred patch of the windows and the count plan raised, so they
        were dropped; ``truss_repeel`` — a local trussness update passed its cap
        (:data:`repro.analysis.truss.LOCAL_UPDATE_CAP`), so the patched
        triangle list was re-peeled in full;
        ``workload_patch_error`` — patching the workload cache past a
        batch raised, so the cache was dropped.  Every dropped cache is
        rebuilt by the next query that needs it.  (An ``apply()`` that
        drops what no reader used is the rule, not a fallback, and is
        not counted.)  Takes no lock.
        """
        return MappingProxyType(self._fallbacks)

    @property
    def join_plan(self):
        """The resident :class:`~repro.core.plan.JoinPlan` (or ``None``).

        Compiled lazily by the first engine-executing query, then
        patched rather than rebuilt across applies that reads separate
        (an apply after an unread one drops it, see :meth:`apply`).
        Reading the property folds the pending batches in first, so the
        returned plan always reflects the current graph.  Plans are
        immutable objects — the reference returned here stays internally
        consistent even if a later update swaps the session to a patched
        successor.
        """
        with self._lock:
            self._flush_patches()
            return self._join_plan

    def plan_resident_bytes(self) -> int:
        """Footprint of the compiled join plan (0 when none is resident).

        The count plan is the session's only resident plan: counts,
        simulations and the workloads' triangle list all read it.
        """
        with self._lock:
            return self._join_plan.nbytes if self._join_plan is not None else 0

    # ------------------------------------------------------------------
    # Snapshots (repro.storage)
    # ------------------------------------------------------------------
    def snapshot(self, path, *, ensure: bool = True):
        """Persist the session's resident state as an on-disk snapshot.

        Writes the versioned manifest + content-hashed segment format of
        :mod:`repro.storage.snapshot`: the symmetric slice structure
        with its windows' offsets, the compiled count plan with its
        diagonal list, the oriented edge arrays (the session's edge
        list), the generation counter, and the incrementally maintained
        triangle total — so ``open_session(snapshot=path)`` hydrates
        warm, without a :class:`Graph`, re-slicing or re-compiling.  Slice ids and edge
        endpoints are written as int32 where they fit.  ``ensure=True``
        (the default) warms the structure and the plan first;
        ``ensure=False`` (the pool's eviction write-back path) serialises
        only what is already resident, never forcing a plan build at
        eviction time.

        Returns the snapshot directory path.
        """
        with self._lock:
            self._flush_patches()
            if ensure:
                self._prepare()
                self._ensure_join_plan()
            meta, arrays = self._snapshot_state()
            return storage_snapshot.write_snapshot(path, meta, arrays)

    def _snapshot_state(self) -> tuple[dict, dict]:
        """The ``(meta, arrays)`` pair a snapshot persists.

        Callers hold ``self._lock`` with patches flushed.  The edge list
        is always included (derived when not resident); the symmetric
        structure and the plan only when
        resident, and the manifest's ``structures`` / ``plans`` tables
        record what is present so hydration restores exactly the warmth
        that was serialised.
        """
        sources, destinations = self._edges()
        arrays: dict[str, np.ndarray] = {
            "oriented.sources": _narrow(sources, self._num_vertices),
            "oriented.destinations": _narrow(destinations, self._num_vertices),
        }
        structures: dict[str, dict] = {}
        sym = self._sym_sliced
        if sym is not None:
            structures["sym"] = {
                "num_rows": sym.num_rows,
                "num_cols": sym.num_cols,
                "slice_bits": sym.slice_bits,
                "structure_version": sym.structure_version,
            }
            arrays["sym.indptr"] = sym.indptr
            arrays["sym.slice_ids"] = _narrow(sym.slice_ids, sym.slices_per_row)
            arrays["sym.data"] = sym.data
            for side in self._oriented or ():
                arrays[f"sym.{side.side}"] = side.offsets
        plans: dict[str, dict] = {}
        plan = self._join_plan
        if plan is not None:
            plans["plan"] = {
                "num_edges": plan.num_edges,
                "stamp": [list(entry) for entry in plan.stamp],
            }
            for name in _PLAN_ARRAYS:
                arrays[f"plan.{name}"] = getattr(plan, name)
        meta = {
            "config": self.config.to_mapping(),
            "generation": self._generation,
            "triangles": self._triangles,
            "num_vertices": self._num_vertices,
            "num_edges": self.num_edges,
            "structures": structures,
            "plans": plans,
        }
        return meta, arrays

    def _hydrate(self, meta: dict, arrays: dict) -> None:
        """Adopt a snapshot's state (``open_session(snapshot=)``).

        The session is freshly constructed and unshared, so no lock is
        needed.  The generation counter and the maintained triangle
        total always carry over.  The edge list comes from the
        ``oriented.*`` segments (or, in snapshots of earlier releases,
        ``graph.edges``).  The symmetric structure and the compiled count
        plan carry over only when they were built for this session's
        layout: the same slice width, and the upper-triangular edge list
        (earlier releases could also write a ``"symmetric"`` orientation,
        whose edge list holds both directions of every edge and whose
        plan joins the structure with itself).  Otherwise the session
        keeps only a graph built from the edge list and rebuilds the rest
        lazily.  Snapshots of earlier releases also carry ``graph.*``,
        ``row.*``, ``col.*``, ``edges.*``, ``sym_edges.*`` and
        ``sym_plan.*`` segments, a plan over the retired row and column
        structures and a summary of the retired coloring contexts; they
        were verified and are ignored.
        """
        self._generation = int(meta.get("generation", 0))
        triangles = meta.get("triangles")
        self._triangles = int(triangles) if triangles is not None else None
        saved = meta.get("config", {})
        same_layout = (
            saved.get("slice_bits") == self.config.slice_bits
            and saved.get("orientation", "upper") == "upper"
        )

        def take(name: str) -> np.ndarray:
            try:
                return arrays[name]
            except KeyError:
                raise StorageError(
                    f"snapshot manifest names array {name!r} but the segment "
                    f"table has no such entry"
                ) from None

        info = meta.get("structures", {}).get("sym") if same_layout else None
        if "oriented.sources" in arrays:
            edge_arrays = tuple(
                take(f"oriented.{name}").astype(np.int64)
                for name in ("sources", "destinations")
            )
            if info is None:
                sources, destinations = edge_arrays
                forward = sources < destinations
                self._graph = Graph(
                    self._num_vertices,
                    np.stack([sources[forward], destinations[forward]], axis=1),
                )
                self._num_edges = self._graph.num_edges
                return
            # The symmetric structure is the edge set; ``graph`` rebuilds
            # from it on demand, as after an apply.
            self._graph = None
            self._num_edges = int(meta.get("num_edges", 0))
            self._edge_arrays = edge_arrays
        if info is None:
            return
        adopt = self._store.adopt
        sym = SlicedMatrix(
            int(info["num_rows"]),
            int(info["num_cols"]),
            int(info["slice_bits"]),
            take("sym.indptr"),
            adopt(take("sym.slice_ids").astype(np.int64)),
            adopt(take("sym.data")),
        )
        sym.structure_version = int(info["structure_version"])
        self._sym_sliced = sym
        if "sym.upper" in arrays:
            self._oriented = tuple(
                SliceWindow(sym, side, take(f"sym.{side}"))
                for side in ("upper", "lower")
            )
        else:
            self._oriented = SliceWindow.pair(sym)
        info = meta.get("plans", {}).get("plan")
        if info is None or "stamp" not in info:
            return
        plan = joinplan.JoinPlan(
            **{name: adopt(take(f"plan.{name}")) for name in _PLAN_ARRAYS},
            num_edges=int(info["num_edges"]),
            stamp=tuple(tuple(int(v) for v in entry) for entry in info["stamp"]),
        )
        # Defensive: a hand-assembled snapshot could pair a plan with
        # structures it was not compiled for — rebuild, never serve.
        if plan.matches(*self._oriented) and plan.num_edges == self._edges()[0].size:
            self._join_plan = plan

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Exact triangle count of the current graph.

        Served from the incrementally maintained total when updates have
        been applied; otherwise one full run on the resident compressed
        structures (cached for repeat calls).
        """
        with self._lock:
            if self._triangles is None:
                self._triangles = self._full_run().triangles
            return self._triangles

    def simulate(self) -> RunReport:
        """Full priced run: functional result + architecture-model pricing.

        Bit-identical to ``TCIMAccelerator(config).run(graph)`` plus the
        matching perf evaluation — the session only skips the re-slicing,
        never changes the dataflow.  Cached until the graph changes.
        """
        with self._lock:
            if self._report is None:
                from repro.arch.perf import default_pim_model

                result = self._full_run()
                model = self._model or default_pim_model()
                if result.shards:
                    from repro.arch.pipeline import measured_shard_report

                    perf = measured_shard_report(result, model)
                    shard_perf = [
                        model.evaluate(shard.events, shard.rows)
                        for shard in result.shards
                    ]
                else:
                    perf = model.evaluate(result.events)
                    shard_perf = []
                self._report = RunReport(
                    result=result, perf=perf, shard_perf=shard_perf
                )
            return self._report

    def run(self) -> TCIMRunResult:
        """The raw functional run result (``simulate()`` without pricing)."""
        with self._lock:
            return self._full_run()

    def slice_stats(self) -> SliceStatistics:
        """Table III/IV compression statistics of the resident structures."""
        with self._lock:
            if self._slice_stats is None:
                self._prepare()
                row_sliced, col_sliced = self._oriented
                self._slice_stats = slice_statistics(
                    None,
                    slice_bits=self.config.slice_bits,
                    row_sliced=row_sliced,
                    col_sliced=col_sliced,
                )
            return self._slice_stats

    def baseline(self, name: str) -> int:
        """Triangle count via a registered software baseline (cached)."""
        with self._lock:
            if name not in self._baseline_cache:
                self._baseline_cache[name] = int(registry.baseline(name)(self.graph))
            return self._baseline_cache[name]

    # ------------------------------------------------------------------
    # Bulk-bitwise workloads (the shared kernel path)
    # ------------------------------------------------------------------
    def support(self) -> EdgeMap:
        """Triangle support of every undirected edge.

        ``support[(u, v)] = |N(u) ∩ N(v)|`` for each edge ``u < v`` — the
        quantity k-truss peeling consumes.  One ``np.bincount`` over the
        edge ids of the generation's triangle list (see
        :meth:`_triangle_list`; after an :meth:`apply` that followed a
        read, the list that apply patched), value-identical to
        :func:`repro.analysis.truss.edge_support`.

        Returns a read-only :class:`~repro.graph.edgemap.EdgeMap` over
        the session's edge list (``.sources`` and ``.destinations`` are
        its arrays, not a copy, and the supports are ``.per_edge``), one
        per generation: every call until
        the graph changes returns the same map, and a later ``apply()``
        leaves an earlier map as it was.  ``dict(m)`` is a mutable copy.
        """
        with self._lock:
            self._workload_read = True
            return self._support_map()

    def truss(self, k: int | None = None):
        """Truss decomposition from witness enumeration plus a frontier peel.

        ``truss()`` returns the trussness of every edge as a read-only
        :class:`~repro.graph.edgemap.EdgeMap` (``{(u, v): trussness}``,
        the same per-generation snapshot rules as :meth:`support`);
        ``truss(k)`` returns the k-truss subgraph (the edges of trussness
        ``>= k``) as a :class:`Graph`.  Both read one per-edge trussness
        array, computed once per generation:
        :func:`repro.analysis.truss.peel_trussness` peels the
        generation's triangle list (see :meth:`_triangle_list`) from the
        supports :meth:`support` reads off the same list.  After an
        :meth:`apply` that followed a read of the previous generation's
        trussness, that apply updated it locally and exactly instead
        (:func:`~repro.analysis.truss.trussness_after_deletes` /
        :func:`~repro.analysis.truss.trussness_after_inserts`), with the
        full peel as the fallback past a cap (``truss_repeel`` in
        :attr:`fallback_counts`).  Value-identical to
        :func:`repro.analysis.truss.truss_decomposition` /
        :func:`~repro.analysis.truss.k_truss`.
        """
        from repro.analysis.truss import peel_trussness

        with self._lock:
            if k is not None and k < 2:
                raise GraphError(f"k must be >= 2, got {k}")
            self._workload_read = True
            cached = self._workload_cache.get("truss")
            if cached is None:
                support = self._support_map()
                cached = EdgeMap(
                    support.sources,
                    support.destinations,
                    peel_trussness(support.per_edge, self._triangle_list()),
                    self._num_vertices,
                )
                self._workload_cache["truss"] = cached
            if k is None:
                return cached
            keep = cached.per_edge >= k
            return Graph(
                self._num_vertices,
                np.stack([cached.sources[keep], cached.destinations[keep]], axis=1),
            )

    def clustering(self) -> ClusteringReport:
        """Clustering metrics from the generation's triangle list.

        Local coefficients, per-vertex triangle counts, their average,
        the global transitivity, and the triangle total.  The per-vertex
        counts and the degrees are :meth:`_vertex_tallies` (tallied off
        the triangles :meth:`support` also reads, see
        :meth:`_triangle_list`, and patched by an :meth:`apply` that
        followed a read), and the total is the list's length.
        Value-identical to the :mod:`repro.analysis.metrics` oracles.
        One report per generation, handed out as is: its arrays are
        non-writeable.
        """
        from repro.analysis import metrics

        with self._lock:
            self._workload_read = True
            cached = self._workload_cache.get("clustering")
            if cached is None:
                tallies, degrees = self._vertex_tallies()
                local = metrics.local_clustering(triangles=tallies, degrees=degrees)
                triangles = len(self._triangle_list())
                local.flags.writeable = False
                cached = ClusteringReport(
                    local=local,
                    triangles_per_vertex=tallies,
                    average=float(local.mean()) if local.size else 0.0,
                    transitivity=metrics.transitivity(
                        num_triangles=triangles, degrees=degrees
                    ),
                    wedges=metrics.wedge_count(degrees=degrees),
                    triangles=triangles,
                )
                self._workload_cache["clustering"] = cached
            return cached

    def common_neighbors(self, u: int, v: int | None = None, *, k: int | None = None):
        """Common-neighbor link-prediction scores from vertex ``u``.

        * ``common_neighbors(u, v)`` → the score ``|N(u) ∩ N(v)|``;
        * ``common_neighbors(u)`` → every candidate within two hops of
          ``u`` that is not already a neighbor, as ``(vertex, score)``
          pairs in ascending vertex order;
        * ``common_neighbors(u, k=10)`` → the top-``k`` of those, best
          score first (ties broken by ascending vertex).

        Scores are per-edge popcount sums of
        :func:`~repro.core.kernels.execute_workload`: the candidate
        pairs are an ad-hoc edge list joined against the resident
        symmetric structure.
        """
        with self._lock:
            self._check_query_vertex(u)
            if v is not None:
                if k is not None:
                    raise GraphError(
                        "common_neighbors takes either a target vertex v "
                        "or a top-k, not both"
                    )
                self._check_query_vertex(v)
                scores = self._pair_scores(
                    np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
                )
                return int(scores[0])
            if k is not None and k < 1:
                raise GraphError(f"k must be >= 1, got {k}")
            candidates = self._candidate_scores(u)
            if k is None:
                return candidates
            ranked = sorted(candidates, key=lambda item: (-item[1], item[0]))
            return ranked[:k]

    def common_neighbors_many(self, pairs) -> list[int]:
        """Batched common-neighbor scores: many ``(u, v)`` probes, one run.

        ``pairs`` is an iterable of ``(u, v)`` vertex pairs; the return
        value is their scores ``|N(u) ∩ N(v)|`` in input order.  The
        whole batch joins against the resident symmetric structure in
        a single :func:`~repro.core.kernels.execute_workload` pass, so
        a link-prediction sweep pays one kernel run instead of one per
        probe.  Value-identical to calling :meth:`common_neighbors` per
        pair; :meth:`pair_scores` takes the probes as two arrays.
        """
        with self._lock:
            sources, destinations = self.parse_pairs(pairs)
            return self._pair_scores(sources, destinations).tolist()

    def pair_scores(self, sources, destinations) -> np.ndarray:
        """Common-neighbor scores of probe pairs given as two arrays.

        The array form of :meth:`common_neighbors_many`: two equal-length
        1-D vertex arrays in, the int64 scores ``|N(u) ∩ N(v)|`` out, in
        one :func:`~repro.core.kernels.execute_workload` pass.  Raises
        :class:`~repro.errors.GraphError` on arrays of other shapes and on
        an out-of-range vertex (the first one in probe order, as
        :meth:`parse_pairs` reports it).  The serving tier's probe batch
        scores all of a session's probes with one call.
        """
        try:
            sources = np.asarray(sources, dtype=np.int64)
            destinations = np.asarray(destinations, dtype=np.int64)
        except (TypeError, ValueError) as error:
            raise GraphError(f"pair_scores takes vertex arrays: {error}") from None
        if sources.ndim != 1 or sources.shape != destinations.shape:
            raise GraphError(
                "pair_scores takes two 1-D vertex arrays of one length, got "
                f"shapes {sources.shape} and {destinations.shape}"
            )
        bad_sources = (sources < 0) | (sources >= self._num_vertices)
        bad = bad_sources | (destinations < 0) | (destinations >= self._num_vertices)
        if bad.any():
            first = int(bad.argmax())
            ends = sources if bad_sources[first] else destinations
            self._check_query_vertex(int(ends[first]))
        with self._lock:
            return self._pair_scores(sources, destinations)

    def parse_pairs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Validate an iterable of ``(u, v)`` probes into int64 arrays.

        The front door of :meth:`common_neighbors_many` and of the
        serving tier's probe batch, so both reject exactly the same
        malformed input with exactly the same errors.
        """
        sources_list: list[int] = []
        destinations_list: list[int] = []
        for index, pair in enumerate(pairs):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(
                    f"pair {index}: expected a (u, v) vertex pair, "
                    f"got {pair!r}"
                ) from None
            u, v = int(u), int(v)
            self._check_query_vertex(u)
            self._check_query_vertex(v)
            sources_list.append(u)
            destinations_list.append(v)
        return (
            np.asarray(sources_list, dtype=np.int64),
            np.asarray(destinations_list, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Incremental updates (the vectorized fast path)
    # ------------------------------------------------------------------
    def apply(self, ops, record: bool = False) -> UpdateReport:
        """Apply one ordered stream of ``(op, u, v)`` updates.

        ``op`` is ``"+"``/``"insert"`` or ``"-"``/``"delete"``; the
        final graph and count match :meth:`DynamicTriangleCounter.apply_ops`
        exactly (order preserved, no-ops ignored).  Only the last op on
        each edge decides its final state, and the count depends only on
        the final edge set, so the stream reduces to its net effect: one
        delta re-join batch of net deletions, then one of net insertions
        (disjoint sets, so the order between them cannot matter).  Each
        call therefore rewrites the resident structures at most twice,
        however the stream interleaves, and
        :attr:`UpdateReport.inserted` / :attr:`~UpdateReport.deleted`
        count net edge changes.

        ``record=True`` instead runs one batch per operation and returns
        the signed per-op deltas in :attr:`UpdateReport.per_op_deltas` —
        the differential-testing mode cross-checked against the
        :class:`DynamicTriangleCounter` oracle in the test-suite.

        **Derived state**: a call keeps what a reader used since the
        previous call and drops the rest for a lazy rebuild from the
        symmetric structure (:meth:`_drop_unread`), so a pure update
        stream holds none after its second call.  Each batch splices a
        kept edge list once, patches a kept workload cache through that
        splice (the triangle list, tallies and trussness) and queues for
        one lazy patch of kept windows and plan.  The patches are host
        bookkeeping: :attr:`UpdateReport.events` prices the delta joins
        only.

        **Failure semantics**: if a batch raises (e.g. a capacity
        :class:`~repro.errors.ArchitectureError`), the failing batch is
        rolled back completely — slice structures, edge count, and
        triangle count all restored — while batches already applied stay
        applied: the net-deletion batch commits before the net-insertion
        batch runs.  The raised error carries ``applied_operations`` (the
        committed prefix, as ``(op, u, v)`` triples) and
        ``partial_update`` (its :class:`UpdateReport`).  The session
        remains consistent and usable; re-submitting the same stream is
        safe because applied operations filter out as no-ops.
        """
        parsed = self._parse_ops(ops)
        if record:
            batches = [(code, [(u, v)]) for code, u, v in parsed]
        else:
            last: dict[tuple[int, int], str] = {}
            for code, u, v in parsed:
                if u != v:
                    last[(u, v) if u < v else (v, u)] = code
            batches = [
                (code, sorted(edge for edge, op in last.items() if op == code))
                for code in ("-", "+")
                if code in last.values()
            ]
        with self._lock:
            self._drop_unread()
            return self._apply_batches(batches, len(parsed), record)

    def apply_edges(
        self, insertions=(), deletions=(), record: bool = False
    ) -> UpdateReport:
        """Two-list batch form: all insertions first, then all deletions.

        Matches :meth:`DynamicTriangleCounter.apply`'s ordering
        semantics (an edge in both lists ends absent); runs as
        :meth:`apply` on the concatenated stream.
        """
        ins = [("+", u, v) for u, v in insertions]
        dels = [("-", u, v) for u, v in deletions]
        return self.apply(ins + dels, record=record)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _parse_ops(self, ops) -> list[tuple[str, int, int]]:
        """Validate the whole stream before touching any state.

        Uses the oracle's shared parser (:func:`repro.core.dynamic.parse_op`)
        so the session and :class:`DynamicTriangleCounter` accept exactly
        the same streams.
        """
        from repro.core.dynamic import parse_op

        parsed: list[tuple[str, int, int]] = []
        for index, op in enumerate(ops):
            action, u, v = parse_op(op, index)
            u, v = int(u), int(v)
            for vertex in (u, v):
                if not 0 <= vertex < self._num_vertices:
                    raise GraphError(
                        f"op {index}: vertex {vertex} out of range "
                        f"[0, {self._num_vertices})"
                    )
            parsed.append(("+" if action == "insert" else "-", u, v))
        return parsed

    def _apply_batches(self, batches, requested: int, record: bool) -> UpdateReport:
        # Callers hold self._lock.  On failure, the *failing* batch is
        # rolled back completely (see _insert_batch/_delete_batch) while
        # batches already applied stay applied — the session is always
        # consistent, and re-submitting the stream is safe because
        # already-applied operations filter out as no-ops.
        # The delta path needs a base count to update; bootstrap with one
        # full run on the resident structures if none exists yet.
        self.count()
        events = EventCounts()
        cache_stats = CacheStatistics()
        delta_total = 0
        inserted = deleted = executed = 0
        per_op: list[int] | None = [] if record else None
        for index, (code, batch) in enumerate(batches):
            try:
                canonical = incremental.canonical_delta_edges(
                    batch, self._num_vertices
                )
                if code == "+":
                    outcome, changed = self._insert_batch(canonical)
                    delta = outcome.triangles
                    inserted += changed
                else:
                    outcome, changed = self._delete_batch(canonical)
                    delta = -outcome.triangles
                    deleted += changed
            except Exception as error:
                # The failing batch rolled back; batches before it are
                # committed.  Attach what DID happen so callers that
                # account for engine work (the serving tier's pricing and
                # op journal) stay in sync with the session's real state.
                error.partial_update = UpdateReport(
                    requested=requested,
                    inserted=inserted,
                    deleted=deleted,
                    delta_triangles=delta_total,
                    triangles=self._triangles,
                    segments=executed,
                    events=events,
                    cache_stats=cache_stats,
                    per_op_deltas=per_op,
                )
                error.applied_operations = [
                    (earlier_code, u, v)
                    for earlier_code, earlier_batch in batches[:index]
                    for u, v in earlier_batch
                ]
                raise
            if changed:
                executed += 1
                delta_total += delta
                events = events.merge(outcome.events)
                cache_stats = cache_stats.merge(outcome.cache_stats)
            if record:
                per_op.append(delta)
        return UpdateReport(
            requested=requested,
            inserted=inserted,
            deleted=deleted,
            delta_triangles=delta_total,
            triangles=self._triangles,
            segments=executed,
            events=events,
            cache_stats=cache_stats,
            per_op_deltas=per_op,
        )

    def _insert_batch(self, canonical: np.ndarray):
        sym = self._sym()
        delta_edges = canonical[
            ~incremental.test_bits(sym, canonical[:, 0], canonical[:, 1])
        ]
        if not delta_edges.size:
            return incremental.DeltaOutcome(triangles=0), 0
        # The delta join runs against the pre-insertion structure and may
        # raise (capacity); mutate only after it succeeds.
        outcome = incremental.symmetric_delta(
            self._num_vertices, sym, delta_edges, self.config
        )
        version = sym.structure_version
        try:
            splice = incremental.set_bits(
                sym, *_both_directions(delta_edges), store=self._store
            )
        except Exception:
            # The fresh edges were absent from the base, so their bits
            # were all zero: clearing both directions restores the
            # structure exactly even if set_bits died half-way (e.g. its
            # store could not grow the room), and a clear never allocates.
            incremental.clear_bits(sym, *_both_directions(delta_edges))
            # Every slice is back at its position: the plan stays current.
            sym.structure_version = version
            raise
        self._num_edges += len(delta_edges)
        self._triangles += outcome.triangles
        self._commit_mutation(delta_edges, True, splice)
        return outcome, len(delta_edges)

    def _delete_batch(self, canonical: np.ndarray):
        sym = self._sym()
        delta_edges = canonical[
            incremental.test_bits(sym, canonical[:, 0], canonical[:, 1])
        ]
        if not delta_edges.size:
            return incremental.DeltaOutcome(triangles=0), 0
        # Remove first: the destroyed triangles are the ones the delta
        # edges would re-create on the post-deletion graph.  The removal
        # never allocates; the join can raise (capacity), so roll the
        # removal back on failure — the re-insert fits in the room the
        # removal freed — to keep the session consistent.
        version = sym.structure_version
        splice = incremental.clear_bits(sym, *_both_directions(delta_edges))
        try:
            outcome = incremental.symmetric_delta(
                self._num_vertices, sym, delta_edges, self.config
            )
        except Exception:
            incremental.set_bits(sym, *_both_directions(delta_edges), store=self._store)
            # Every slice is back at its position: the plan stays current.
            sym.structure_version = version
            raise
        self._num_edges -= len(delta_edges)
        self._triangles -= outcome.triangles
        self._commit_mutation(delta_edges, False, splice)
        return outcome, len(delta_edges)

    def _sym(self) -> SlicedMatrix:
        """The incrementally maintained symmetric slice structure."""
        if self._sym_sliced is None:
            self._sym_sliced = SlicedMatrix.from_graph(
                self.graph, "symmetric", slice_bits=self.config.slice_bits,
                store=self._store,
            )
        return self._sym_sliced

    def _prepare(self) -> None:
        """Build (once) the resident state full runs consume: the
        symmetric structure, its row and column windows, and the edge
        list.

        Pending committed update batches are folded in first, so every
        structure handed to the engine reflects the current graph.  After
        a cache drop the windows and the edge list re-derive from the
        symmetric structure, without a :class:`Graph`.
        """
        self._flush_patches()
        if self._oriented is None:
            self._oriented = SliceWindow.pair(self._sym())
        self._edges()

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The upper-triangular edge list (callers hold the lock).

        Derived once — views of the graph's edge list when one is held,
        else read off the symmetric structure's bits — and then kept
        current by every committed batch (:meth:`_commit_mutation`).
        """
        if self._edge_arrays is None:
            if self._graph is not None:
                self._edge_arrays = oriented_edges(self._graph, "upper")
            else:
                rows, cols = self._sym().nonzeros()
                forward = rows < cols
                self._edge_arrays = rows[forward], cols[forward]
        return self._edge_arrays

    def _ensure_join_plan(self):
        """Compile (once per generation) the resident join plan.

        Callers hold ``self._lock`` and have run :meth:`_prepare`.  The
        staleness check is defensive: :meth:`_commit_mutation` always
        leaves the plan either patched-current or dropped, so a stale
        plan here would be a bug — rebuilt rather than served wrong.
        """
        if self._join_plan is not None and not self._join_plan.matches(
            *self._oriented
        ):
            self._join_plan = None
        if self._join_plan is None:
            self._join_plan = joinplan.build_join_plan(
                *self._oriented, *self._edge_arrays,
                chunk_edges=self._plan_chunk_edges, store=self._store,
            )
        return self._join_plan

    def _triangle_list(self) -> np.ndarray:
        """Every triangle once, as ``(t, 3)`` forward-edge ids.

        Callers hold ``self._lock``.  One
        :func:`~repro.core.kernels.triangle_witnesses` pass over the
        count run's inputs — the row and column windows, edge arrays and
        the resident count plan — allocated through the session's store
        and cached until the graph changes.  Supports, clustering and
        truss all read this one list.  Its length must
        equal :meth:`count` (after an apply, the total the delta joins
        maintain); a mismatch raises :class:`ArchitectureError` instead
        of serving either number.
        """
        cached = self._workload_cache.get("triangles")
        if cached is None:
            expected = self.count()
            self._prepare()
            cached = kernels.triangle_witnesses(
                *self._oriented,
                *self._edge_arrays,
                plan=self._ensure_join_plan(),
                store=self._store,
            )
            if len(cached) != expected:
                raise ArchitectureError(
                    f"the witness pass lists {len(cached)} triangles but the "
                    f"session counts {expected}; the resident state is "
                    f"inconsistent"
                )
            self._workload_cache["triangles"] = cached
        return cached

    def _support_map(self) -> EdgeMap:
        """The generation's :meth:`support` map (callers hold the lock)."""
        cached = self._workload_cache.get("support")
        if cached is None:
            listed = self._triangle_list()
            sources, destinations = self._edges()
            supports = np.bincount(listed.reshape(-1), minlength=sources.size)
            cached = EdgeMap(sources, destinations, supports, self._num_vertices)
            self._workload_cache["support"] = cached
        return cached

    def _vertex_tallies(self) -> tuple[np.ndarray, np.ndarray]:
        """``(triangles per vertex, degrees)``, both non-writeable.

        Callers hold ``self._lock``.  One ``np.bincount`` over the
        corners of the generation's triangle list and one over the edge
        list, cached until the graph changes; an :meth:`apply` that
        patches the list patches both from its batches' own triangles
        and edges instead (:meth:`_patched_workloads`).
        """
        cache = self._workload_cache
        if "tallies" not in cache:
            listed = self._triangle_list()
            sources, destinations = self._edges()
            n = self._num_vertices
            tallies = np.bincount(_corners(listed, sources, destinations), minlength=n)
            degrees = np.bincount(np.concatenate([sources, destinations]), minlength=n)
            for array in (tallies, degrees):
                array.flags.writeable = False
            cache["tallies"], cache["degrees"] = tallies, degrees
        return cache["tallies"], cache["degrees"]

    def _workload_arrays(self) -> list[np.ndarray]:
        """The arrays the workload cache holds (callers hold the lock).

        The maps' edge arrays are the session's edge list, counted under
        ``edges``, and the clustering report shares the tallies.
        """
        cache = self._workload_cache
        arrays = [
            cache[name] for name in ("triangles", "tallies", "degrees") if name in cache
        ]
        for name in ("support", "truss"):
            if name in cache:
                arrays.append(cache[name].per_edge)
        if "clustering" in cache:
            report = cache["clustering"]
            arrays += [report.local, report.triangles_per_vertex]
        return arrays

    def _patched_workloads(
        self, delta_edges: np.ndarray, insert: bool, old_edges: tuple, edge_splice
    ) -> dict:
        """The workload cache of the previous generation, moved past one
        batch: the triangle list, the per-vertex tallies and degrees, and
        the trussness (callers hold the lock and have spliced the edge
        list from ``old_edges`` by ``edge_splice``).

        The edge list's splice maps every old edge id to its new one.  A
        delete drops the list rows that hold a deleted edge; an insert
        appends the triangles its edges close, read off the symmetric
        structure (:func:`~repro.core.kernels.pair_witnesses`).  Row
        order may differ from a fresh witness pass: every reader is
        order-free.  The patched list must hold :meth:`count` triangles,
        or the patch raises.  The per-vertex tallies move by the corners
        of the destroyed or created triangles and the degrees by the
        batch's endpoints.  Trussness is updated locally
        (:func:`~repro.analysis.truss.trussness_after_deletes` /
        :func:`~repro.analysis.truss.trussness_after_inserts`), and past
        their cap re-peeled from the patched list (``truss_repeel``).
        """
        from repro.analysis import truss as truss_module

        n = np.int64(self._num_vertices)
        sources, destinations = self._edge_arrays
        keys = sources * n + destinations
        cache = self._workload_cache
        listed = cache["triangles"]
        count = old_edges[0].size
        table = joinplan._position_map(count, edge_splice, np.int64)
        if insert:
            spliced = edge_splice.inserted_before
            fresh = spliced + np.arange(spliced.size)
            created = self._created_triangles(delta_edges, keys)
            gone = np.empty(0, dtype=np.int64)
        else:
            spliced = edge_splice.removed_at
            removed = np.zeros(count, dtype=bool)
            removed[spliced] = True
            gone = np.unique(np.flatnonzero(removed[listed.reshape(-1)]) // 3)
            destroyed = listed[gone]
            created = np.empty((0, 3), dtype=np.int64)
        triangles = self._store.empty(
            (len(listed) - gone.size + len(created), 3), np.int64
        )
        # The surviving rows, remapped block by block between destroyed ones.
        start = filled = 0
        for stop in [*gone.tolist(), len(listed)]:
            np.take(
                table, listed[start:stop],
                out=triangles[filled: filled + stop - start],
            )
            filled, start = filled + stop - start, stop + 1
        triangles[filled:] = created
        if len(triangles) != self._triangles:
            raise ArchitectureError(
                f"the patched list holds {len(triangles)} triangles but the "
                f"session counts {self._triangles}"
            )
        patched = {"triangles": triangles}
        if "tallies" in cache:
            sign = 1 if insert else -1
            tallies, degrees = cache["tallies"].copy(), cache["degrees"].copy()
            np.add.at(degrees, delta_edges.reshape(-1), sign)
            corners = (
                _corners(created, sources, destinations) if insert
                else _corners(destroyed, *old_edges)
            )
            np.add.at(tallies, corners, sign)
            for array in (tallies, degrees):
                array.flags.writeable = False
            patched["tallies"], patched["degrees"] = tallies, degrees
        if "truss" not in cache:
            return patched
        old = cache["truss"].per_edge

        def triangles_of(edges):
            return self._edge_triangles(sources, destinations, keys, edges)

        if insert:
            values = np.insert(old, spliced, 2)
            closing = fresh[np.isin(fresh, created)]
            trussness = truss_module.trussness_after_inserts(
                values, closing, triangles_of
            ) if closing.size else values
        else:
            values = np.delete(old, spliced)
            seeds = table[destroyed[~removed[destroyed]]]
            trussness = truss_module.trussness_after_deletes(
                values, seeds, triangles_of
            ) if seeds.size else values
        if trussness is None:
            self._fallbacks["truss_repeel"] += 1
            trussness = truss_module.peel_trussness(
                np.bincount(triangles.reshape(-1), minlength=sources.size),
                triangles,
            )
        patched["truss"] = EdgeMap(sources, destinations, trussness, n)
        return patched

    def _created_triangles(
        self, delta_edges: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """List rows ``(e_ac, e_ab, e_bc)`` of the triangles ``a < b < c``
        an insert batch closed, each once (callers hold the lock).

        The common neighbours of the batch's edges, read while the
        symmetric structure holds them; a triangle with two or three of
        the batch's edges is found once per edge.
        """
        which, witnesses = kernels.pair_witnesses(
            self._sym(), delta_edges[:, 0], delta_edges[:, 1]
        )
        corners = np.stack(
            [delta_edges[which, 0], delta_edges[which, 1], witnesses], axis=1
        )
        a, b, c = np.unique(np.sort(corners, axis=1), axis=0).T
        n = np.int64(self._num_vertices)
        return np.stack(
            [_edge_ids(keys, n, *ends) for ends in ((a, c), (a, b), (b, c))],
            axis=1,
        )

    def _edge_triangles(self, sources, destinations, keys, edges):
        """``(which, f, g)``: every triangle through the forward edges
        ``edges``, as the index into ``edges`` and the ids of its other
        two edges (the ``triangles_of`` of the local truss updates)."""
        u, v = sources[edges], destinations[edges]
        which, witnesses = kernels.pair_witnesses(self._sym(), u, v)
        n = np.int64(self._num_vertices)
        return (
            which,
            _edge_ids(keys, n, u[which], witnesses),
            _edge_ids(keys, n, v[which], witnesses),
        )

    def _pair_scores(
        self, sources: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """Support scores of an ad-hoc (not-necessarily-edge) pair list.

        Callers hold ``self._lock``.  The resident plan only covers the
        graph's own edge list, so these queries run plan-free — still
        through the same kernel and structures.
        """
        if not sources.size:
            return np.zeros(0, dtype=np.int64)
        sym = self._sym()
        _, touched_counts = sym.row_slice_ranges(np.unique(sources))
        _, column_capacity = split_capacity(
            self.config.capacity_slices, touched_counts
        )
        result = kernels.execute_workload(
            sym,
            sym,
            sources,
            destinations,
            column_capacity,
            self.config.policy,
            self.config.seed,
            row_writes=int(touched_counts.sum()),
            per_edge=True,
        )
        return result.per_edge

    def _candidate_scores(self, u: int) -> list[tuple[int, int]]:
        """Two-hop common-neighbor candidates of ``u`` with scores.

        Callers hold ``self._lock``.  Candidates are vertices reachable
        in exactly two hops that are not ``u`` and not already adjacent
        to it, ascending.  Each call scores them afresh: nothing is
        cached per probed vertex, so probing every vertex holds no memory
        outside :meth:`resident_bytes`.
        """
        candidates = self._enumerate_candidates(u)
        scores = self._pair_scores(
            np.full(candidates.size, u, dtype=np.int64), candidates
        )
        return list(zip(candidates.tolist(), scores.tolist()))

    def _enumerate_candidates(self, u: int) -> np.ndarray:
        """Two-hop candidate vertices of ``u`` (callers hold the lock).

        Decodes only the symmetric structure's rows of ``u`` and of its
        neighbours, so no apply makes this rebuild the graph.
        """
        sym = self._sym()
        neighbors = sym.row_columns(np.array([u], dtype=np.int64))
        if not neighbors.size:
            return np.empty(0, dtype=np.int64)
        two_hop = np.unique(sym.row_columns(neighbors))
        keep = (two_hop != u) & ~np.isin(two_hop, neighbors)
        return two_hop[keep].astype(np.int64, copy=False)

    def _check_query_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )

    def _full_run(self) -> TCIMRunResult:
        if self._run is None:
            self._prepare()
            join_plan = self._ensure_join_plan()
            row_sliced, col_sliced = self._oriented
            self._run = self._accelerator.run(
                None,
                num_vertices=self._num_vertices,
                row_sliced=row_sliced,
                col_sliced=col_sliced,
                edge_arrays=self._edge_arrays,
                join_plan=join_plan,
            )
            self._triangles = self._run.triangles
            self._slice_stats = self._run.slice_stats
        return self._run

    def _commit_mutation(
        self, delta_edges: np.ndarray, insert: bool, splice
    ) -> None:
        """Record one committed delta batch against the derived state.

        Callers hold ``self._lock`` and run this only after a batch has
        fully committed (never on a rolled-back failure), so a bumped
        generation always marks a consistent new state.  Query-result
        caches are dropped (they priced the old graph).  What the
        running :meth:`apply` kept (:meth:`_drop_unread`) moves past the
        batch: the edge list is spliced once
        (:func:`~repro.core.plan.merge_oriented_edges`), the workload
        cache is patched through that splice, and the windows and the
        count plan queue the batch, its edge splice and ``splice`` (the
        :class:`~repro.core.incremental.StructureDelta` of the symmetric
        structure) for :meth:`_flush_patches` to fold in when the next
        engine read needs them.  If the edge splice raises, all derived
        state is dropped and ``flush_patch_error`` counted.
        """
        self._generation += 1
        # The symmetric structure now holds the only current edge set.
        self._graph = None
        self._slice_stats = None
        self._run = None
        self._report = None
        self._baseline_cache.clear()
        old_edges = self._edge_arrays
        if old_edges is None:
            # Nothing derived outlives the edge list (see _drop_unread).
            self._drop_derived()
            return
        try:
            *edges, edge_splice = joinplan.merge_oriented_edges(
                *old_edges, delta_edges, self._num_vertices, insert
            )
        except Exception:
            self._fallbacks["flush_patch_error"] += 1
            self._drop_derived()
            return
        self._edge_arrays = tuple(edges)
        # A reader's triangle list, tallies and trussness are patched; the
        # other workload results go.  A failed patch drops the whole cache.
        patched = {}
        if "triangles" in self._workload_cache:
            try:
                patched = self._patched_workloads(
                    delta_edges, insert, old_edges, edge_splice
                )
            except Exception:
                self._fallbacks["workload_patch_error"] += 1
        self._workload_cache = patched
        if self._oriented is not None:
            self._pending_patches.append((delta_edges, edge_splice, splice))

    def _flush_patches(self) -> None:
        """Fold the batches the previous :meth:`apply` call queued into
        the windows and the count plan.

        The symmetric structure and the edge list were spliced at commit
        time, so the queued batches fold in at once: the windows of the
        batches' endpoint rows re-derive, and one
        :func:`~repro.core.plan.patch_join_plan` carries the plan's kept
        pairs through the composed edge splices (counted from the plan's
        ``num_edges``) and symmetric splices, and re-joins the union of
        the batches' cut edges against the current windows.

        Callers hold ``self._lock``.  Any patching failure falls back to
        dropping the windows and the plan (they are rebuildable from the
        symmetric structure), never to an inconsistent session —
        patching is an optimisation, not a source of truth.
        """
        if not self._pending_patches:
            return
        pending, self._pending_patches = self._pending_patches, []
        try:
            delta_edges = np.concatenate([batch[0] for batch in pending])
            # Rows whose symmetric slice set changed.
            changed = np.concatenate(
                [rows for *_, splice in pending
                 for rows in (splice.inserted_rows, splice.removed_rows)]
            )
            SliceWindow.refresh(self._oriented, np.unique(delta_edges))
            # Only a delta edge's source row can gain or lose upper
            # slices, and its destination row lower ones: when that row's
            # slice set changed, or when the edge lies in its diagonal
            # slice, which may enter or leave the window on a
            # payload-only update.
            u, v = delta_edges[:, 0], delta_edges[:, 1]
            diagonal = u // self.config.slice_bits == v // self.config.slice_bits
            moved = tuple(ends[diagonal | np.isin(ends, changed)] for ends in (u, v))
            plan = self._join_plan
            if plan is not None:
                self._join_plan = joinplan.patch_join_plan(
                    plan,
                    *self._oriented,
                    *self._edge_arrays,
                    incremental.compose_deltas(
                        plan.num_edges, [batch[1] for batch in pending]
                    ),
                    incremental.compose_deltas(
                        plan.payload_rows, [batch[2] for batch in pending]
                    ),
                    moved=moved,
                    store=self._store,
                )
        except Exception:
            self._fallbacks["flush_patch_error"] += 1
            self._drop_structures()

    def _drop_unread(self) -> None:
        """The lifecycle rule of derived state, run as :meth:`apply` starts.

        Callers hold ``self._lock``.  The windows and the count plan stay
        only if a read folded the batches the previous call queued (or it
        queued none); the workload cache only if :meth:`support`,
        :meth:`clustering` or :meth:`truss` ran since that call; the edge
        list only while either stays.  The rest is dropped for a lazy
        rebuild from the symmetric structure, so the pending queue never
        holds more than one call's batches.
        """
        if self._pending_patches:
            self._drop_structures()
        if not self._workload_read:
            self._workload_cache.clear()
        self._workload_read = False
        if self._oriented is None and not self._workload_cache:
            self._edge_arrays = None

    def _drop_structures(self) -> None:
        """Drop the windows and the count plan with their queued batches."""
        self._oriented = None
        self._join_plan = None
        self._pending_patches.clear()

    def _drop_derived(self) -> None:
        """Drop everything derived from the symmetric structure."""
        self._drop_structures()
        self._edge_arrays = None
        self._workload_cache.clear()

    def _invalidate(self) -> None:
        """Drop every cache derived from the current graph (see ``close``).

        The incrementally maintained pieces — the triangle count and the
        symmetric slice structure — survive; everything derived from
        them is dropped and lazily re-created on the next query.
        Callers hold ``self._lock``.
        """
        self._generation += 1
        self._drop_derived()
        self._slice_stats = None
        self._run = None
        self._report = None
        self._baseline_cache.clear()


def _both_directions(delta_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` covering both directions of canonical edges."""
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    return np.concatenate([u, v]), np.concatenate([v, u])


def _corners(listed: np.ndarray, sources: np.ndarray, destinations: np.ndarray):
    """The three vertices of every triangle row ``(e_uv, e_uw, e_wv)`` of
    ``listed``, over the forward edges ``(sources, destinations)``."""
    return np.concatenate(
        [sources[listed[:, 0]], destinations[listed[:, 0]], destinations[listed[:, 1]]]
    )


def _edge_ids(keys: np.ndarray, n, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ids of the edges ``{a[i], b[i]}`` among the forward edges whose
    ascending ``u * n + v`` keys are ``keys``; raises if one is absent."""
    wanted = np.minimum(a, b) * n + np.maximum(a, b)
    found = np.searchsorted(keys, wanted)
    if wanted.size and (
        int(found.max()) >= keys.size or bool((keys[found] != wanted).any())
    ):
        raise ArchitectureError("a witness bit names a missing edge")
    return found


#: The count plan's arrays, as snapshot segments ``plan.<name>``.
_PLAN_ARRAYS = (
    "row_positions",
    "col_positions",
    "trace_keys",
    "pair_counts",
    "diagonal_pairs",
    "diagonal_masks",
)


def _narrow(array: np.ndarray, bound: int) -> np.ndarray:
    """``array`` as int32 when its values stay below ``bound`` (a vertex
    count or slices per row), for the snapshot's smaller segments."""
    if bound <= np.iinfo(np.int32).max:
        return array.astype(np.int32, copy=False)
    return array


def _held_bytes(*groups) -> list[int]:
    """Bytes of each group of arrays, counting every array's memory
    once — a view as the array that owns it — under the first group
    that holds it."""
    seen: set[int] = set()
    totals = []
    for arrays in groups:
        totals.append(0)
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            if id(array) not in seen:
                seen.add(id(array))
                totals[-1] += array.nbytes
    return totals


def open_session(
    source=None,
    config: AcceleratorConfig | Mapping | None = None,
    *,
    model=None,
    snapshot=None,
    **overrides,
) -> TCIMSession:
    """Open a :class:`TCIMSession` on a graph source or a snapshot.

    ``source`` is a :class:`Graph`, a file path, or a
    ``dataset:<key>[@scale]`` spec.  ``config`` is an
    :class:`AcceleratorConfig` or a plain mapping (e.g. a parsed TOML/JSON
    file); ``overrides`` are individual config fields applied on top —
    ``open_session(g, num_arrays=4)`` just works.

    ``snapshot`` (exclusive with ``source``) opens a directory written
    by :meth:`TCIMSession.snapshot`: the graph, slice structures, the
    compiled count plan and the generation counter hydrate from disk —
    no re-slicing, no plan recompile.  The
    snapshot's own config is the base; ``config``/``overrides`` layer on
    top (structural state is kept only while the slice width stays
    unchanged).  Corrupt or truncated snapshots raise
    :class:`~repro.errors.StorageError`.
    """
    if snapshot is not None:
        if source is not None:
            raise ReproError(
                "open_session takes a graph source or a snapshot=, not both"
            )
        return _open_snapshot_session(snapshot, config, model=model, **overrides)
    if source is None:
        raise ReproError("open_session needs a graph source or a snapshot= path")
    graph = resolve_graph(source)
    if isinstance(config, AcceleratorConfig):
        if overrides:
            config = AcceleratorConfig.from_mapping(config.to_mapping(), **overrides)
    else:
        config = AcceleratorConfig.from_mapping(config, **overrides)
    return TCIMSession(graph, config, model=model)


def _open_snapshot_session(
    path, config: AcceleratorConfig | Mapping | None, *, model=None, **overrides
) -> TCIMSession:
    """Hydrate a session from a snapshot directory (``open_session``'s back)."""
    meta = storage_snapshot.read_snapshot_meta(path)
    base = dict(meta.get("config", {}))
    for key in _RETIRED_CONFIG_KEYS:
        base.pop(key, None)
    if isinstance(config, AcceleratorConfig):
        base.update(config.to_mapping())
    elif config:
        base.update(config)
    effective = AcceleratorConfig.from_mapping(base, **overrides)
    # Hydrate segments straight through the effective store so large
    # arrays land spill-backed without a second heap-resident copy.
    store = BackingStore.from_config(effective)
    snap = storage_snapshot.read_snapshot(path, store=store)
    try:
        num_vertices = int(snap.meta["num_vertices"])
        if "oriented.sources" in snap.arrays:
            # The edge list hydrates in _hydrate; the session starts from
            # the bare vertex set.
            graph = Graph(num_vertices)
        else:
            graph = _snapshot_graph(num_vertices, snap.arrays)
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"snapshot {path} is missing its graph ({error!r})"
        ) from None
    except GraphError as error:
        raise StorageError(
            f"snapshot {path} carries inconsistent graph CSR parts: {error}"
        ) from None
    session = TCIMSession(graph, effective, model=model)
    # The constructor made a fresh (empty) store from the same config;
    # swap in the one the segments already hydrated into.
    session._store = store
    session._hydrate(snap.meta, snap.arrays)
    return session


def _snapshot_graph(num_vertices: int, arrays: dict) -> Graph:
    """The :class:`Graph` an earlier release's snapshot carried."""
    edges = np.asarray(arrays["graph.edges"], dtype=np.int64).reshape(-1, 2)
    indptr = arrays.get("graph.indptr")
    indices = arrays.get("graph.indices")
    if indptr is not None and indices is not None:
        return Graph.from_parts(num_vertices, edges, indptr, indices)
    # Hand-built snapshots without the CSR: rebuild it.
    return Graph(num_vertices, edges)
