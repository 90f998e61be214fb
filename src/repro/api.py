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

The session keeps the counts, the query-result caches and the mutation
pipeline.  The edge set and everything derived from it live in one
:class:`~repro.core.residency.Residency`, which folds every committed
batch in and follows one lifecycle rule: an ``apply()`` call keeps the
count plan, the event totals and their windows, the edge list and the
workload cache only if a reader used them since the previous
``apply()`` call, patches what it keeps, and drops the rest for a lazy
rebuild.  A priced read of a maintained count on one array prices from
the event totals, so after a small apply it costs what the apply
changed.

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
from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
    split_capacity,
)
from repro.core.dynamic import parse_op, parse_vertex
from repro.core.residency import Residency
from repro.core.reuse import CacheStatistics
from repro.core.slicing import SliceStatistics, slice_statistics
from repro.errors import GraphError, ReproError, StorageError
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


#: Config keys of earlier releases that older snapshots still carry.
#: They are dropped on open; of them only ``orientation`` shaped the
#: persisted arrays, and ``Residency.adopt`` reads it from the manifest
#: before that.
_RETIRED_CONFIG_KEYS = ("engine", "workers", "backing", "orientation", "use_plan")


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
            payload["balance"] = self.result.balance
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
        self._num_edges = graph.num_edges
        # The edge set and everything derived from it, built lazily and
        # kept across queries (repro.core.residency).  config.storage_dir
        # selects a memmap store that spills slice payloads and plan
        # arrays to disk; the default ram store keeps them on the heap.
        self._residency = Residency(
            graph, self.config.slice_bits, BackingStore.from_config(self.config)
        )
        # Cached query results, cleared by every new generation.
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
            self._new_generation()
            self._residency.close()

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
            return self._residency.as_graph()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is currently present
        (vertices are checked as :meth:`parse_pairs` checks them)."""
        with self._lock:
            if type(u) is not int or type(v) is not int:
                u, v = (parse_vertex(end, "has_edge") for end in (u, v))
            n = self._num_vertices
            if u == v or not (0 <= u < n and 0 <= v < n):
                return False
            return self._residency.has_edge(u, v)

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
        for in-place inserts included, its windows' offsets and the
        per-column event totals),
        ``plan`` (the compiled count plan with its diagonal list),
        ``sym_plan`` (always 0: the workloads read the count plan; the
        key stays for readers of earlier releases), ``edges`` (the
        session's one edge list, unless the graph already holds it — a
        fresh session's are views of its edge list or CSR; the
        ``support()`` / ``truss()`` maps share it — and its sorted keys
        once a fold has spliced them), ``workloads`` (the
        current generation's triangle list, supports, trussness and
        clustering arrays; 0 until a workload reads them, and after a
        mutation only what an apply that followed a read patched),
        ``spilled`` (how much of the
        above is disk-backed rather than on heap — 0 for a ram store),
        and ``total`` (== :meth:`resident_bytes`).  Surfaced per session
        by the serving tier's ``stats`` protocol op.
        """
        with self._lock:
            return self._residency.resident_bytes()

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
        batch raised, so the cache was dropped; ``full_sweep`` — a
        :meth:`simulate` / :meth:`run` of a maintained count could not
        be priced from the event totals (the session has several arrays,
        or its column trace would evict), so it flushed the plan and
        swept it.  Every dropped cache is rebuilt by the next query that
        needs it.  (An ``apply()`` that drops what no reader used is the
        rule, not a fallback, and is not counted; moving the event
        totals raising counts as ``flush_patch_error``.)  Takes no lock.
        """
        return MappingProxyType(self._residency.fallbacks)

    @property
    def join_plan(self):
        """The resident :class:`~repro.core.plan.JoinPlan` (or ``None``).

        Compiled lazily by the first engine-executing query, then
        patched rather than rebuilt across applies that plan reads
        separate (an apply after a call whose batches no read folded
        drops it, see :meth:`apply`).  A :meth:`simulate` priced from
        the event totals folds nothing, so after a loop of applies and
        such reads this is ``None`` until a plan reader compiles it.
        Reading the property folds the pending batches in first, so a
        returned plan always reflects the current graph.  Plans are
        immutable objects — the reference returned here stays internally
        consistent even if a later update swaps the session to a patched
        successor.
        """
        with self._lock:
            self._residency.flush()
            return self._residency.plan

    def plan_resident_bytes(self) -> int:
        """Footprint of the compiled join plan (0 when none is resident).

        The count plan is the session's only resident plan: counts,
        simulations and the workloads' triangle list all read it.
        """
        with self._lock:
            plan = self._residency.plan
            return plan.nbytes if plan is not None else 0

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
            if ensure:
                self._residency.count_inputs()
            else:
                self._residency.flush()
            arrays, structures, plans = self._residency.snapshot_tables()
            meta = {
                "config": self.config.to_mapping(),
                "generation": self._generation,
                "triangles": self._triangles,
                "num_vertices": self._num_vertices,
                "num_edges": self._num_edges,
                "structures": structures,
                "plans": plans,
            }
            return storage_snapshot.write_snapshot(path, meta, arrays)

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

        Once the count is maintained (after an :meth:`apply`, or from a
        snapshot that recorded it), a single-array session prices the
        run from its event totals instead of sweeping the count plan:
        the plan's pairs, the upper window's row loads and, while the
        column trace cannot evict, its distinct column-slice keys, kept
        per column and moved by every apply — every field equal to the
        sweep's.  The first such read after an apply builds the totals
        from the current plan; later reads flush no plan and run no
        gather, AND or popcount.  Several arrays, or a trace that would
        evict, sweep as before (``full_sweep`` in
        :attr:`fallback_counts`).
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
        """The raw functional run result (``simulate()`` without pricing,
        from the event totals where ``simulate()`` would be)."""
        with self._lock:
            return self._full_run()

    def slice_stats(self) -> SliceStatistics:
        """Table III/IV compression statistics of the resident structures."""
        with self._lock:
            if self._slice_stats is None:
                row_sliced, col_sliced = self._residency.priced_windows()
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
        edge ids of the generation's triangle list (one
        :func:`~repro.core.kernels.triangle_witnesses` pass over the
        count run's inputs; after an :meth:`apply` that followed a read,
        the list that apply patched), value-identical to
        :func:`repro.analysis.truss.edge_support`.

        Returns a read-only :class:`~repro.graph.edgemap.EdgeMap` over
        the session's edge list (``.sources`` and ``.destinations`` are
        its arrays, not a copy, and the supports are ``.per_edge``), one
        per generation: every call until
        the graph changes returns the same map, and a later ``apply()``
        leaves an earlier map as it was.  ``dict(m)`` is a mutable copy.
        """
        with self._lock:
            return self._residency.support_map(self.count)

    def truss(self, k: int | None = None):
        """Truss decomposition from witness enumeration plus a frontier peel.

        ``truss()`` returns the trussness of every edge as a read-only
        :class:`~repro.graph.edgemap.EdgeMap` (``{(u, v): trussness}``,
        the same per-generation snapshot rules as :meth:`support`);
        ``truss(k)`` returns the k-truss subgraph (the edges of trussness
        ``>= k``) as a :class:`Graph`.  Both read one per-edge trussness
        array, computed once per generation:
        :func:`repro.analysis.truss.peel_trussness` peels the
        generation's triangle list (see :meth:`support`) from the
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
        with self._lock:
            if k is not None and k < 2:
                raise GraphError(f"k must be >= 2, got {k}")
            trussness = self._residency.truss_map(self.count)
            if k is None:
                return trussness
            keep = trussness.per_edge >= k
            return Graph(
                self._num_vertices,
                np.stack(
                    [trussness.sources[keep], trussness.destinations[keep]], axis=1
                ),
            )

    def clustering(self) -> ClusteringReport:
        """Clustering metrics from the generation's triangle list.

        Local coefficients, per-vertex triangle counts, their average,
        the global transitivity, and the triangle total.  The per-vertex
        counts and the degrees are tallied off the triangles
        :meth:`support` also reads (and patched by an :meth:`apply` that
        followed a read), and the total is the list's length.
        Value-identical to the :mod:`repro.analysis.metrics` oracles.
        One report per generation, handed out as is: its arrays are
        non-writeable.
        """
        with self._lock:
            return self._residency.clustering(self.count, _clustering_report)

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
        symmetric structure.  Vertices are checked as
        :meth:`parse_pairs` checks them.
        """
        with self._lock:
            if v is not None:
                if k is not None:
                    raise GraphError(
                        "common_neighbors takes either a target vertex v "
                        "or a top-k, not both"
                    )
                return int(self._pair_scores(*self.parse_pairs([(u, v)]))[0])
            self._check_query_vertex(parse_vertex(u, "common_neighbors"))
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
        1-D integer vertex arrays in, the int64 scores ``|N(u) ∩ N(v)|``
        out, in one :func:`~repro.core.kernels.execute_workload` pass.
        Raises :class:`~repro.errors.GraphError` on arrays of other
        shapes or of a non-integer dtype (an empty probe list is fine),
        and on an out-of-range vertex (the first one in probe order, as
        :meth:`parse_pairs` reports it).  The serving tier's probe batch
        scores all of a session's probes with one call.
        """
        try:
            sources, destinations = np.asarray(sources), np.asarray(destinations)
        except (TypeError, ValueError) as error:
            raise GraphError(f"pair_scores takes vertex arrays: {error}") from None
        if (
            sources.ndim != 1
            or sources.shape != destinations.shape
            or sources.size and {sources.dtype.kind, destinations.dtype.kind} - set("iu")
        ):
            raise GraphError(
                "pair_scores takes two 1-D integer vertex arrays of one length, "
                f"got shapes {sources.shape} and {destinations.shape}, dtypes "
                f"{sources.dtype} and {destinations.dtype}"
            )
        sources = sources.astype(np.int64, copy=False)
        destinations = destinations.astype(np.int64, copy=False)
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
        malformed input with exactly the same errors.  A vertex must be
        a Python or numpy integer (not a bool) in range.
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
            if type(u) is not int or type(v) is not int:
                u, v = (parse_vertex(end, f"pair {index}") for end in (u, v))
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
        symmetric structure (the residency's lifecycle rule,
        :meth:`Residency.start_call
        <repro.core.residency.Residency.start_call>`), so a pure update
        stream holds none after its second call.  Each batch splices a
        kept edge list and its keys once, patches a kept workload cache
        through that splice (the triangle list, tallies and trussness),
        moves kept event totals (the priced reads' state: only the
        columns the batch can change re-join) and queues for one lazy
        patch of a kept plan.  The patches are host bookkeeping:
        :attr:`UpdateReport.events` prices the delta joins only.

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
            self._residency.start_call()
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
        parsed: list[tuple[str, int, int]] = []
        for index, op in enumerate(ops):
            action, u, v = parse_op(op, index)
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
        # rolled back completely (see _commit_batch) while batches
        # already applied stay applied — the session is always
        # consistent, and re-submitting the stream is safe because
        # already-applied operations filter out as no-ops.
        # The delta path needs a base count to update; bootstrap with one
        # full run on the resident structures if none exists yet.
        report = UpdateReport(
            requested=requested,
            inserted=0,
            deleted=0,
            delta_triangles=0,
            triangles=self.count(),
            segments=0,
            per_op_deltas=[] if record else None,
        )
        for index, (code, batch) in enumerate(batches):
            try:
                delta = self._commit_batch(
                    code == "+",
                    incremental.canonical_delta_edges(batch, self._num_vertices),
                    report,
                )
            except Exception as error:
                # The failing batch rolled back; batches before it are
                # committed.  Attach what DID happen so callers that
                # account for engine work (the serving tier's pricing and
                # op journal) stay in sync with the session's real state.
                error.partial_update = report
                error.applied_operations = [
                    (earlier_code, u, v)
                    for earlier_code, earlier_batch in batches[:index]
                    for u, v in earlier_batch
                ]
                raise
            if record:
                report.per_op_deltas.append(delta)
        return report

    def _commit_batch(
        self, insert: bool, canonical: np.ndarray, report: UpdateReport
    ) -> int:
        """Commit one canonical batch, account it in ``report`` and return
        its signed triangle delta.

        The delta join runs while the structure lacks the batch's edges:
        before an insert sets their bits, after a delete clears them.  If
        either step raises, the rollback puts every delta bit back (a
        clear never allocates, and a re-set fits the room the clear
        freed), so every slice is back at its position and the structure
        version with it.  Only a committed batch folds into the residency.
        """
        sym = self._residency.structure()
        present = incremental.test_bits(sym, canonical[:, 0], canonical[:, 1])
        delta_edges = canonical[present != insert]
        if not delta_edges.size:
            return 0
        rows, cols = _both_directions(delta_edges)
        store = self._residency.store
        version = sym.structure_version
        try:
            if insert:
                outcome = incremental.symmetric_delta(
                    self._num_vertices, sym, delta_edges, self.config
                )
                splice = incremental.set_bits(sym, rows, cols, store=store)
            else:
                splice = incremental.clear_bits(sym, rows, cols)
                outcome = incremental.symmetric_delta(
                    self._num_vertices, sym, delta_edges, self.config
                )
        except Exception:
            if insert:
                incremental.clear_bits(sym, rows, cols)
            else:
                incremental.set_bits(sym, rows, cols, store=store)
            sym.structure_version = version
            raise
        changed = len(delta_edges)
        delta = outcome.triangles if insert else -outcome.triangles
        self._num_edges += changed if insert else -changed
        self._triangles += delta
        self._new_generation()
        self._residency.fold(delta_edges, insert, splice, self._triangles)
        if insert:
            report.inserted += changed
        else:
            report.deleted += changed
        report.segments += 1
        report.delta_triangles += delta
        report.triangles = self._triangles
        report.events = report.events.merge(outcome.events)
        report.cache_stats = report.cache_stats.merge(outcome.cache_stats)
        return delta

    def _new_generation(self) -> None:
        """Bump the generation and clear the query-result caches (they
        priced the previous graph).  Callers hold ``self._lock``."""
        self._generation += 1
        self._slice_stats = None
        self._run = None
        self._report = None
        self._baseline_cache.clear()

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
        sym = self._residency.structure()
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
        to it, ascending, decoded from the symmetric structure's rows of
        ``u`` and its neighbours (so no apply makes this rebuild the
        graph).  Each call scores them afresh: nothing is cached per
        probed vertex, so probing every vertex holds no memory outside
        :meth:`resident_bytes`.
        """
        sym = self._residency.structure()
        neighbors = sym.row_columns(np.array([u], dtype=np.int64))
        two_hop = np.unique(sym.row_columns(neighbors))
        keep = (two_hop != u) & ~np.isin(two_hop, neighbors)
        candidates = two_hop[keep].astype(np.int64, copy=False)
        scores = self._pair_scores(
            np.full(candidates.size, u, dtype=np.int64), candidates
        )
        return list(zip(candidates.tolist(), scores.tolist()))

    def _check_query_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )

    def _full_run(self) -> TCIMRunResult:
        if self._run is None:
            run = self._totals_run() if self._triangles is not None else None
            if run is None:
                (row_sliced, col_sliced), edges, join_plan = (
                    self._residency.count_inputs()
                )
                run = self._accelerator.run(
                    None,
                    num_vertices=self._num_vertices,
                    row_sliced=row_sliced,
                    col_sliced=col_sliced,
                    edge_arrays=edges,
                    join_plan=join_plan,
                )
            self._run = run
            self._triangles = run.triangles
            self._slice_stats = run.slice_stats
        return self._run

    def _totals_run(self) -> TCIMRunResult | None:
        """The single-array run of the maintained count, priced from the
        residency's event totals, or ``None`` (counted as ``full_sweep``)
        when they cannot price it: the session has several arrays, or its
        column trace would evict.

        Equal, field by field, to the planned run
        (:func:`~repro.core.sharding.price_partition`) of the same graph:
        the capacity split over the upper window's row loads (so the same
        errors raise), one AND and bit count per plan pair, and, while
        the distinct column keys fit the column cache, one write per
        distinct key and a hit for every other access — the eviction-free
        branch of :func:`~repro.core.reuse.simulate_key_trace`.
        """
        config = self.config
        residency = self._residency
        if config.num_arrays == 1:
            totals = residency.event_totals()
            upper, lower = residency.windows
            row_loads = upper.row_valid_counts()
            row_region, column_cache = split_capacity(config.capacity_slices, row_loads)
            pairs, distinct = totals.num_pairs, totals.num_distinct
            if distinct <= column_cache:
                cache_stats = CacheStatistics(hits=pairs - distinct, misses=distinct)
                return TCIMRunResult(
                    triangles=self._triangles,
                    events=kernels._array_events(
                        self._num_edges, upper.slices_per_row, int(row_loads.sum()),
                        pairs, cache_stats,
                    ),
                    cache_stats=cache_stats,
                    slice_stats=slice_statistics(
                        None, slice_bits=config.slice_bits,
                        row_sliced=upper, col_sliced=lower,
                    ),
                    config=config,
                    row_region_slices=row_region,
                    column_cache_slices=column_cache,
                )
        residency.fallbacks["full_sweep"] += 1
        return None


def _both_directions(delta_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` covering both directions of canonical edges."""
    u, v = delta_edges[:, 0], delta_edges[:, 1]
    return np.concatenate([u, v]), np.concatenate([v, u])


def _clustering_report(
    tallies: np.ndarray, degrees: np.ndarray, triangles: int
) -> ClusteringReport:
    """The :class:`ClusteringReport` of a generation's vertex tallies,
    degrees and triangle total."""
    from repro.analysis import metrics

    local = metrics.local_clustering(triangles=tallies, degrees=degrees)
    local.flags.writeable = False
    return ClusteringReport(
        local=local,
        triangles_per_vertex=tallies,
        average=float(local.mean()) if local.size else 0.0,
        transitivity=metrics.transitivity(num_triangles=triangles, degrees=degrees),
        wedges=metrics.wedge_count(degrees=degrees),
        triangles=triangles,
    )


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
            # The residency adopts the edge list; the session starts
            # from the bare vertex set.
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
    # The fresh, unshared session keeps the generation and the maintained
    # total; its residency adopts the rest and the store the segments
    # already hydrated into (the constructor's own is empty).
    session = TCIMSession(graph, effective, model=model)
    session._generation = int(snap.meta.get("generation", 0))
    triangles = snap.meta.get("triangles")
    session._triangles = int(triangles) if triangles is not None else None
    session._num_edges = session._residency.adopt(snap.meta, snap.arrays, store)
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
