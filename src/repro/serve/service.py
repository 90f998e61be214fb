"""The async serving tier: many resident sessions, one entry point.

:class:`Service` multiplexes concurrent clients over a
:class:`~repro.serve.pool.SessionPool` of resident
:class:`~repro.api.TCIMSession` objects:

* **whole-result reads** (:meth:`Service.count`, :meth:`Service.simulate`,
  :meth:`Service.slice_stats`, :meth:`Service.baseline`, and the
  workload queries :meth:`Service.support`, :meth:`Service.truss`,
  :meth:`Service.cluster`) are served from each session's resident
  caches; identical in-flight reads against the same session *coalesce*
  onto one executor job (keyed by the session's mutation generation — and
  per op + arguments — so a read never coalesces across an update or
  across different arguments);
* **probes** (:meth:`Service.common_neighbors`,
  :meth:`Service.common_neighbors_many`) *batch*: every probe that parks
  in one event-loop tick, across every session, drains as **one**
  executor job.  It takes each session's lock once, validates each
  request with :meth:`~repro.api.TCIMSession.parse_pairs`, scores all of
  that session's pairs with one
  :meth:`~repro.api.TCIMSession.pair_scores` call and slices the scores
  back into the per-request replies; a top-k probe runs its own work
  inside the same hold.  A session's share of a batch is atomic (an
  ``apply`` lands wholly before or after it).  A lone probe drains as a
  batch of one, with no timer;
* **writes** (:meth:`Service.apply`) serialise per session behind an
  ``asyncio.Lock`` — an apply stream can never interleave with another
  apply on the same graph — while applies on *different* sessions
  interleave freely;
* all CPU-bound engine work runs on a shared thread worker pool, so the
  event loop stays responsive and independent sessions' numpy kernels
  overlap.

**Bounded admission** (``max_queue``, off by default): at most that many
requests may be in flight; excess requests are either rejected with
:class:`~repro.errors.OverloadedError` (``admission="reject"``) or
parked FIFO until a slot frees (``admission="block"``).

Every piece of engine work a session performs for the service — the
residency-establishing first run, post-update re-runs (priced once per
generation), and each incremental delta re-join — accumulates into the
entry's merged :class:`EventCounts`.  :meth:`Service.report` prices that
fleet through :func:`repro.arch.pipeline.measured_fleet_report`: the
aggregate throughput, per-session critical paths, and pool occupancy of
the whole serving run.

Usage::

    from repro.serve import open_service

    async def main():
        async with open_service(max_sessions=8) as service:
            count = await service.count("dataset:com-dblp@0.05")
            await service.apply("dataset:com-dblp@0.05", [("+", 0, 1)])
            print(service.report().queries_per_second)
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from repro.api import RunReport, UpdateReport
from repro.core.accelerator import EventCounts
from repro.core.slicing import SliceStatistics
from repro.errors import GraphError, OverloadedError, ReproError
from repro.serve.pool import PoolStats, SessionEntry, SessionPool

__all__ = [
    "SessionServeStats",
    "ServiceReport",
    "Service",
    "open_service",
]


@dataclass
class _Probe:
    """One common-neighbour probe parked until the tick's drain."""

    entry: SessionEntry
    #: ``("pair", u, v)`` and ``("many", pairs)`` join the session's one
    #: ``pair_scores`` call; ``("work", fn)`` runs ``fn(entry)`` in the
    #: session's hold.
    spec: tuple
    future: asyncio.Future


@dataclass
class SessionServeStats:
    """Serving statistics of one (possibly evicted) resident session."""

    key: str
    queries: int
    by_kind: dict[str, int]
    ops_applied: int
    events: EventCounts
    resident_bytes: int
    #: Share of ``resident_bytes`` held by the compiled join plan — the
    #: memory the pool spends to make this session's repeat reads
    #: near-free (see docs/API.md, "Join plans").
    plan_bytes: int = 0
    #: Modelled critical path of this session's accumulated engine work.
    latency_s: float = 0.0
    #: ``TCIMSession.resident_bytes_detail()`` breakdown — slices, plan,
    #: sym_plan (always 0), edges, graph, workloads, spilled (disk-backed
    #: share) and total.  Empty for evicted entries (their residency is
    #: gone).
    resident_detail: dict = field(default_factory=dict)

    def to_mapping(self) -> dict:
        return {
            "key": self.key,
            "queries": self.queries,
            "by_kind": dict(self.by_kind),
            "ops_applied": self.ops_applied,
            "events": asdict(self.events),
            "resident_bytes": self.resident_bytes,
            "plan_bytes": self.plan_bytes,
            "latency_s": self.latency_s,
            "resident_detail": dict(self.resident_detail),
        }


@dataclass
class ServiceReport:
    """Aggregate outcome of a serving run, priced through ``arch/perf``.

    ``fleet`` is the measured fleet :class:`~repro.arch.perf.PerfReport`
    (critical path = slowest session, per-group leakage); it is ``None``
    until any session has performed engine work.
    """

    wall_clock_s: float
    queries: int
    queries_per_second: float
    #: Reads answered by an already in-flight identical computation.
    coalesced: int
    sessions: list[SessionServeStats] = field(default_factory=list)
    fleet: object | None = None  # arch.perf.PerfReport, imported lazily
    pool: PoolStats = field(default_factory=PoolStats)
    resident: int = 0
    max_sessions: int = 0
    resident_bytes: int = 0
    # --- probe batching / admission ----------------------------------
    #: Requests currently inside the service (admitted + parked).
    queue_depth: int = 0
    #: Requests rejected with ``OverloadedError`` (admission="reject").
    shed: int = 0
    #: Probe batches drained (each is one executor job, one launch).
    fused_batches: int = 0
    #: Probes served through a batch (every common-neighbour request).
    fused_reads: int = 0
    #: Most probes a single batch served.
    max_fused_batch: int = 0
    #: Engine-work dispatches (whole-result read jobs + applies + probe
    #: batches); what :func:`~repro.arch.perf.evaluate_fleet` amortises
    #: its per-launch cost over.
    kernel_launches: int = 0

    @property
    def occupancy(self) -> float:
        """Resident sessions over capacity (1.0 = full pool)."""
        return self.resident / self.max_sessions if self.max_sessions else 0.0

    def to_mapping(self) -> dict:
        payload = {
            "wall_clock_s": self.wall_clock_s,
            "queries": self.queries,
            "queries_per_second": self.queries_per_second,
            "coalesced": self.coalesced,
            "sessions": [stats.to_mapping() for stats in self.sessions],
            "pool": asdict(self.pool),
            "resident": self.resident,
            "max_sessions": self.max_sessions,
            "occupancy": self.occupancy,
            "resident_bytes": self.resident_bytes,
            "queue_depth": self.queue_depth,
            "shed": self.shed,
            "fused_batches": self.fused_batches,
            "fused_reads": self.fused_reads,
            "max_fused_batch": self.max_fused_batch,
            "kernel_launches": self.kernel_launches,
        }
        if self.fleet is not None:
            payload["fleet"] = {
                "latency_s": self.fleet.latency_s,
                "array_energy_j": self.fleet.array_energy_j,
                "system_energy_j": self.fleet.system_energy_j,
                "latency_breakdown_s": dict(self.fleet.latency_breakdown_s),
            }
        return payload


class Service:
    """Async front door over a pool of resident sessions.

    Construct directly or via :func:`open_service`.  ``config`` and
    ``overrides`` set the default accelerator configuration for sessions
    the service opens; per-request configs key separate pool entries.
    ``record_journal=True`` keeps each session's applied op batches in
    execution order — the hook the differential serving tests replay.

    Common-neighbour probes batch per event-loop tick (see the module
    docstring); every other read runs as its own executor job.

    The service is an async context manager; :meth:`close` answers every
    parked probe, drains the worker pool and evicts every resident
    session.
    """

    def __init__(
        self,
        pool: SessionPool | None = None,
        *,
        max_sessions: int = 8,
        max_resident_bytes: int | None = None,
        max_workers: int | None = None,
        model=None,
        config=None,
        record_journal: bool = False,
        max_queue: int | None = None,
        admission: str = "reject",
        **overrides,
    ) -> None:
        if max_queue is not None and max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ("reject", "block"):
            raise ReproError(
                f"admission must be 'reject' or 'block', got {admission!r}"
            )
        if pool is not None and (
            max_sessions != 8
            or max_resident_bytes is not None
            or config is not None
            or overrides
        ):
            # Silently dropping these would leave e.g. a "memory budget"
            # the operator believes is active but the pool never saw.
            raise ReproError(
                "pass pool configuration (max_sessions/max_resident_bytes/"
                "config/overrides) either to the SessionPool or to the "
                "Service, not both"
            )
        self._pool = pool or SessionPool(
            max_sessions,
            max_resident_bytes,
            config=config,
            model=model,
            **overrides,
        )
        self._model = model
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="tcim-serve"
        )
        self._record_journal = record_journal
        #: key -> [asyncio.Lock, active-user count]; pruned when idle.
        self._acquire_locks: dict[str, list] = {}
        self._started = time.perf_counter()
        self._queries = 0
        self._coalesced = 0
        self._closed = False
        #: Probes parked since the last drain (see :meth:`_park`).
        self._pending: list[_Probe] = []
        # --- admission control --------------------------------------
        self._max_queue = max_queue
        self._admission = admission
        self._admitted = 0
        self._admission_waiters: deque = deque()
        self._shed = 0
        # --- counters (event-loop thread only) -----------------------
        self._fused_batches = 0
        self._fused_reads = 0
        self._max_fused_batch = 0
        self._launches = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "Service":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight work, shut the worker pool, evict all sessions."""
        if self._closed:
            return
        self._closed = True
        # Submit this tick's parked probes while the worker pool still
        # takes work; the shutdown below waits for their batch.
        self._drain()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, partial(self._executor.shutdown, wait=True))
        self._pool.close()

    @property
    def pool(self) -> SessionPool:
        """The underlying session pool."""
        return self._pool

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def count(self, source, config=None, **overrides) -> int:
        """Exact triangle count (incrementally maintained across applies)."""
        return await self._read(source, config, overrides, "count", self._count_work)

    async def simulate(self, source, config=None, **overrides) -> RunReport:
        """Full priced run on the resident structures (cached per generation)."""
        return await self._read(
            source, config, overrides, "simulate", self._simulate_work
        )

    async def slice_stats(self, source, config=None, **overrides) -> SliceStatistics:
        """Table III/IV compression statistics of the resident structures."""
        return await self._read(
            source, config, overrides, "slice_stats", self._slice_stats_work
        )

    async def baseline(self, source, name: str, config=None, **overrides) -> int:
        """Triangle count via a registered software baseline."""
        return await self._read(
            source,
            config,
            overrides,
            f"baseline:{name}",
            partial(self._baseline_work, name=name),
        )

    async def support(self, source, config=None, **overrides) -> dict:
        """Per-edge triangle supports from the session's triangle list.

        Returns a JSON-able mapping with the support histogram and
        totals (the full per-edge map lives in the session; clients
        wanting individual edges use ``common_neighbors``).
        """
        return await self._read(
            source, config, overrides, "support", self._support_work
        )

    async def truss(self, source, k=None, config=None, **overrides) -> dict:
        """Truss decomposition summary (optionally the k-truss edge count).

        Coalescing is keyed per ``k``: two in-flight ``truss(k=3)``
        queries share one computation, while ``truss()`` and
        ``truss(k=3)`` run independently.
        """
        kind = "truss" if k is None else f"truss:{int(k)}"
        return await self._read(
            source, config, overrides, kind, partial(self._truss_work, k=k)
        )

    async def cluster(self, source, config=None, **overrides) -> dict:
        """Clustering metrics from the session's triangle list."""
        return await self._read(
            source, config, overrides, "cluster", self._cluster_work
        )

    async def common_neighbors(
        self, source, u: int, v=None, k=None, config=None, **overrides
    ) -> dict:
        """Common-neighbor scores from vertex ``u`` (pair score or top-k).

        A pair score joins its session's one ``pair_scores`` call in the
        tick's batch; a top-k probe runs its own work in the same hold.
        """
        if v is not None and k is not None:
            # TCIMSession.common_neighbors raises the same; checked before
            # admission so a pair probe cannot answer and drop ``k``.
            raise GraphError(
                "common_neighbors takes either a target vertex v "
                "or a top-k, not both"
            )
        if v is not None:
            spec = ("pair", u, v)
        else:
            spec = ("work", partial(self._common_neighbors_work, u=u, k=k))
        return await self._read(
            source, config, overrides, "common_neighbors", probe=spec
        )

    async def common_neighbors_many(
        self, source, pairs, config=None, **overrides
    ) -> dict:
        """Batched common-neighbor scores for many ``(u, v)`` probes.

        Every probe list against one session parked in the same tick is
        scored by one :meth:`~repro.api.TCIMSession.pair_scores` call.
        Returns ``{"pairs": n, "scores": [...]}`` with scores in probe
        order.
        """
        return await self._read(
            source,
            config,
            overrides,
            "common_neighbors_many",
            probe=("many", list(pairs)),
        )

    async def apply(
        self, source, ops, config=None, *, record: bool = False, **overrides
    ) -> UpdateReport:
        """Apply one ordered update stream to the resident session.

        Applies to the same session run strictly one at a time, in
        arrival order at the session's write lock; applies to different
        sessions interleave across the worker pool.
        """
        ops = list(ops)
        await self._admit()
        try:
            entry = await self._checkout(source, config, overrides)
            try:
                entry.count_query("apply")
                if entry.write_lock is None:
                    entry.write_lock = asyncio.Lock()
                loop = asyncio.get_running_loop()
                async with entry.write_lock:
                    self._launches += 1
                    report = await loop.run_in_executor(
                        self._executor,
                        partial(self._apply_work, entry, ops, record),
                    )
                self._queries += 1
                return report
            finally:
                self._release(entry)
        finally:
            self._discharge()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Aggregate serving report, priced through the performance model."""
        wall = time.perf_counter() - self._started
        resident_stats = [self._snapshot(entry) for entry in self._pool.entries()]
        retired_stats = [
            SessionServeStats(
                key=retired.key,
                queries=sum(retired.queries.values()),
                by_kind=dict(retired.queries),
                ops_applied=retired.ops_applied,
                events=retired.events,
                resident_bytes=0,
            )
            for retired in self._pool.retired()
        ]
        stats = resident_stats + retired_stats
        active = [s for s in stats if any(asdict(s.events).values())]
        fleet = None
        if active:
            from repro.arch.perf import default_pim_model
            from repro.arch.pipeline import measured_fleet_report

            model = self._model or default_pim_model()
            for session_stats in active:
                session_stats.latency_s = model.evaluate(
                    session_stats.events
                ).latency_s
            # The fleet figure models the *currently resident* groups
            # operating concurrently; evicted sessions' array groups no
            # longer exist, so pricing them as co-resident would inflate
            # leakage and the critical path.  They keep their individual
            # latency_s in the sessions list.
            co_resident = [
                s for s in resident_stats if any(asdict(s.events).values())
            ]
            if co_resident:
                fleet = measured_fleet_report(
                    [s.events for s in co_resident],
                    base_model=model,
                    launches=self._launches,
                )
        return ServiceReport(
            wall_clock_s=wall,
            queries=self._queries,
            queries_per_second=self._queries / wall if wall > 0 else 0.0,
            coalesced=self._coalesced,
            sessions=stats,
            fleet=fleet,
            # Copy: the report is a snapshot, not a live view that later
            # pool activity (e.g. close()'s evictions) keeps mutating.
            pool=PoolStats(**asdict(self._pool.stats)),
            resident=self._pool.resident,
            max_sessions=self._pool.max_sessions,
            resident_bytes=self._pool.resident_bytes(),
            queue_depth=self._admitted + len(self._admission_waiters),
            shed=self._shed,
            fused_batches=self._fused_batches,
            fused_reads=self._fused_reads,
            max_fused_batch=self._max_fused_batch,
            kernel_launches=self._launches,
        )

    def stats(self) -> dict:
        """Cheap live scheduler counters (the protocol's ``stats`` op).

        Unlike :meth:`report` this takes no session locks and prices
        nothing — it is safe to poll from a monitoring loop while the
        service is saturated.
        """
        return {
            "queries": self._queries,
            "coalesced": self._coalesced,
            "queue_depth": self._admitted + len(self._admission_waiters),
            "waiting": len(self._admission_waiters),
            "max_queue": self._max_queue,
            "admission": self._admission,
            "shed": self._shed,
            "pending_fusion": len(self._pending),
            "fused_batches": self._fused_batches,
            "fused_reads": self._fused_reads,
            "max_fused_batch": self._max_fused_batch,
            "kernel_launches": self._launches,
            "resident": self._pool.resident,
            # Out-of-core paging traffic (see repro.serve.pool): eviction
            # snapshots written, warm hydrations served, and the payload
            # bytes currently paged out to the spill directory.
            "snapshots_written": self._pool.stats.snapshots_written,
            "hydrations": self._pool.stats.hydrations,
            "spilled_bytes": self._pool.stats.spilled_bytes,
        }

    def journal(self, source, config=None, **overrides) -> list:
        """The recorded op batches of one session key, in execution order.

        Requires ``record_journal=True``.  A key that was evicted and
        re-acquired has history on both the retired entries and the
        resident one; the returned stream concatenates them in eviction
        order, so replaying it from the base graph reproduces the
        session's current state.  (Retired entries are retained up to a
        bound — journal replay is a testing facility, not durable
        storage.)  Raises if the key has never been served.
        """
        if not self._record_journal:
            raise ReproError("journal recording is off; open the Service "
                             "with record_journal=True")
        key = self._pool.key_for(source, config, overrides)
        batches: list = []
        seen = False
        for entry in self._pool.retired() + self._pool.entries():
            if entry.key == key:
                seen = True
                batches.extend(entry.journal)
        if not seen:
            raise ReproError(f"no session for key {key!r}")
        return batches

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    async def _checkout(self, source, config, overrides) -> SessionEntry:
        if self._closed:
            raise ReproError("service is closed")
        key = self._pool.key_for(source, config, overrides)
        # Hot path: a resident hit is one short lock hold — take it
        # inline instead of paying an executor round trip per request.
        entry = self._pool.acquire_hit(key)
        if entry is not None:
            return entry
        # Serialise acquires per key so a pool miss is built exactly once
        # even when many clients hit a cold key simultaneously.  Slots
        # are refcounted and dropped when idle, so a long-running server
        # doesn't accumulate one lock per key it has ever seen.
        slot = self._acquire_locks.get(key)
        if slot is None:
            slot = self._acquire_locks[key] = [asyncio.Lock(), 0]
        slot[1] += 1
        loop = asyncio.get_running_loop()
        try:
            async with slot[0]:
                return await loop.run_in_executor(
                    self._executor,
                    partial(self._pool.acquire, source, config, **overrides),
                )
        finally:
            slot[1] -= 1
            if slot[1] == 0 and self._acquire_locks.get(key) is slot:
                del self._acquire_locks[key]

    def _release(self, entry: SessionEntry) -> None:
        """Return the lease off the event loop.

        Release can evict (closing a session, snapshotting its graph) and
        the byte-budget check sums ``resident_bytes`` under session
        locks, so it runs on the worker pool; inline only as a fallback
        while the executor is shutting down.
        """
        try:
            self._executor.submit(self._pool.release, entry)
        except RuntimeError:
            self._pool.release(entry)

    async def _read(
        self, source, config, overrides, kind: str, work=None, probe=None
    ) -> object:
        # ``kind`` is the ``by_kind`` counter and, for a whole-result
        # read, its coalescing key.  A probe (``probe`` is its
        # ``_Probe.spec``) parks for the tick's batch instead.
        await self._admit()
        try:
            entry = await self._checkout(source, config, overrides)
            try:
                entry.count_query(kind)
                # The service-maintained generation mirror: reading the
                # real session.generation here would block the event loop
                # behind an in-flight apply's session lock.
                generation = entry.known_generation
                slot = entry.inflight.get(kind)
                if probe is not None:
                    future = self._park(entry, probe)
                elif slot is not None and slot[0] == generation and not slot[1].done():
                    # Identical read already computing against the same
                    # resident state: join it, don't queue a duplicate.
                    self._coalesced += 1
                    future = slot[1]
                else:
                    self._launches += 1
                    future = asyncio.get_running_loop().run_in_executor(
                        self._executor, partial(work, entry)
                    )
                    _publish_inflight(entry, kind, generation, future)
                result = await future
                self._queries += 1
                return result
            finally:
                self._release(entry)
        finally:
            self._discharge()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _admit(self) -> None:
        """Take an admission slot (or shed/park the request).

        Unbounded (``max_queue=None``) is a no-op.  ``"reject"`` raises
        :class:`OverloadedError` deterministically once ``max_queue``
        requests are in flight; ``"block"`` parks the caller on a FIFO
        queue and :meth:`_discharge` hands slots over in arrival order.
        """
        if self._max_queue is None:
            return
        if self._admitted < self._max_queue:
            self._admitted += 1
            return
        if self._admission == "reject":
            self._shed += 1
            raise OverloadedError(
                f"admission queue full: {self._admitted} requests in "
                f"flight (max_queue={self._max_queue}); retry later or "
                "serve with admission='block'"
            )
        waiter = asyncio.get_running_loop().create_future()
        self._admission_waiters.append(waiter)
        try:
            await waiter  # a finishing request hands its slot over
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self._discharge()  # slot arrived anyway; pass it on
            else:
                try:
                    self._admission_waiters.remove(waiter)
                except ValueError:
                    pass
            raise

    def _discharge(self) -> None:
        """Return an admission slot, waking the oldest parked request."""
        if self._max_queue is None:
            return
        while self._admission_waiters:
            waiter = self._admission_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)  # slot transferred, count unchanged
                return
        self._admitted -= 1

    # ------------------------------------------------------------------
    # Probe batching
    # ------------------------------------------------------------------
    def _park(self, entry: SessionEntry, spec: tuple) -> asyncio.Future:
        """Park one probe; the tick's first arrival schedules the drain."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self._pending:
            loop.call_soon(self._drain)
        self._pending.append(_Probe(entry, spec, future))
        self._fused_reads += 1
        return future

    def _drain(self) -> None:
        """Run every parked probe as one executor job (:meth:`_window_work`).

        A drain that finds the worker pool shut down (a cold checkout that
        finished after :meth:`close` began) fails its probes with
        :class:`ReproError` instead of leaving them parked.
        """
        window, self._pending = self._pending, []
        if not window:
            return  # close() already drained this tick
        self._fused_batches += 1
        self._launches += 1
        self._max_fused_batch = max(self._max_fused_batch, len(window))
        loop = asyncio.get_running_loop()
        try:
            job = loop.run_in_executor(
                self._executor, partial(self._window_work, window)
            )
        except RuntimeError:
            job = loop.create_future()
            job.set_exception(ReproError("service is closed"))
        job.add_done_callback(partial(_settle, window))

    def _window_work(self, window: list) -> list:
        """Worker-thread body of one probe batch.

        Serves each session's probes under one hold of its lock (see
        :func:`_session_window`).  Returns ``(ok, value-or-error)`` per
        request, aligned with ``window``.
        """
        outcomes: list = [None] * len(window)
        by_entry: dict[int, list] = {}
        for index, request in enumerate(window):
            by_entry.setdefault(id(request.entry), []).append(index)
        for members in by_entry.values():
            entry = window[members[0]].entry
            try:
                self._price_run(entry, warm=True)
                _session_window(entry, window, members, outcomes)
            except Exception as error:
                for index in members:
                    if outcomes[index] is None:
                        outcomes[index] = (False, error)
        return outcomes

    def _price_run(self, entry: SessionEntry, warm: bool = False) -> None:
        """Merge the current generation's full-run events, at most once.

        ``warm=True`` prices only the entry's first run, the one that
        establishes residency (the Fig. 4 'load the sliced graph into the
        array' step), and is a no-op once the entry is warmed.
        """
        if warm and entry.warmed:
            return
        session = entry.session
        # Merging under the session lock prices generations in order.
        with session.lock:
            result = session.run()
            generation = session.generation
            with entry.stats_lock:
                entry.known_generation = max(entry.known_generation, generation)
                if generation != entry.priced_generation:
                    entry.events = entry.events.merge(result.events)
                    entry.priced_generation = generation
                entry.warmed = True

    def _count_work(self, entry: SessionEntry) -> int:
        self._price_run(entry, warm=True)
        return entry.session.count()

    def _simulate_work(self, entry: SessionEntry) -> RunReport:
        report = entry.session.simulate()
        self._price_run(entry)
        return report

    def _slice_stats_work(self, entry: SessionEntry) -> SliceStatistics:
        self._price_run(entry, warm=True)
        return entry.session.slice_stats()

    def _baseline_work(self, entry: SessionEntry, name: str) -> int:
        self._price_run(entry, warm=True)
        return entry.session.baseline(name)

    def _support_work(self, entry: SessionEntry) -> dict:
        self._price_run(entry, warm=True)
        support = entry.session.support()
        histogram = support.histogram()
        return {
            "num_edges": len(support),
            "total_support": sum(value * n for value, n in histogram.items()),
            "max_support": max(histogram, default=0),
            "histogram": {str(value): n for value, n in histogram.items()},
        }

    def _truss_work(self, entry: SessionEntry, k) -> dict:
        self._price_run(entry, warm=True)
        session = entry.session
        trussness = session.truss()
        histogram = trussness.histogram()
        payload = {
            "num_edges": len(trussness),
            "max_trussness": max(histogram, default=0),
            "histogram": {str(value): n for value, n in histogram.items()},
        }
        if k is not None:
            payload["k"] = int(k)
            payload["k_truss_edges"] = session.truss(int(k)).num_edges
        return payload

    def _cluster_work(self, entry: SessionEntry) -> dict:
        self._price_run(entry, warm=True)
        return entry.session.clustering().to_mapping()

    def _common_neighbors_work(self, entry: SessionEntry, u, k) -> dict:
        """A top-k probe, run inside its session's hold of a batch."""
        candidates = entry.session.common_neighbors(
            int(u), k=None if k is None else int(k)
        )
        payload = {
            "u": int(u),
            "candidates": [[int(vertex), int(score)] for vertex, score in candidates],
        }
        if k is not None:
            payload["k"] = int(k)
        return payload

    def _apply_work(self, entry: SessionEntry, ops, record: bool) -> UpdateReport:
        self._price_run(entry, warm=True)
        session = entry.session
        try:
            report = session.apply(ops, record=record)
        except Exception as error:
            # A mid-stream failure still committed every earlier segment
            # (the failing one rolled back): fold the partial accounting
            # the session attaches into this entry so the priced events
            # and the journal keep matching the session's real state.
            partial = getattr(error, "partial_update", None)
            applied = getattr(error, "applied_operations", None)
            generation = session.generation
            with entry.stats_lock:
                entry.known_generation = max(entry.known_generation, generation)
                if partial is not None:
                    entry.events = entry.events.merge(partial.events)
                    entry.ops_applied += partial.inserted + partial.deleted
                if self._record_journal and applied:
                    entry.journal.append(list(applied))
            raise
        generation = session.generation
        with entry.stats_lock:
            entry.known_generation = max(entry.known_generation, generation)
            entry.events = entry.events.merge(report.events)
            # Effective ops (edges actually changed), matching the unit
            # the partial-failure path can account in.
            entry.ops_applied += report.inserted + report.deleted
            if self._record_journal:
                entry.journal.append(list(ops))
        return report

    def _snapshot(self, entry: SessionEntry) -> SessionServeStats:
        # Size the session before taking stats_lock: the event loop takes
        # that lock per request, and must not wait behind a session lock.
        session = entry.session
        with session.lock:
            detail = session.resident_bytes_detail()
            plan_bytes = session.plan_resident_bytes()
        with entry.stats_lock:
            return SessionServeStats(
                key=entry.key,
                queries=entry.total_queries,
                by_kind=dict(entry.queries),
                ops_applied=entry.ops_applied,
                events=entry.events,
                resident_bytes=detail["total"],
                plan_bytes=plan_bytes,
                resident_detail=detail,
            )


def _session_window(entry: SessionEntry, window, members, outcomes) -> None:
    """One session's share of a probe batch, atomic under its lock.

    Validates each probe with ``parse_pairs`` (a malformed request fails
    alone), scores every pair with one ``pair_scores`` call and slices
    the scores into the replies; a ``("work", fn)`` request runs
    ``fn(entry)`` inside the hold.
    """
    session = entry.session
    scored: list = []  # (index, lo, hi, spec)
    sources: list = []
    destinations: list = []
    total = 0
    with session.lock:
        for index in members:
            request = window[index]
            spec = request.spec
            try:
                if spec[0] == "work":
                    outcomes[index] = (True, spec[1](entry))
                    continue
                us, vs = session.parse_pairs(
                    [spec[1:]] if spec[0] == "pair" else spec[1]
                )
            except Exception as error:
                outcomes[index] = (False, error)
                continue
            scored.append((index, total, total + us.size, spec))
            sources.append(us)
            destinations.append(vs)
            total += us.size
        if not scored:
            return
        scores = session.pair_scores(
            np.concatenate(sources), np.concatenate(destinations)
        )
    for index, lo, hi, spec in scored:
        if spec[0] == "pair":
            reply = {"u": int(spec[1]), "v": int(spec[2]), "score": int(scores[lo])}
        else:
            reply = {"pairs": hi - lo, "scores": scores[lo:hi].tolist()}
        outcomes[index] = (True, reply)


def _settle(window: list, job) -> None:
    """Resolve a drained batch's parked futures from its job's outcomes."""
    try:
        outcomes = job.result()
    except Exception as error:
        outcomes = [(False, error)] * len(window)
    for request, (ok, value) in zip(window, outcomes):
        if request.future.done():
            continue  # the caller was cancelled
        if ok:
            request.future.set_result(value)
        else:
            request.future.set_exception(value)


def _publish_inflight(entry: SessionEntry, kind: str, generation: int, future) -> None:
    """Expose ``future`` as ``kind``'s in-flight read until it settles.

    The settled slot is removed so the map holds only reads still
    computing — but only while it is still this read's slot: a newer read
    of the same kind may have replaced it meanwhile.
    """
    slot = (generation, future)
    entry.inflight[kind] = slot

    def settle(_future) -> None:
        if entry.inflight.get(kind) is slot:
            del entry.inflight[kind]

    future.add_done_callback(settle)


def open_service(
    pool: SessionPool | None = None,
    *,
    max_sessions: int = 8,
    max_resident_bytes: int | None = None,
    max_workers: int | None = None,
    model=None,
    config=None,
    record_journal: bool = False,
    max_queue: int | None = None,
    admission: str = "reject",
    **overrides,
) -> Service:
    """Open a :class:`Service` (the serving counterpart of ``open_session``).

    Returns the service directly; use ``async with`` for scoped cleanup::

        async with open_service(max_sessions=16, num_arrays=4) as service:
            print(await service.count("dataset:com-dblp@0.05"))
    """
    return Service(
        pool,
        max_sessions=max_sessions,
        max_resident_bytes=max_resident_bytes,
        max_workers=max_workers,
        model=model,
        config=config,
        record_journal=record_journal,
        max_queue=max_queue,
        admission=admission,
        **overrides,
    )
