"""The benchmark's three workloads, driven through the public API only.

Each workload makes its inputs from the seed, sets the system up several
times (keeping the last set-up), runs its load for the measured window,
and then checks the answers it kept against an oracle off the clock.  It
returns an :class:`Outcome`; ``run.py`` turns that into the printed
metrics.

* ``stream`` - one client applies a random op stream (half inserts, half
  deletes) in fixed-size ``apply()`` calls and reads nothing: the apply
  path, delta joins and structure splices, no sweeps.
* ``analytics`` - read after write: each round applies one small batch,
  then runs ``simulate()``, ``support()``, ``clustering()`` and
  ``truss()``, so every read does real work after the cache drop.
* ``serve`` - clients on one JSON-lines connection into an in-process
  ``Service``: protocol, queueing and small kernels.

All three use the default configs (one array, no fusion window, no
replicas, RAM backing), which is what ``open_session(g)`` and
``tcim serve`` run.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from measure import (
    Window,
    closed_loop,
    freeze_inputs,
    latency_summary,
    nproc,
    peak_rss_mb,
    repeat_setup,
)

#: Modelled PIM figures are never mixed with host time; their units say
#: so on every line they are printed.
PIM_MS = "ms-modelled"
PIM_UJ = "uJ-modelled"


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    #: A :class:`spans.Tracer` with its wrappers installed, or ``None``.
    tracer: object = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def rng(self) -> np.random.Generator:
        """The run's input generator (any integer seed, negative too)."""
        return np.random.default_rng(self.seed % 2**64)

    @property
    def lead_in_seconds(self) -> float:
        """Untraced lead-in of a traced run: the base of the overhead."""
        return self.seconds / 3.0


@dataclass
class Outcome:
    #: Gated end-to-end metrics: name -> (value, unit).
    metrics: dict
    #: Per-layer and wall-time values the workload measured itself.
    layers: dict
    attempted: int
    failed: int
    #: Oracle disagreements: any entry fails the run.
    mismatches: list = field(default_factory=list)
    #: Calls that raised or were refused (counted in ``failed``).
    errors: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: ``perf_counter_ns`` bounds of the measuring window.
    window: tuple = (0, 0)


class EdgeSampler:
    """Seeded source of edge ops that are never no-ops.

    Tracks the client's view of the edge set: an insert draws a random
    absent pair, a delete a random present edge.
    """

    def __init__(self, graph, rng: np.random.Generator) -> None:
        self.num_vertices = graph.num_vertices
        self.rng = rng
        self.edges = [tuple(edge) for edge in graph.edge_array().tolist()]
        self.position = {edge: index for index, edge in enumerate(self.edges)}

    def insert(self) -> tuple[int, int]:
        while True:
            u, v = self.rng.integers(self.num_vertices, size=2).tolist()
            edge = (min(u, v), max(u, v))
            if u != v and edge not in self.position:
                self.position[edge] = len(self.edges)
                self.edges.append(edge)
                return edge

    def delete(self, edge: tuple[int, int] | None = None) -> tuple[int, int]:
        if edge is None:
            edge = self.edges[int(self.rng.integers(len(self.edges)))]
        index = self.position.pop(edge)
        last = self.edges.pop()
        if index < len(self.edges):
            self.edges[index] = last
            self.position[last] = index
        return edge

    def op(self) -> tuple[str, int, int]:
        if self.rng.random() < 0.5:
            return ("+", *self.insert())
        return ("-", *self.delete())


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def pim_figures(latency_s, energy_j, events: dict) -> tuple[dict, dict]:
    """Modelled end-to-end and per-layer figures of priced runs.

    ``events`` holds summed :class:`~repro.core.accelerator.EventCounts`
    fields; the two percentages are the paper's headline claims.
    """
    accesses = events["col_slice_hits"] + events["col_slice_writes"]
    dense = events["dense_pair_operations"]
    metrics = {
        "pim_latency_ms": (1e3 * latency_s, PIM_MS),
        "pim_energy_uj": (1e6 * energy_j, PIM_UJ),
    }
    layers = {
        "pim.and_ops": (events["and_operations"], "count"),
        "pim.slice_writes": (
            events["row_slice_writes"] + events["col_slice_writes"], "count"
        ),
        "pim.computation_reduction_pct": (
            100.0 * (1.0 - events["and_operations"] / dense) if dense else 0.0, "%"
        ),
        "pim.write_savings_pct": (
            100.0 * events["col_slice_hits"] / accesses if accesses else 0.0, "%"
        ),
    }
    return metrics, layers


def report_pim(report) -> tuple[dict, dict]:
    """:func:`pim_figures` of one session ``RunReport``."""
    return pim_figures(
        report.perf.latency_s, report.perf.system_energy_j, asdict(report.events)
    )


def resident_figures(details: list[dict]) -> dict:
    """``resident_bytes_detail()`` of the given sessions, summed, in MB."""
    return {
        "api.resident_mb": (sum(d["total"] for d in details) / 1e6, "MB"),
        "api.resident_plan_mb": (sum(d["plan"] for d in details) / 1e6, "MB"),
        "api.resident_sym_plan_mb": (
            sum(d["sym_plan"] for d in details) / 1e6, "MB"
        ),
    }


def gated(setup_cpu_s, window: Window, requests, rss_mb, pim) -> dict:
    """The end-to-end metrics every workload reports, on CPU time."""
    return {
        "setup_s": (setup_cpu_s, "s"),
        "request_cpu_ms": (1e3 * window.cpu_s / max(requests, 1), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        **pim,
    }


def wall_figures(window: Window, requests, applied, replies: dict, applies: dict) -> dict:
    """What a user waits, in wall time; ungated because steal moves it."""
    return {
        "wall.served_per_s": (requests / window.wall_s, "1/s"),
        "wall.reply_p50_ms": (replies["p50_ms"], "ms"),
        "wall.reply_tail_ms": (replies["tail_ms"], "ms"),
        "wall.apply_ops_per_s": (applied / window.wall_s, "ops/s"),
        "wall.apply_p50_ms": (applies["p50_ms"], "ms"),
        "wall.apply_tail_ms": (applies["tail_ms"], "ms"),
        "wall.cpu_share": (window.cpu_s / window.wall_s, "CPUs"),
    }


def tails_meta(replies: dict, applies: dict) -> dict:
    return {
        name: {"percentile": summary["tail_pct"], "samples": summary["samples"]}
        for name, summary in (
            ("wall.reply_tail_ms", replies),
            ("wall.apply_tail_ms", applies),
        )
    }


def overhead_pct(lead: Window | None, window: Window) -> float:
    """CPU per request of the traced window against the untraced lead-in."""
    if lead is None or not lead.results or not window.results or not lead.cpu_s:
        return 0.0
    traced = window.cpu_s / len(window.results)
    return 100.0 * (traced / (lead.cpu_s / len(lead.results)) - 1.0)


def measured(ctx: Context, step) -> tuple[Window | None, Window]:
    """The closed-loop window; a traced run leads in untraced first."""
    lead = None
    if ctx.traced:
        lead = closed_loop(step, ctx.lead_in_seconds)
        ctx.tracer.enabled = True
    try:
        window = closed_loop(step, ctx.seconds)
    finally:
        if ctx.traced:
            ctx.tracer.enabled = False
    return lead, window


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
#: 20k vertices and 159,936 edges: the graph BENCH_engine.json streams on.
STREAM_VERTICES = 20_000
STREAM_ATTACH = 8
STREAM_BATCH = 50


def stream(ctx: Context) -> Outcome:
    from repro import DynamicTriangleCounter, open_session
    from repro.graph import generators
    from repro.graph.io import write_edge_list

    rng = ctx.rng()
    graph = generators.barabasi_albert(
        STREAM_VERTICES, STREAM_ATTACH, seed=_seed_from(rng)
    )
    path = ctx.workdir / "stream.edges"
    write_edge_list(graph, path)
    sampler = EdgeSampler(graph, rng)
    freeze_inputs()

    def build():
        # Edge list to first answer, warming what the apply path builds
        # lazily: the edge set and the symmetric structure.  The first
        # answer is a priced run, so the modelled figures describe the
        # loaded graph, which repeats exactly for a seed.
        session = open_session(str(path))
        report = session.simulate()
        session.has_edge(0, 1)
        session.common_neighbors(0, 1)
        return (session, report), session.close

    (session, first), setup_cpu_s, setup_runs = repeat_setup(build, 3, ctx.tracer)

    submitted: list[list] = []
    failures: list[str] = []

    def step():
        ops = [sampler.op() for _ in range(STREAM_BATCH)]
        submitted.append(ops)
        start = time.perf_counter()
        try:
            report = session.apply(ops)
        except Exception as error:  # a failed op is counted, not fatal
            failures.append(f"apply: {type(error).__name__}: {error}")
            submitted[-1] = list(getattr(error, "applied_operations", []))
            return None
        return time.perf_counter() - start, report

    lead, window = measured(ctx, step)
    rss_mb = peak_rss_mb()
    detail = session.resident_bytes_detail()
    done = [result for result in window.results if result is not None]
    applied = sum(report.inserted + report.deleted for _, report in done)
    requested = sum(report.requested for _, report in done)

    # Oracle: replay the submitted ops call by call on the pure-Python
    # counter; every call's maintained count must match it.  No final
    # full run: it would fold every deferred patch in at once, which
    # costs more than the whole window.
    mismatches = []
    oracle = DynamicTriangleCounter(graph.num_vertices, graph)
    calls = (lead.results if lead else []) + window.results
    for index, (ops, result) in enumerate(zip(submitted, calls)):
        oracle.apply_ops(ops)
        if result is not None and result[1].triangles != oracle.triangles:
            mismatches.append(
                f"apply call {index}: count {result[1].triangles}, "
                f"oracle {oracle.triangles}"
            )
    final = (session.count(), session.num_edges)
    if final != (oracle.triangles, oracle.num_edges):
        mismatches.append(
            f"final (count, edges) {final}, oracle "
            f"{(oracle.triangles, oracle.num_edges)}"
        )
    session.close()

    latency = latency_summary([elapsed for elapsed, _ in done])
    pim_metrics, pim_layers = report_pim(first)
    layers = {
        **wall_figures(window, len(done), applied, latency, latency),
        "incremental.segments_per_call": (
            statistics.fmean(report.segments for _, report in done) if done else 0.0,
            "count",
        ),
        "api.applied_frac": (applied / requested if requested else 0.0, "fraction"),
        "trace.overhead_pct": (overhead_pct(lead, window), "%"),
        **pim_layers,
        **resident_figures([detail]),
    }
    return Outcome(
        metrics=gated(setup_cpu_s, window, len(done), rss_mb, pim_metrics),
        layers=layers,
        attempted=requested + STREAM_BATCH * len(failures),
        failed=STREAM_BATCH * len(failures),
        mismatches=mismatches,
        errors=failures,
        meta={
            "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
            "request": f"one apply() call of {STREAM_BATCH} ops",
            "requests": len(done),
            "setup_cpu_wall_s": setup_runs,
            "tails": tails_meta(latency, latency),
        },
        window=(window.start, window.end),
    )


# ----------------------------------------------------------------------
# analytics
# ----------------------------------------------------------------------
#: Holme-Kim graph: 8k vertices, 63,936 edges, about 34k triangles.
ANALYTICS_VERTICES = 8_000
ANALYTICS_ATTACH = 8
ANALYTICS_TRIAD_P = 0.5
ANALYTICS_BATCH = 8
ANALYTICS_CALLS = ("apply", "simulate", "support", "clustering", "truss")
#: Rounds checked against the oracles besides the last (one insert
#: round, one delete round); each check costs about a second.
ANALYTICS_CHECKED = (0, 1)


def analytics(ctx: Context) -> Outcome:
    from repro import open_session
    from repro.analysis.truss import edge_support, truss_decomposition
    from repro.graph import Graph, generators
    from repro.graph.io import write_edge_list
    from repro.storage.snapshot import snapshot_nbytes

    rng = ctx.rng()
    graph = generators.powerlaw_cluster(
        ANALYTICS_VERTICES, ANALYTICS_ATTACH, ANALYTICS_TRIAD_P, seed=_seed_from(rng)
    )
    path = ctx.workdir / "analytics.edges"
    write_edge_list(graph, path)
    snapshot_dir = ctx.workdir / "analytics.snapshot"
    # Input prep, before the clock: a warm snapshot written from a
    # session opened on the edge list (traced, so storage.write_s shows).
    if ctx.traced:
        ctx.tracer.enabled = True
    try:
        with open_session(str(path)) as writer:
            writer.snapshot(snapshot_dir)
    finally:
        if ctx.traced:
            ctx.tracer.enabled = False
    sampler = EdgeSampler(graph, rng)
    freeze_inputs()

    def build():
        session = open_session(snapshot=snapshot_dir)
        report = session.simulate()
        session.has_edge(0, 1)
        return (session, report), session.close

    (session, first), setup_cpu_s, setup_runs = repeat_setup(build, 5, ctx.tracer)

    pending: list[tuple[int, int]] = []
    rounds = 0
    #: Answers of the sampled rounds, then of the latest round; other
    #: rounds keep only counts, so the harness's memory stays flat.
    kept: list[tuple] = []
    latest: list = []
    failures: list[str] = []

    def step():
        nonlocal rounds
        if pending:
            ops = [("-", *sampler.delete(edge)) for edge in pending]
            pending.clear()
        else:
            pending.extend(sampler.insert() for _ in range(ANALYTICS_BATCH))
            ops = [("+", *edge) for edge in pending]
        index, rounds = rounds, rounds + 1
        marks = [time.perf_counter()]
        try:
            update = session.apply(ops)
            marks.append(time.perf_counter())
            report = session.simulate()
            marks.append(time.perf_counter())
            support = session.support()
            marks.append(time.perf_counter())
            clustering = session.clustering()
            marks.append(time.perf_counter())
            trussness = session.truss()
            marks.append(time.perf_counter())
        except Exception as error:  # a failed round is counted, not fatal
            failures.append(f"round {index}: {type(error).__name__}: {error}")
            return None
        counts = (update.triangles, report.triangles, clustering.triangles)
        if index in ANALYTICS_CHECKED:
            kept.append((index, list(sampler.edges), counts, support, trussness))
        latest[:] = [index, counts, support, trussness]
        durations = [b - a for a, b in zip(marks, marks[1:])]
        return durations, counts, update

    lead, window = measured(ctx, step)
    rss_mb = peak_rss_mb()
    detail = session.resident_bytes_detail()
    done = [result for result in window.results if result is not None]
    if latest and latest[0] not in ANALYTICS_CHECKED:
        index, counts, support, trussness = latest
        kept.append((index, list(sampler.edges), counts, support, trussness))
    latest.clear()
    session.close()

    # Oracles, off the clock: every round's three counts agree; sampled
    # rounds match repro.analysis on a graph rebuilt from the client's
    # own edge set.
    mismatches = []
    for result in (lead.results if lead else []) + window.results:
        if result is not None and len(set(result[1])) != 1:
            mismatches.append(f"apply/simulate/clustering counts {result[1]} differ")
    for index, edges, counts, support, trussness in kept:
        oracle_graph = Graph(graph.num_vertices, edges)
        want_support = edge_support(oracle_graph)
        want_triangles = sum(want_support.values()) // 3
        if counts[0] != want_triangles:
            mismatches.append(f"round {index}: count {counts[0]}, oracle {want_triangles}")
        if support != want_support:
            mismatches.append(f"round {index}: support differs from edge_support")
        if trussness != truss_decomposition(oracle_graph):
            mismatches.append(f"round {index}: truss differs from truss_decomposition")

    per_call = {
        name: [result[0][slot] for result in done]
        for slot, name in enumerate(ANALYTICS_CALLS)
    }
    round_latency = latency_summary([sum(result[0]) for result in done])
    apply_latency = latency_summary(per_call["apply"])
    applied = sum(result[2].inserted + result[2].deleted for result in done)
    requested = sum(result[2].requested for result in done)
    pim_metrics, pim_layers = report_pim(first)
    call_p50 = {
        f"api.{name}_p50_ms": (latency_summary(per_call[name])["p50_ms"], "ms")
        for name in ("simulate", "support", "truss")
    }
    layers = {
        **wall_figures(window, len(done), applied, round_latency, apply_latency),
        **call_p50,
        "incremental.segments_per_call": (
            statistics.fmean(result[2].segments for result in done) if done else 0.0,
            "count",
        ),
        "api.applied_frac": (applied / requested if requested else 0.0, "fraction"),
        "storage.read_mb": (snapshot_nbytes(snapshot_dir) / 1e6, "MB"),
        "trace.overhead_pct": (overhead_pct(lead, window), "%"),
        **pim_layers,
        **resident_figures([detail]),
    }
    calls = len(ANALYTICS_CALLS)
    return Outcome(
        metrics=gated(setup_cpu_s, window, len(done), rss_mb, pim_metrics),
        layers=layers,
        attempted=calls * (len(done) + len(failures)),
        failed=calls * len(failures),
        mismatches=mismatches,
        errors=failures,
        meta={
            "graph": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "triangles": int(first.triangles),
            },
            "request": f"one round: apply() of {ANALYTICS_BATCH} ops, then "
            "simulate(), support(), clustering(), truss()",
            "requests": len(done),
            "checked_rounds": [entry[0] for entry in kept],
            "setup_cpu_wall_s": setup_runs,
            "tails": tails_meta(round_latency, apply_latency),
        },
        window=(window.start, window.end),
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_GRAPHS = 4
SERVE_VERTICES = 4_000
SERVE_ATTACH = 6
SERVE_PAIRS = 8
#: Request mix: (op, share).
SERVE_MIX = (("common_neighbors_many", 0.6), ("count", 0.3), ("apply", 0.1))
#: Clients per worker thread.  Each client sends its next request when
#: its reply arrives (a closed loop), one per worker so every worker has
#: work and requests still meet on a graph's FIFO; two per worker about
#: doubled the run-to-run spread of CPU per request.  An open loop at 400
#: requests/s was tried first: on a shared 2-vCPU VM its p50 moved
#: between 1.2 and 9.5 ms across identical runs with hypervisor steal (a
#: preempted GIL holder stalls every thread).
SERVE_CLIENTS_PER_WORKER = 1


class Connection:
    """One protocol connection, fed from an in-process line queue."""

    def __init__(self, service) -> None:
        from repro.serve.protocol import serve_stream

        self.lines: asyncio.Queue = asyncio.Queue()
        self._waiters: dict = {}
        self.task = asyncio.create_task(
            serve_stream(service, self._read_line, self._write_line)
        )

    async def _read_line(self):
        return await self.lines.get()

    async def _write_line(self, text: str) -> None:
        arrived = time.perf_counter_ns()
        reply = json.loads(text)
        future = self._waiters.pop(reply.get("id"), None)
        if future is not None:
            future.set_result((arrived, reply))

    def send(self, request: dict) -> asyncio.Future:
        """Queue one request; the future resolves to (arrival ns, reply)."""
        future = asyncio.get_running_loop().create_future()
        self._waiters[request["id"]] = future
        self.lines.put_nowait(json.dumps(request))
        return future

    async def close(self) -> None:
        self.lines.put_nowait(None)
        await self.task


def serve_requests(seed: int, graphs, paths):
    """The endless request stream of ``seed``, in submission order.

    Regenerated from the same seed, it replays exactly, so the oracle
    needs no copy of what was sent.
    """
    rng = np.random.default_rng(seed)
    samplers = [EdgeSampler(graph, rng) for graph in graphs]
    ops, shares = zip(*SERVE_MIX)
    bounds = np.cumsum(shares)
    index = 0
    while True:
        kind = min(int(np.searchsorted(bounds, rng.random(), side="right")), len(ops) - 1)
        target = int(rng.integers(len(graphs)))
        request = {"id": index, "op": ops[kind], "graph": paths[target]}
        if ops[kind] == "common_neighbors_many":
            request["pairs"] = rng.integers(
                graphs[target].num_vertices, size=(SERVE_PAIRS, 2)
            ).tolist()
        elif ops[kind] == "apply":
            request["ops"] = [list(samplers[target].op())]
        index += 1
        yield request


def answer(reply: dict):
    """The part of a reply the oracle checks (``None`` if it failed)."""
    if not reply.get("ok"):
        return None
    result = reply["result"]
    return tuple(result["scores"]) if "scores" in result else result["triangles"]


def serve_oracle(seed: int, graphs, paths, answers: dict) -> tuple[list, int]:
    """Replay each graph's journal in submission order against the answers.

    ``answers`` maps request id to :func:`answer`; ids run from 0 in
    submission order.  Returns the mismatches and the number of requests
    without a successful reply.
    """
    from repro import DynamicTriangleCounter

    counters, adjacency = {}, {}
    for graph, path in zip(graphs, paths):
        counters[path] = DynamicTriangleCounter(graph.num_vertices, graph)
        sets = [set() for _ in range(graph.num_vertices)]
        for u, v in graph.edge_array().tolist():
            sets[u].add(v)
            sets[v].add(u)
        adjacency[path] = sets
    mismatches = []
    missing = 0
    for request, _ in zip(serve_requests(seed, graphs, paths), range(len(answers))):
        counter, sets = counters[request["graph"]], adjacency[request["graph"]]
        op = request["op"]
        if op == "apply":
            counter.apply_ops([tuple(item) for item in request["ops"]])
            for code, u, v in request["ops"]:
                if code == "+":
                    sets[u].add(v)
                    sets[v].add(u)
                else:
                    sets[u].discard(v)
                    sets[v].discard(u)
        got = answers.get(request["id"])
        if got is None:
            missing += 1
            continue
        if op == "common_neighbors_many":
            want = tuple(len(sets[u] & sets[v]) for u, v in request["pairs"])
        else:
            want = counter.triangles
        if got != want:
            mismatches.append(f"request {request['id']} ({op}): {got}, replay {want}")
    return mismatches, missing


async def _serve_setup(ctx: Context, graphs, paths, repeats: int = 5):
    """Service start to the first answer on every graph, ``repeats`` times.

    Warms the symmetric structure (one probe) and the edge set (a no-op
    insert of an existing edge).  The first answer is a priced run.
    Returns the kept service and connection, the median CPU seconds of a
    set-up, every set-up's ``(cpu_s, wall_s)`` and the kept replies.
    """
    from repro.serve import Service

    runs = []
    for attempt in range(repeats):
        last = attempt == repeats - 1
        if last and ctx.traced:
            ctx.tracer.enabled = True
        wall, cpu = time.perf_counter(), time.process_time()
        service = Service(max_workers=nproc())
        connection = Connection(service)
        futures = []
        for index, (graph, path) in enumerate(zip(graphs, paths)):
            u, v = graph.edge_array()[0].tolist()
            for request in (
                {"id": f"simulate-{index}", "op": "simulate", "graph": path},
                {"id": f"probe-{index}", "op": "common_neighbors_many",
                 "graph": path, "pairs": [[u, v]]},
                {"id": f"edges-{index}", "op": "apply", "graph": path,
                 "ops": [["+", u, v]]},
            ):
                futures.append(connection.send(request))
        replies = [reply for _, reply in await asyncio.gather(*futures)]
        runs.append((time.process_time() - cpu, time.perf_counter() - wall))
        if ctx.traced:
            ctx.tracer.enabled = False
        if not last:
            await connection.close()
            await service.close()
    setup_cpu_s = statistics.median(cpu for cpu, _ in runs)
    return service, connection, setup_cpu_s, runs, replies


def serve(ctx: Context) -> Outcome:
    return asyncio.run(_serve(ctx))


async def _serve(ctx: Context) -> Outcome:
    from repro.graph import generators
    from repro.graph.io import write_edge_list

    rng = ctx.rng()
    graphs, paths = [], []
    for index in range(SERVE_GRAPHS):
        graph = generators.barabasi_albert(
            SERVE_VERTICES, SERVE_ATTACH, seed=_seed_from(rng)
        )
        path = ctx.workdir / f"serve-{index}.edges"
        write_edge_list(graph, path)
        graphs.append(graph)
        paths.append(str(path))
    request_seed = _seed_from(rng)
    stream = serve_requests(request_seed, graphs, paths)
    freeze_inputs()

    service, connection, setup_cpu_s, setup_runs, warm = await _serve_setup(
        ctx, graphs, paths
    )
    failed_warm = [reply for reply in warm if not reply.get("ok")]
    priced = [r["result"] for r in warm if r.get("op") == "simulate" and r.get("ok")]

    # Kept compact, so the harness's own memory barely grows with the
    # number of requests a run completes.
    answers: dict = {}
    sent_at: dict = {}

    async def phase(seconds: float) -> Window:
        """Every client sends its next request as soon as its reply
        arrives, until ``seconds`` pass; in-flight requests then finish.
        Results are ``(id, is_apply, ops applied, latency ns)``."""
        results = []
        cpu = time.process_time()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)

        async def client() -> None:
            while time.perf_counter_ns() < deadline:
                request = next(stream)
                sent = time.perf_counter_ns()
                future = connection.send(request)
                if ctx.traced:
                    sent_at[request["id"]] = sent
                arrived, reply = await future
                answers[request["id"]] = answer(reply)
                applied = 0
                if request["op"] == "apply" and reply.get("ok"):
                    applied = reply["result"]["inserted"] + reply["result"]["deleted"]
                results.append(
                    (request["id"], request["op"] == "apply", applied, arrived - sent)
                )

        clients = SERVE_CLIENTS_PER_WORKER * nproc()
        await asyncio.gather(*(client() for _ in range(clients)))
        return Window(results, start, time.perf_counter_ns(), time.process_time() - cpu)

    # Traced runs split each reply into wait (line queued to handling),
    # execute (handle_request) and encode (handled to written).
    starts: dict = {}
    ends: dict = {}
    lead = None
    stats_at_window: dict = {}
    try:
        if ctx.traced:
            lead = await phase(ctx.lead_in_seconds)
            ctx.tracer.on_request_start = lambda request, ns: starts.update({request["id"]: ns})
            ctx.tracer.on_request_end = lambda reply, ns: ends.update({reply["id"]: ns})
            stats_at_window = service.stats()
            ctx.tracer.enabled = True
        window = await phase(ctx.seconds)
    finally:
        if ctx.traced:
            ctx.tracer.enabled = False
            ctx.tracer.on_request_start = ctx.tracer.on_request_end = None
    rss_mb = peak_rss_mb()
    stats_end = service.stats()
    details = [entry.session.resident_bytes_detail() for entry in service.pool.entries()]
    await connection.close()
    await service.close()

    mismatches, missing = serve_oracle(request_seed, graphs, paths, answers)
    replies = window.results
    applies = [result for result in replies if result[1]]
    applied = sum(result[2] for result in applies)
    reply_latency = latency_summary([result[3] / 1e9 for result in replies])
    apply_latency = latency_summary([result[3] / 1e9 for result in applies])
    summed_events: dict = {}
    for result in priced:
        for name, value in result["events"].items():
            summed_events[name] = summed_events.get(name, 0) + value
    pim_metrics, pim_layers = pim_figures(
        sum(result["latency_s"] for result in priced),
        sum(result["system_energy_j"] for result in priced),
        summed_events,
    )

    def mean_ms(pairs) -> float:
        values = [(b - a) / 1e6 for a, b in pairs]
        return statistics.fmean(values) if values else 0.0

    # (queued, handling starts, handling ends, reply written) per reply.
    timed = [
        (sent_at[rid], starts[rid], ends[rid], sent_at[rid] + latency)
        for rid, _, _, latency in replies
        if rid in starts and rid in ends
    ]
    layers = {
        **wall_figures(window, len(replies), applied, reply_latency, apply_latency),
        "serve.wait_ms": (mean_ms((row[0], row[1]) for row in timed), "ms"),
        "serve.execute_ms": (mean_ms((row[1], row[2]) for row in timed), "ms"),
        "serve.encode_ms": (mean_ms((row[2], row[3]) for row in timed), "ms"),
        "serve.kernel_launches": (
            stats_end["kernel_launches"] - stats_at_window.get("kernel_launches", 0),
            "count",
        ),
        "serve.coalesced": (
            stats_end["coalesced"] - stats_at_window.get("coalesced", 0), "count"
        ),
        "api.applied_frac": (applied / len(applies) if applies else 0.0, "fraction"),
        "trace.overhead_pct": (overhead_pct(lead, window), "%"),
        **pim_layers,
        **resident_figures(details),
    }
    return Outcome(
        metrics=gated(setup_cpu_s, window, len(replies), rss_mb, pim_metrics),
        layers=layers,
        attempted=len(answers) + len(warm),
        failed=missing + len(failed_warm),
        mismatches=mismatches,
        errors=[f"set-up reply failed: {reply}" for reply in failed_warm],
        meta={
            "graphs": [
                {"vertices": g.num_vertices, "edges": g.num_edges} for g in graphs
            ],
            "request": "one protocol request and its reply line",
            "requests": len(replies),
            "clients": SERVE_CLIENTS_PER_WORKER * nproc(),
            "workers": nproc(),
            "mix": dict(SERVE_MIX),
            "setup_cpu_wall_s": setup_runs,
            "tails": tails_meta(reply_latency, apply_latency),
        },
        window=(window.start, window.end),
    )


WORKLOADS = {"stream": stream, "analytics": analytics, "serve": serve}
