"""Command-line interface: ``tcim`` (or ``python -m repro.cli``).

Sub-commands::

    tcim datasets                         # the paper's Table II registry
    tcim count GRAPH [--method ...]       # count triangles
    tcim slice-stats GRAPH [--slice-bits] [--ordering]  # Table III/IV stats
    tcim simulate GRAPH [--array-mb ...]  # full TCIM run + latency/energy
    tcim stream GRAPH (--ops FILE | --random N)  # incremental op stream
    tcim serve [--port N] [--max-sessions N]  # multi-session JSON service
    tcim device [--llg]                   # Table I device characterisation
    tcim validate GRAPH                   # cross-check all implementations
    tcim truss GRAPH [--k K]              # k-truss decomposition
    tcim cluster GRAPH [--top N]          # clustering coefficients
    tcim common-neighbors GRAPH U [V]     # link-prediction scores
    tcim approx GRAPH [--samples N]       # wedge-sampling estimate

``GRAPH`` is either a path to an edge-list/.npz file or a dataset spec of
the form ``dataset:<key>[@<scale>]``, e.g. ``dataset:roadnet-pa@0.02``.

``count``, ``simulate``, ``stream``, and the workload commands
(``truss``, ``cluster``, ``common-neighbors``) share the accelerator flags
(:func:`add_accelerator_args`): ``--num-arrays``, ``--shard-by``,
``--storage-dir``, plus ``--config FILE`` (a TOML or JSON file of
:class:`AcceleratorConfig` fields), repeatable ``--set key=value``
overrides, and ``--json`` structured output.  Precedence: ``--set`` >
explicit flags > ``--config`` file > built-in defaults.

Every command runs on top of :class:`repro.api.TCIMSession`, the
stateful facade that keeps the compressed graph resident across queries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import paperdata, registry
from repro.analysis.reporting import Table, format_bytes, format_count, format_seconds
from repro.analysis.validation import validate_implementations
from repro.api import TCIMSession, open_session, resolve_graph
from repro.core.accelerator import AcceleratorConfig
from repro.core.sharding import PARTITIONERS
from repro.core.slicing import slice_statistics
from repro.errors import ReproError
from repro.graph import datasets

__all__ = ["main", "build_parser", "resolve_graph", "add_accelerator_args"]


def add_accelerator_args(parser: argparse.ArgumentParser) -> None:
    """Accelerator knobs shared by ``count``, ``simulate`` and ``stream``.

    Flags default to ``None`` so the config resolver can tell "explicitly
    set on the command line" (overrides the ``--config`` file) from "left
    at the default" (the file, then the dataclass default, wins).
    """
    parser.add_argument(
        "--num-arrays",
        type=int,
        default=None,
        help="simulated sub-arrays to shard the run across (Fig. 4)",
    )
    parser.add_argument(
        "--shard-by",
        choices=list(PARTITIONERS),
        default=None,
        help="edge partitioner for sharded runs",
    )
    parser.add_argument(
        "--storage-dir",
        metavar="DIR",
        default=None,
        help=(
            "out-of-core storage directory: slice payloads and compiled "
            "plans at or above the spill threshold become disk-backed "
            "memmaps under DIR/spill (results are identical)"
        ),
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help="TOML or JSON file of AcceleratorConfig fields",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        default=[],
        help="override one config field (repeatable; highest precedence)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit structured JSON instead of tables",
    )


#: Backwards-compatible alias (the helper used to be private).
_add_accelerator_flags = add_accelerator_args


def _load_config_file(path: str) -> dict:
    """Parse a TOML or JSON accelerator-config file into a mapping."""
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as error:
        raise ReproError(f"cannot read config file {path!r}: {error}") from None
    suffix = file.suffix.lower()
    if suffix == ".json":
        parsers = ("json",)
    elif suffix == ".toml":
        parsers = ("toml",)
    else:
        parsers = ("toml", "json")
    errors = []
    for kind in parsers:
        try:
            if kind == "toml":
                import tomllib

                return tomllib.loads(text)
            return json.loads(text)
        except Exception as error:  # tomllib/json raise different types
            errors.append(f"{kind}: {error}")
    raise ReproError(
        f"config file {path!r} is neither valid TOML nor JSON ({'; '.join(errors)})"
    )


def _accelerator_config(args: argparse.Namespace, **flag_overrides) -> AcceleratorConfig:
    """Resolve the effective :class:`AcceleratorConfig` for one command.

    Layering (later wins): built-in defaults < ``--config`` file <
    explicit command-line flags < ``--set key=value`` overrides.
    """
    mapping: dict = {}
    if getattr(args, "config", None):
        mapping.update(_load_config_file(args.config))
    for name in ("num_arrays", "shard_by", "storage_dir"):
        value = getattr(args, name, None)
        if value is not None:
            mapping[name] = value
    for name, value in flag_overrides.items():
        if value is not None:
            mapping[name] = value
    for item in getattr(args, "overrides", []):
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ReproError(f"--set expects KEY=VALUE, got {item!r}")
        mapping[key.strip()] = value.strip()
    return AcceleratorConfig.from_mapping(mapping)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_datasets(_args: argparse.Namespace) -> int:
    table = Table(
        ["key", "name", "family", "vertices", "edges", "triangles", "bench scale"],
        title="Paper datasets (Table II, published statistics)",
    )
    for key in datasets.list_datasets():
        spec = datasets.get_dataset(key)
        table.add_row(
            [
                key,
                spec.display_name,
                spec.family,
                format_count(spec.stats.num_vertices),
                format_count(spec.stats.num_edges),
                format_count(spec.stats.num_triangles),
                spec.default_bench_scale,
            ]
        )
    print(table.render())
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    start = time.perf_counter()
    if args.method == "tcim":
        triangles = session.count()
    else:
        triangles = session.baseline(args.method)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = {
            "num_vertices": session.num_vertices,
            "num_edges": session.num_edges,
            "method": args.method,
            "triangles": triangles,
            "wall_clock_s": elapsed,
        }
        if args.method == "tcim":
            result = session.run()
            if result.notes:
                payload["notes"] = dict(result.notes)
            if result.shards:
                payload["balance"] = result.balance
                payload["shards"] = [
                    {
                        "shard_id": shard.shard_id,
                        "edges": shard.edges,
                        "rows": shard.rows,
                    }
                    for shard in result.shards
                ]
        _emit_json(payload)
        return 0
    print(
        f"graph: n={format_count(session.num_vertices)} "
        f"m={format_count(session.num_edges)}"
    )
    print(f"triangles ({args.method}): {format_count(triangles)}")
    print(f"wall-clock: {format_seconds(elapsed)}")
    if args.method == "tcim":
        result = session.run()
        if result.shards:
            line = (
                f"shards: {len(result.shards)}  "
                f"balance(max/mean): {result.balance:.3f}"
            )
            if result.notes.get("shard_by") == "coloring":
                line += (
                    f"  colors: {result.notes['colors']}"
                    "  communication-free"
                )
            print(line)
    return 0


def _cmd_slice_stats(args: argparse.Namespace) -> int:
    graph = resolve_graph(args.graph)
    if args.ordering != "identity":
        from repro.graph.reorder import apply_ordering

        graph = apply_ordering(graph, args.ordering)
    stats = slice_statistics(graph, slice_bits=args.slice_bits)
    title = f"Slice statistics (|S|={args.slice_bits}, ordering={args.ordering})"
    table = Table(["metric", "value"], title=title)
    table.add_row(["valid slices (rows+cols)", format_count(stats.num_valid_slices)])
    table.add_row(["valid slice data size", format_bytes(stats.data_bytes)])
    table.add_row(["row-structure data (Table III)", format_bytes(stats.row_data_bytes)])
    table.add_row(["compressed size (data+index)", format_bytes(stats.compressed_bytes)])
    table.add_row(["valid slice percentage", f"{stats.valid_percent:.4f} %"])
    table.add_row(
        ["valid slice % (paper accounting)", f"{stats.paper_valid_percent:.4f} %"]
    )
    table.add_row(
        ["computation reduction", f"{stats.computation_reduction_percent:.4f} %"]
    )
    print(table.render())
    return 0


def _cmd_truss(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    trussness = session.truss()
    histogram = trussness.histogram()
    maximum = max(histogram, default=0)
    k_truss_edges = (
        session.truss(args.k).num_edges if args.k is not None else None
    )
    if args.json:
        payload = {
            "num_edges": len(trussness),
            "max_trussness": maximum,
            "histogram": {str(k): n for k, n in histogram.items()},
        }
        if args.k is not None:
            payload["k"] = args.k
            payload["k_truss_edges"] = k_truss_edges
        _emit_json(payload)
        return 0
    table = Table(["k", "edges with trussness k"], title="Truss decomposition")
    for k, n in histogram.items():
        table.add_row([k, format_count(n)])
    print(table.render())
    print(f"maximum trussness: {maximum}")
    if args.k is not None:
        print(f"{args.k}-truss edges: {format_count(k_truss_edges)}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    report = session.clustering()
    if args.json:
        _emit_json(report.to_mapping())
        return 0
    table = Table(["metric", "value"], title="Clustering metrics")
    table.add_row(["vertices", format_count(session.num_vertices)])
    table.add_row(["triangles", format_count(report.triangles)])
    table.add_row(["wedges", format_count(report.wedges)])
    table.add_row(["transitivity", f"{report.transitivity:.6f}"])
    table.add_row(["average clustering", f"{report.average:.6f}"])
    print(table.render())
    if args.top > 0:
        tallies = report.triangles_per_vertex
        order = tallies.argsort()[::-1][: args.top]
        hubs = Table(
            ["vertex", "triangles", "local clustering"],
            title=f"Top {args.top} triangle hubs",
        )
        for vertex in order.tolist():
            hubs.add_row(
                [
                    vertex,
                    format_count(int(tallies[vertex])),
                    f"{report.local[vertex]:.4f}",
                ]
            )
        print(hubs.render())
    return 0


def _cmd_common_neighbors(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    if args.v is not None:
        score = session.common_neighbors(args.u, args.v)
        if args.json:
            _emit_json({"u": args.u, "v": args.v, "score": score})
            return 0
        print(f"common neighbors of {args.u} and {args.v}: {score}")
        return 0
    ranked = session.common_neighbors(args.u, k=args.k)
    if args.json:
        _emit_json(
            {
                "u": args.u,
                "k": args.k,
                "candidates": [[vertex, score] for vertex, score in ranked],
            }
        )
        return 0
    table = Table(
        ["candidate", "common neighbors"],
        title=f"Top {args.k} link-prediction candidates for vertex {args.u}",
    )
    for vertex, score in ranked:
        table.add_row([vertex, format_count(score)])
    print(table.render())
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    from repro.baselines.approximate import triangle_count_wedge_sampling

    graph = resolve_graph(args.graph)
    start = time.perf_counter()
    result = triangle_count_wedge_sampling(graph, samples=args.samples, seed=args.seed)
    elapsed = time.perf_counter() - start
    print(
        f"estimate: {result.estimate:,.0f} triangles "
        f"(95 % CI [{result.low:,.0f}, {result.high:,.0f}], "
        f"{result.samples:,} wedge samples, {format_seconds(elapsed)})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _accelerator_config(
        args,
        slice_bits=args.slice_bits,
        array_bytes=(
            int(args.array_mb * 2**20) if args.array_mb is not None else None
        ),
        policy=args.policy,
    )
    session = open_session(args.graph, config)
    start = time.perf_counter()
    report = session.simulate()
    elapsed = time.perf_counter() - start
    if args.json:
        payload = report.to_mapping()
        payload["simulator_wall_clock_s"] = elapsed
        _emit_json(payload)
        return 0
    result = report.result
    table = Table(["metric", "value"], title="TCIM simulation")
    table.add_row(["join plan", format_bytes(session.plan_resident_bytes())])
    if config.num_arrays > 1:
        table.add_row(["arrays", f"{config.num_arrays} (shard_by={config.shard_by})"])
    table.add_row(["triangles", format_count(result.triangles)])
    table.add_row(["edges processed", format_count(result.events.edges_processed)])
    table.add_row(["AND operations", format_count(result.events.and_operations)])
    table.add_row(["slice writes", format_count(result.events.total_slice_writes)])
    table.add_row(["cache hit %", f"{result.cache_stats.hit_percent:.2f} %"])
    table.add_row(["cache miss %", f"{result.cache_stats.miss_percent:.2f} %"])
    table.add_row(["cache exchange %", f"{result.cache_stats.exchange_percent:.2f} %"])
    table.add_row(
        ["write savings (reuse)", f"{result.events.write_savings_percent:.2f} %"]
    )
    table.add_row(
        [
            "write savings (incl. rows)",
            f"{result.events.total_write_savings_percent:.2f} %",
        ]
    )
    table.add_row(
        [
            "computation reduction",
            f"{result.events.computation_reduction_percent:.4f} %",
        ]
    )
    if result.shards:
        table.add_row(
            [
                "modelled TCIM latency (critical path)",
                format_seconds(report.perf.latency_s),
            ]
        )
        table.add_row(
            ["shard imbalance", f"{report.perf.latency_breakdown_s['imbalance']:.3f}"]
        )
        table.add_row(
            ["partitioner balance (max/mean edges)", f"{result.balance:.3f}"]
        )
        if result.notes.get("shard_by") == "coloring":
            table.add_row(
                [
                    "coloring",
                    f"{result.notes['colors']} colors -> "
                    f"{result.notes['num_shards']} shards, "
                    "communication-free",
                ]
            )
    else:
        table.add_row(["modelled TCIM latency", format_seconds(report.perf.latency_s)])
    table.add_row(["modelled array energy", f"{report.perf.array_energy_j:.3e} J"])
    table.add_row(["modelled system energy", f"{report.perf.system_energy_j:.3e} J"])
    table.add_row(["simulator wall-clock", format_seconds(elapsed)])
    print(table.render())
    if result.shards:
        shard_table = Table(
            [
                "shard",
                "edges",
                "rows",
                "AND ops",
                "cache hit %",
                "col cache (slices)",
                "latency",
            ],
            title="Per-shard breakdown (one row per simulated array)",
        )
        for shard, shard_report in zip(result.shards, report.shard_perf):
            shard_table.add_row(
                [
                    shard.shard_id,
                    format_count(shard.edges),
                    format_count(shard.rows),
                    format_count(shard.events.and_operations),
                    f"{shard.cache_stats.hit_percent:.2f} %",
                    format_count(shard.column_cache_slices),
                    format_seconds(shard_report.latency_s),
                ]
            )
        print(shard_table.render())
    return 0


def _load_ops(path: str) -> list[tuple[str, int, int]]:
    """Parse an op-stream file: one ``+|-|insert|delete U V`` per line."""
    ops: list[tuple[str, int, int]] = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as error:
        raise ReproError(f"cannot read ops file {path!r}: {error}") from None
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ReproError(
                f"{path}:{number}: expected 'OP U V', got {line!r}"
            )
        code, u_text, v_text = parts
        try:
            ops.append((code, int(u_text), int(v_text)))
        except ValueError:
            raise ReproError(
                f"{path}:{number}: vertex ids must be integers, got {line!r}"
            ) from None
    return ops


def _random_ops(session: TCIMSession, count: int, seed: int) -> list[tuple[str, int, int]]:
    """A reproducible mixed insert/delete stream over the session's graph."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pool = [tuple(edge) for edge in session.graph.edge_array().tolist()]
    present = set(pool)
    n = session.num_vertices
    ops: list[tuple[str, int, int]] = []
    while len(ops) < count:
        if present and rng.random() < 0.5:
            # Swap-pop keeps deletion sampling O(1); stale pool entries
            # (already deleted) are skipped.
            index = int(rng.integers(len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            u, v = pool.pop()
            if (u, v) not in present:
                continue
            present.discard((u, v))
            ops.append(("-", u, v))
        else:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            present.add(key)
            pool.append(key)
            ops.append(("+", u, v))
    return ops


def _cmd_stream(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    before = session.count()
    if args.ops:
        ops = _load_ops(args.ops)
    else:
        ops = _random_ops(session, args.random, args.seed)
    start = time.perf_counter()
    report = session.apply(ops, record=args.record)
    elapsed = time.perf_counter() - start
    throughput = len(ops) / elapsed if elapsed > 0 else float("inf")
    oracle_agrees = None
    if args.check:
        from repro.core.dynamic import DynamicTriangleCounter

        # Replay the stream through the pure-Python oracle from the same
        # starting graph (one full pass, independent of the session state).
        oracle = DynamicTriangleCounter(session.num_vertices, resolve_graph(args.graph))
        oracle.apply_ops(ops)
        oracle_agrees = oracle.triangles == session.count()
    if args.json:
        payload = report.to_mapping()
        payload.update(
            {
                "triangles_before": before,
                "wall_clock_s": elapsed,
                "ops_per_second": throughput,
            }
        )
        if oracle_agrees is not None:
            payload["oracle_agrees"] = oracle_agrees
        _emit_json(payload)
        return 0 if oracle_agrees in (None, True) else 1
    table = Table(["metric", "value"], title="Incremental stream (session fast path)")
    table.add_row(["ops requested", format_count(report.requested)])
    table.add_row(["edges inserted", format_count(report.inserted)])
    table.add_row(["edges deleted", format_count(report.deleted)])
    table.add_row(["engine batches", format_count(report.segments)])
    table.add_row(["triangles before", format_count(before)])
    table.add_row(["triangles after", format_count(report.triangles)])
    table.add_row(["net delta", f"{report.delta_triangles:+,}"])
    table.add_row(["AND operations", format_count(report.events.and_operations)])
    table.add_row(["slice writes", format_count(report.events.total_slice_writes)])
    table.add_row(["wall-clock", format_seconds(elapsed)])
    table.add_row(["throughput", f"{throughput:,.0f} ops/s"])
    if oracle_agrees is not None:
        table.add_row(["oracle agreement", oracle_agrees])
    print(table.render())
    if oracle_agrees is False:
        print("error: incremental count disagrees with the oracle", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import Service, serve_stdio, serve_tcp

    config = _accelerator_config(args, storage_dir=args.spill_dir)
    service = Service(
        max_sessions=args.max_sessions,
        max_resident_bytes=(
            int(args.max_mb * 2**20) if args.max_mb is not None else None
        ),
        max_workers=args.pool_workers,
        config=config,
        max_queue=args.max_queue,
        admission=args.admission,
    )

    # Snapshot the report before close() evicts the pool, so the final
    # summary reflects the serving run, not the torn-down state.
    captured: dict = {}

    async def run_stdio() -> None:
        try:
            await serve_stdio(service)
        finally:
            captured["report"] = service.report()
            await service.close()

    async def run_tcp() -> None:
        server = await serve_tcp(service, args.host, args.port)
        addresses = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
            for sock in server.sockets
        )
        print(f"tcim serve: listening on {addresses}", file=sys.stderr)
        try:
            async with server:
                await server.serve_forever()
        finally:
            captured["report"] = service.report()
            await service.close()

    try:
        asyncio.run(run_tcp() if args.port is not None else run_stdio())
    except KeyboardInterrupt:
        pass
    report = captured.get("report") or service.report()
    try:
        return _print_serve_summary(report, args.json)
    except BrokenPipeError:
        # The client closed stdout mid-stream (e.g. `... | head`); drop
        # the summary and exit quietly instead of dying on the flush.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _print_serve_summary(report, as_json: bool) -> int:
    if as_json:
        _emit_json(report.to_mapping())
        return 0
    table = Table(["metric", "value"], title="Serving summary")
    table.add_row(["queries", format_count(report.queries)])
    table.add_row(["throughput", f"{report.queries_per_second:,.1f} queries/s"])
    table.add_row(["coalesced reads", format_count(report.coalesced)])
    if report.fused_reads:
        table.add_row(
            ["probes / batches",
             f"{report.fused_reads} / {report.fused_batches} "
             f"(largest batch {report.max_fused_batch})"],
        )
    if report.shed:
        table.add_row(["shed (overloaded)", format_count(report.shed)])
    table.add_row(["kernel launches", format_count(report.kernel_launches)])
    table.add_row(
        ["sessions (resident/peak/capacity)",
         f"{report.resident}/{report.pool.peak_resident}/{report.max_sessions}"],
    )
    table.add_row(["pool hits / misses", f"{report.pool.hits} / {report.pool.misses}"])
    table.add_row(["evictions", format_count(report.pool.evictions)])
    table.add_row(["resident bytes", format_bytes(report.resident_bytes)])
    if report.pool.snapshots_written:
        table.add_row(
            ["paging (snapshots/hydrations)",
             f"{report.pool.snapshots_written} / {report.pool.hydrations}"],
        )
        table.add_row(["spilled bytes", format_bytes(report.pool.spilled_bytes)])
    if report.fleet is not None:
        table.add_row(
            ["modelled fleet latency (critical path)",
             format_seconds(report.fleet.latency_s)],
        )
        table.add_row(
            ["modelled fleet system energy", f"{report.fleet.system_energy_j:.3e} J"]
        )
    print(table.render())
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    session = open_session(args.graph, _accelerator_config(args))
    start = time.perf_counter()
    target = session.snapshot(args.path)
    elapsed = time.perf_counter() - start
    from repro.storage.snapshot import snapshot_nbytes

    payload = {
        "path": str(target),
        "num_vertices": session.num_vertices,
        "num_edges": session.num_edges,
        "triangles": session.count(),
        "payload_bytes": snapshot_nbytes(target),
        "resident": session.resident_bytes_detail(),
        "wall_clock_s": elapsed,
    }
    if args.json:
        _emit_json(payload)
        return 0
    table = Table(["metric", "value"], title="Session snapshot")
    table.add_row(["path", payload["path"]])
    table.add_row(["vertices", format_count(payload["num_vertices"])])
    table.add_row(["edges", format_count(payload["num_edges"])])
    table.add_row(["triangles", format_count(payload["triangles"])])
    table.add_row(["payload bytes", format_bytes(payload["payload_bytes"])])
    table.add_row(["resident bytes", format_bytes(payload["resident"]["total"])])
    table.add_row(["write time", format_seconds(elapsed)])
    print(table.render())
    return 0


def _cmd_device(args: argparse.Namespace) -> int:
    from repro.device import MTJDevice, SenseAmplifier, solve_llg

    device = MTJDevice()
    amplifier = SenseAmplifier()
    table = Table(["quantity", "value"], title="MTJ characterisation (Table I inputs)")
    table.add_row(["R_P", f"{device.resistance_parallel:.1f} ohm"])
    table.add_row(["R_AP", f"{device.resistance_antiparallel:.1f} ohm"])
    table.add_row(["TMR", f"{device.params.tmr * 100:.0f} %"])
    table.add_row(["thermal stability Delta", f"{device.thermal_stability:.1f}"])
    table.add_row(["critical current", f"{device.critical_current_a * 1e6:.1f} uA"])
    table.add_row(["write current", f"{device.write_current_a * 1e6:.1f} uA"])
    table.add_row(["analytic switching time", format_seconds(device.write_pulse_s)])
    margins = amplifier.margins()
    table.add_row(["READ margin", f"{margins.read_margin_a * 1e6:.2f} uA"])
    table.add_row(["AND margin", f"{margins.and_margin_a * 1e6:.2f} uA"])
    if args.llg:
        result = solve_llg(device, current_a=device.write_current_a)
        table.add_row(["LLG switched", result.switched])
        table.add_row(["LLG switching time", format_seconds(result.switching_time_s)])
    print(table.render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import default_implementations

    session = open_session(args.graph)
    graph = session.graph
    # The session facade is an implementation too: its resident-structure
    # run must agree with every direct call, through the one shared
    # mismatch check in validate_implementations.
    implementations = default_implementations(
        include_dense=graph.num_vertices <= 5000
    )
    implementations["tcim-session"] = lambda g: session.count()
    results = validate_implementations(graph, implementations)
    table = Table(["implementation", "triangles"], title="Cross-validation")
    for name, count in sorted(results.items()):
        table.add_row([name, format_count(count)])
    print(table.render())
    print("all implementations agree")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="tcim",
        description="TCIM: triangle counting with processing-in-MRAM (DAC 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the paper's datasets")

    count = subparsers.add_parser(
        "count",
        help="count triangles",
        description=(
            "Count triangles.  The accelerator flags (--num-arrays, "
            "--shard-by, --config, --set) apply to the default tcim "
            "method; the software baselines ignore them."
        ),
    )
    count.add_argument("graph", help="file path or dataset:<key>[@scale]")
    count.add_argument(
        "--method",
        choices=sorted(("tcim",) + registry.baseline_names()),
        default="tcim",
        help="algorithm",
    )
    add_accelerator_args(count)

    stats = subparsers.add_parser("slice-stats", help="Table III/IV statistics")
    stats.add_argument("graph")
    stats.add_argument("--slice-bits", type=int, default=paperdata.SLICE_BITS)
    stats.add_argument(
        "--ordering",
        choices=["identity", "bfs", "rcm", "degree"],
        default="identity",
        help="relabel vertices before slicing (data-mapping study)",
    )

    truss = subparsers.add_parser(
        "truss",
        help="k-truss decomposition",
        description=(
            "Truss decomposition peeled from the session's triangle "
            "list: one witness pass over the count plan names every "
            "triangle once, and edge supports are tallies over it (the "
            "accelerator flags configure the session)."
        ),
    )
    truss.add_argument("graph")
    truss.add_argument(
        "--k", type=int, default=None,
        help="also report the edge count of the k-truss subgraph",
    )
    add_accelerator_args(truss)

    cluster = subparsers.add_parser(
        "cluster",
        help="clustering coefficients and transitivity",
        description=(
            "Clustering metrics from the session's triangle list: "
            "per-vertex triangle counts are tallies over it (the same "
            "witness pass as truss)."
        ),
    )
    cluster.add_argument("graph")
    cluster.add_argument(
        "--top", type=int, default=5,
        help="list the N vertices with most triangles (0 to skip)",
    )
    add_accelerator_args(cluster)

    common = subparsers.add_parser(
        "common-neighbors",
        help="common-neighbor link-prediction scores",
        description=(
            "Score candidate links by shared neighbors via the session's "
            "support kernel: with V, one pair score; without, the top-k "
            "two-hop candidates of U."
        ),
    )
    common.add_argument("graph")
    common.add_argument("u", type=int, help="source vertex")
    common.add_argument(
        "v", type=int, nargs="?", default=None,
        help="optional target vertex (score this one pair)",
    )
    common.add_argument(
        "--k", type=int, default=10,
        help="how many top candidates to list (without V)",
    )
    add_accelerator_args(common)

    approx = subparsers.add_parser("approx", help="wedge-sampling estimate")
    approx.add_argument("graph")
    approx.add_argument("--samples", type=int, default=20_000)
    approx.add_argument("--seed", type=int, default=0)

    simulate = subparsers.add_parser("simulate", help="full TCIM run + perf model")
    simulate.add_argument("graph")
    simulate.add_argument("--slice-bits", type=int, default=None)
    simulate.add_argument("--array-mb", type=float, default=None)
    simulate.add_argument(
        "--policy", choices=["lru", "fifo", "random"], default=None
    )
    add_accelerator_args(simulate)

    stream = subparsers.add_parser(
        "stream",
        help="apply an incremental insert/delete stream via the session",
        description=(
            "Stream edge updates through TCIMSession.apply: the stream "
            "reduces to its net deletions and net insertions, two delta "
            "re-join batches on the vectorized engine (shard-aware with "
            "--num-arrays > 1)."
        ),
    )
    stream.add_argument("graph")
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--ops", metavar="FILE", help="op stream file: one '+|- U V' per line"
    )
    source.add_argument(
        "--random", type=int, metavar="N", help="generate N random ops"
    )
    stream.add_argument("--seed", type=int, default=0, help="seed for --random")
    stream.add_argument(
        "--record", action="store_true",
        help="per-op batches (reports per_op_deltas in --json mode)",
    )
    stream.add_argument(
        "--check", action="store_true",
        help="cross-check the final count against the pure-Python oracle",
    )
    add_accelerator_args(stream)

    serve = subparsers.add_parser(
        "serve",
        help="serve many resident sessions over a JSON line protocol",
        description=(
            "Serve concurrent count/simulate/apply queries against a pool "
            "of resident sessions.  Default: read one JSON request per "
            "line from stdin until EOF (see docs/API.md 'Serving' for the "
            "protocol); with --port, listen on TCP instead.  The "
            "accelerator flags set the default config for sessions the "
            "service opens; per-request 'config' objects override it."
        ),
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="listen on TCP instead of reading stdin",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--max-sessions", type=int, default=8,
        help="resident-session budget of the pool (LRU-evicted beyond it)",
    )
    serve.add_argument(
        "--max-mb", type=float, default=None,
        help="optional resident-memory budget in MiB",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=None,
        help="threads for CPU-bound engine work (default: executor default)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None,
        help="bound on concurrently admitted requests (default: unbounded)",
    )
    serve.add_argument(
        "--admission", choices=("reject", "block"), default="reject",
        help="over-queue policy: reject with an 'overloaded' error, or "
             "park requests FIFO until a slot frees (default: reject)",
    )
    serve.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="out-of-core spill directory: large resident arrays become "
             "disk-backed memmaps and evicted sessions page out as "
             "snapshots that re-admit warm (sets config storage_dir)",
    )
    add_accelerator_args(serve)

    snapshot = subparsers.add_parser(
        "snapshot",
        help="persist a session's residency as an on-disk snapshot",
        description=(
            "Open a session, build its residency (slices, oriented edges, "
            "compiled join plans) and persist it as a versioned snapshot "
            "directory.  open_session(snapshot=PATH) then hydrates it "
            "warm — no re-slice, no plan recompile."
        ),
    )
    snapshot.add_argument("graph", help="file path or dataset:<key>[@scale]")
    snapshot.add_argument("path", help="snapshot directory to write")
    add_accelerator_args(snapshot)

    device = subparsers.add_parser("device", help="MTJ characterisation")
    device.add_argument("--llg", action="store_true", help="run the LLG transient")

    validate = subparsers.add_parser("validate", help="cross-check implementations")
    validate.add_argument("graph")

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "count": _cmd_count,
    "slice-stats": _cmd_slice_stats,
    "simulate": _cmd_simulate,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "device": _cmd_device,
    "validate": _cmd_validate,
    "truss": _cmd_truss,
    "cluster": _cmd_cluster,
    "common-neighbors": _cmd_common_neighbors,
    "approx": _cmd_approx,
    "snapshot": _cmd_snapshot,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        # An OSError names its path: "[Errno 2] No such file ...: 'g.txt'".
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
