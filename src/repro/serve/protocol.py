"""Line protocol and drivers for the serving tier.

One JSON object per line, over stdin/stdout or TCP.  Requests::

    {"id": 1, "op": "count",    "graph": "dataset:com-dblp@0.05"}
    {"id": 2, "op": "simulate", "graph": "g.txt", "config": {"num_arrays": 4}}
    {"id": 3, "op": "apply",    "graph": "g.txt", "ops": [["+", 0, 1], ["-", 2, 3]]}
    {"id": 4, "op": "baseline", "graph": "g.txt", "name": "forward"}
    {"id": 5, "op": "slice-stats", "graph": "g.txt"}
    {"id": 6, "op": "support",  "graph": "g.txt"}
    {"id": 7, "op": "truss",    "graph": "g.txt", "k": 3}
    {"id": 8, "op": "cluster",  "graph": "g.txt"}
    {"id": 9, "op": "common_neighbors", "graph": "g.txt", "u": 0, "k": 10}
    {"id": 10, "op": "common_neighbors_many", "graph": "g.txt", "pairs": [[0, 5], [1, 9]]}
    {"id": 11, "op": "report"}
    {"id": 12, "op": "stats"}
    {"id": 13, "op": "ping"}

Responses echo the request ``id`` (clients may pipeline; responses come
back in *completion* order, so correlate by id)::

    {"id": 1, "ok": true,  "op": "count", "result": {"triangles": 120283}}
    {"id": 3, "ok": false, "op": "apply", "error": "GraphError: ..."}

``graph`` takes anything :func:`repro.api.resolve_graph` accepts — file
paths and registered source schemes; ``config`` is an
:class:`~repro.core.accelerator.AcceleratorConfig` mapping (a JSON
object, or ``null``) layered over the service's defaults.  Each request
line is dispatched as its own task, so one slow query never blocks the
connection — this is where the service's cross-session interleaving
surfaces on the wire.

The ``stats`` op returns the live scheduler counters plus the pool's
out-of-core paging traffic when the service spills to disk
(``serve --spill-dir``): ``snapshots_written`` (eviction snapshots
persisted), ``hydrations`` (acquires served warm from a snapshot) and
``spilled_bytes`` (payload bytes currently paged out).  The richer
``report`` op additionally carries each resident session's
``resident_detail`` byte breakdown (slices / plan / sym_plan / edges /
graph / spilled) from ``TCIMSession.resident_bytes_detail()``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import asdict

from repro.serve.service import Service

__all__ = ["handle_request", "serve_stream", "serve_stdio", "serve_tcp"]

#: Longest TCP request line, in bytes (asyncio's default stream limit).
#: A longer line is answered with one error and dropped.
_TCP_LINE_LIMIT = 2**16


async def handle_request(service: Service, request) -> dict:
    """Dispatch one decoded request object; never raises."""
    if not isinstance(request, dict):
        return {
            "id": None,
            "ok": False,
            "error": f"request must be a JSON object, got {type(request).__name__}",
        }
    rid = request.get("id")
    op = request.get("op")
    try:
        result = await _dispatch(service, op, request)
        return {"id": rid, "ok": True, "op": op, "result": result}
    except Exception as error:  # protocol boundary: report, don't crash
        return {
            "id": rid,
            "ok": False,
            "op": op,
            "error": f"{type(error).__name__}: {error}",
        }


async def _dispatch(service: Service, op, request: dict):
    if op == "ping":
        return {"pong": True}
    if op == "report":
        # report() takes session locks while sizing residents — keep it
        # off the event loop so it cannot stall behind an apply.
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(None, service.report)
        return report.to_mapping()
    if op == "stats":
        # Live scheduler counters (queue depth, probe batches, shed);
        # lock-free, so it answers even while the service is saturated.
        return service.stats()
    if op not in _GRAPH_OPS:
        known = sorted(("ping", "report", "stats", *_GRAPH_OPS))
        raise ValueError(f"unknown op {op!r}; expected one of {known}")
    graph = request.get("graph")
    if not isinstance(graph, str):
        raise ValueError(f"op {op!r} needs a 'graph' spec string")
    config = request.get("config")
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"op {op!r}: 'config' must be an object, got {config!r}")
    return await _GRAPH_OPS[op](service, graph, config, request)


async def _op_count(service, graph, config, _request):
    return {"triangles": await service.count(graph, config)}


async def _op_simulate(service, graph, config, _request):
    report = await service.simulate(graph, config)
    return report.to_mapping()


async def _op_slice_stats(service, graph, config, _request):
    stats = await service.slice_stats(graph, config)
    payload = asdict(stats)
    # The derived Table III/IV quantities are properties, which asdict
    # skips; clients want them without re-deriving the formulas.
    payload.update(
        num_valid_slices=stats.num_valid_slices,
        valid_percent=stats.valid_percent,
        paper_valid_percent=stats.paper_valid_percent,
        computation_reduction_percent=stats.computation_reduction_percent,
    )
    return payload


async def _op_baseline(service, graph, config, request):
    name = request.get("name")
    if not isinstance(name, str):
        raise ValueError("op 'baseline' needs a 'name' string")
    return {
        "method": name,
        "triangles": await service.baseline(graph, name, config),
    }


async def _op_apply(service, graph, config, request):
    ops = request.get("ops")
    if not isinstance(ops, list):
        raise ValueError("op 'apply' needs an 'ops' list of [op, u, v] triples")
    record = request.get("record", False)
    if not isinstance(record, bool):
        raise ValueError(f"op 'apply': 'record' must be a boolean, got {record!r}")
    # Checked whole before the service sees the call, so a malformed op
    # is never coerced (1.7 -> 1, "3" -> 3, "+09" -> ("+", "0", "9")).
    for index, op in enumerate(ops):
        if not (isinstance(op, list) and len(op) == 3):
            raise ValueError(
                f"op 'apply': ops[{index}] must be an [op, u, v] array, got {op!r}"
            )
        if not isinstance(op[0], str):
            raise ValueError(f"op 'apply': ops[{index}] field 'op' must be a string")
        for name, value in zip(("u", "v"), op[1:]):
            _check_int(value, f"op 'apply': ops[{index}] field {name!r}")
    report = await service.apply(
        graph, [tuple(op) for op in ops], config, record=record
    )
    return report.to_mapping()


def _check_int(value, what: str) -> None:
    """Reject anything but a JSON integer (``true`` / ``false`` included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _optional_int(request: dict, op: str, name: str):
    value = request.get(name)
    if value is None:
        return None
    _check_int(value, f"op {op!r}: {name!r}")
    return value


async def _op_support(service, graph, config, _request):
    return await service.support(graph, config)


async def _op_truss(service, graph, config, request):
    return await service.truss(graph, _optional_int(request, "truss", "k"), config)


async def _op_cluster(service, graph, config, _request):
    return await service.cluster(graph, config)


async def _op_common_neighbors(service, graph, config, request):
    u = _optional_int(request, "common_neighbors", "u")
    if u is None:
        raise ValueError("op 'common_neighbors' needs a 'u' vertex integer")
    v = _optional_int(request, "common_neighbors", "v")
    k = _optional_int(request, "common_neighbors", "k")
    if v is None and k is None:
        # A bare probe defaults to the top-10 candidates rather than the
        # full (possibly huge) two-hop list.
        k = 10
    return await service.common_neighbors(graph, u, v, k, config)


async def _op_common_neighbors_many(service, graph, config, request):
    pairs = request.get("pairs")
    if not isinstance(pairs, list):
        raise ValueError(
            "op 'common_neighbors_many' needs a 'pairs' list of [u, v] pairs"
        )
    # Checked whole, as apply's ops are: "12" is not (1, 2), nor is [1.7, "2"].
    for index, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(
                f"op 'common_neighbors_many': pairs[{index}] must be a [u, v] "
                f"array, got {pair!r}"
            )
        for name, value in zip(("u", "v"), pair):
            _check_int(
                value, f"op 'common_neighbors_many': pairs[{index}] field {name!r}"
            )
    return await service.common_neighbors_many(graph, pairs, config)


_GRAPH_OPS = {
    "count": _op_count,
    "simulate": _op_simulate,
    "slice-stats": _op_slice_stats,
    "baseline": _op_baseline,
    "apply": _op_apply,
    "support": _op_support,
    "truss": _op_truss,
    "cluster": _op_cluster,
    "common_neighbors": _op_common_neighbors,
    "common_neighbors_many": _op_common_neighbors_many,
}


async def serve_stream(service: Service, read_line, write_line) -> int:
    """Core request loop shared by the stdio and TCP drivers.

    ``read_line`` is an awaitable returning the next text line or
    ``None`` at end of stream; it raises :class:`ValueError` for a line
    it had to drop (too long, or not UTF-8), which is answered with one
    ``{"id": null, "ok": false}`` error before the next line is read.
    ``write_line`` is an awaitable consuming one response line.  Every request dispatches as its own task;
    responses are written as they complete.  Ordering: requests naming
    the **same** ``graph`` on this stream execute in submission order
    (so a pipelined count → apply → count reads as written), requests on
    different graphs interleave freely, and a ``report`` request first
    waits for every request already submitted, so a piped script ending
    in ``{"op": "report"}`` summarises the whole run.  A failing
    ``write_line`` (client hung up) stops the stream cleanly.  Returns
    the number of requests handled.
    """
    write_lock = asyncio.Lock()
    pending: set[asyncio.Task] = set()
    #: graph spec -> last task submitted for it (the FIFO chain tail).
    chains: dict[str, asyncio.Task] = {}
    hung_up = False
    handled = 0

    async def respond(payload: dict) -> None:
        nonlocal hung_up
        if hung_up:
            return
        async with write_lock:
            try:
                await write_line(json.dumps(payload, sort_keys=True))
            except (ConnectionError, OSError):
                hung_up = True

    async def dispatch(request, barrier=()) -> None:
        if barrier:
            await asyncio.gather(*barrier, return_exceptions=True)
        await respond(await handle_request(service, request))

    while not hung_up:
        try:
            line = await read_line()
        except ValueError as error:
            handled += 1
            await respond({"id": None, "ok": False, "error": f"bad request line: {error}"})
            continue
        if line is None:
            break
        text = line.strip()
        if not text:
            continue
        handled += 1
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            await respond({"id": None, "ok": False, "error": f"invalid JSON: {error}"})
            continue
        barrier: tuple = ()
        graph = None
        if isinstance(request, dict):
            if request.get("op") == "report":
                barrier = tuple(pending)
            else:
                graph = request.get("graph")
                if isinstance(graph, str) and graph in chains:
                    barrier = (chains[graph],)
        task = asyncio.create_task(dispatch(request, barrier))
        pending.add(task)
        task.add_done_callback(pending.discard)
        if isinstance(graph, str):
            chains[graph] = task

            def prune(done, key=graph):
                if chains.get(key) is done:
                    del chains[key]

            task.add_done_callback(prune)
    if pending:
        await asyncio.gather(*pending)
    return handled


async def serve_stdio(service: Service, stdin=None, stdout=None) -> int:
    """Serve JSON lines from ``stdin`` until EOF; returns requests handled.

    Input is pumped by a dedicated daemon thread rather than the default
    executor: a thread parked in ``stdin.readline`` must not be joined at
    loop shutdown, or Ctrl-C would hang until the user types one more
    line.
    """
    import threading

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    loop = asyncio.get_running_loop()
    lines: asyncio.Queue = asyncio.Queue()

    def pump() -> None:
        while True:
            try:
                line = stdin.readline()
            except (ValueError, OSError):  # stdin closed under us
                line = ""
            try:
                loop.call_soon_threadsafe(lines.put_nowait, line if line else None)
            except RuntimeError:  # loop already closed (shutdown path)
                return
            if not line:
                return

    threading.Thread(target=pump, name="tcim-serve-stdin", daemon=True).start()

    async def read_line():
        return await lines.get()

    async def write_line(text: str):
        stdout.write(text + "\n")
        stdout.flush()

    return await serve_stream(service, read_line, write_line)


async def serve_tcp(service: Service, host: str = "127.0.0.1", port: int = 0):
    """Start a TCP JSON-lines server; returns the ``asyncio`` server.

    The caller owns the server's lifetime::

        server = await serve_tcp(service, port=7077)
        async with server:
            await server.serve_forever()
    """

    async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        async def read_line():
            try:
                data = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as error:  # the last line
                data = error.partial
            except asyncio.LimitOverrunError:
                await _discard_line(reader)
                raise ValueError(
                    f"longer than {_TCP_LINE_LIMIT} bytes; the line was dropped"
                ) from None
            return data.decode("utf-8") if data else None

        async def write_line(text: str):
            writer.write((text + "\n").encode("utf-8"))
            await writer.drain()

        try:
            await serve_stream(service, read_line, write_line)
        except asyncio.CancelledError:
            # Server shutdown aborted this connection mid-read.  Finish
            # the handler instead of propagating: the task is ending
            # either way, and Python 3.11's streams machinery logs a
            # spurious traceback for handlers left in the cancelled state.
            pass
        finally:
            # close() schedules the transport teardown; awaiting
            # wait_closed() here would raise the same teardown noise.
            writer.close()

    return await asyncio.start_server(client, host, port, limit=_TCP_LINE_LIMIT)


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the stream's bytes through the next newline (or to its end)."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
        except asyncio.IncompleteReadError:
            return
