"""CI smoke gate for the serving tier's fusion window (``repro.serve``).

Two gates, both must hold:

1. **exactness** — a randomized trace of reads (count / support / truss
   / cluster / common-neighbor probes) interleaved with ``apply``
   batches, driven through a fused service (``fuse_window_ms`` set), is
   **bit-identical** to the same trace replayed through an unfused
   service: every response deep-equal, and every session's merged
   engine :class:`EventCounts` equal — fusion must not change what the
   arrays did, only how many host dispatches it took;
2. **throughput** — 16 concurrent clients keeping 8 cache-busting
   ``common_neighbors_many`` probes in flight each, over 8 resident
   sessions, must clear at least ``MIN_SPEEDUP`` (2x) the unfused
   rate for the same probe set.  The win is the window's amortisation:
   one executor job per window, and one ``pair_scores`` call per session
   in it, instead of one executor dispatch and one kernel pass per
   request.  Both services stay open side by side and run ``AB_ROUNDS``
   alternating rounds (the same fresh probe set per round, the order
   flipped every round); the gate is the median of the per-round
   unfused / fused wall-time ratios, so one slow phase of a shared host
   cannot decide it.

Applies in the exactness trace are barriered (all in-flight reads drain
first) so both services observe identical graph generations per read —
a window's atomicity against a concurrent apply is tested in
``tests/test_fusion.py``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_fusion.py

Exit code 0 on success, 1 on any gate violation.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.graph import generators
from repro.serve import open_service

RESULTS_DIR = Path(__file__).parent / "results"

MIN_SPEEDUP = 2.0
NUM_GRAPHS = 8
NUM_VERTICES = 3_000
CLIENTS = 16
DEPTH = 8
ROUNDS = 3
BATCH_PAIRS = 8
FUSE_WINDOW_MS = 5.0
#: Alternating unfused / fused measurement rounds (the gate's sample).
AB_ROUNDS = 7

_GRAPHS = None


def graphs():
    global _GRAPHS
    if _GRAPHS is None:
        _GRAPHS = [
            generators.barabasi_albert(NUM_VERTICES, 6, seed=seed)
            for seed in range(NUM_GRAPHS)
        ]
    return _GRAPHS


# ----------------------------------------------------------------------
# Gate 1: exactness — fused trace == unfused per-request replay
# ----------------------------------------------------------------------
def build_trace(steps: int, seed: int):
    """Reads across every fusible workload, with barriered apply batches."""
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        for index in range(NUM_GRAPHS):
            u = rng.randrange(NUM_VERTICES)
            v = rng.randrange(NUM_VERTICES)
            pairs = [
                (rng.randrange(NUM_VERTICES), rng.randrange(NUM_VERTICES))
                for _ in range(9)
            ]
            trace.extend(
                [
                    ("count", index),
                    ("support", index),
                    ("truss", index),
                    ("cluster", index),
                    ("cn_pair", index, u, v),
                    ("cn_top", index, u, 5),
                    ("cn_many", index, pairs),
                ]
            )
        target = rng.randrange(NUM_GRAPHS)
        edits = [
            ("+", rng.randrange(NUM_VERTICES), rng.randrange(NUM_VERTICES))
            for _ in range(3)
        ] + [("-", rng.randrange(NUM_VERTICES), rng.randrange(NUM_VERTICES))]
        trace.append(("apply", target, edits))
    return trace


async def run_trace(service, trace) -> list:
    out = []
    tasks = []
    for op in trace:
        index = op[1]
        graph = graphs()[index]
        if op[0] == "count":
            tasks.append(service.count(graph))
        elif op[0] == "support":
            tasks.append(service.support(graph))
        elif op[0] == "truss":
            tasks.append(service.truss(graph, k=3))
        elif op[0] == "cluster":
            tasks.append(service.cluster(graph))
        elif op[0] == "cn_pair":
            tasks.append(service.common_neighbors(graph, op[2], op[3]))
        elif op[0] == "cn_top":
            tasks.append(service.common_neighbors(graph, op[2], k=op[3]))
        elif op[0] == "cn_many":
            tasks.append(service.common_neighbors_many(graph, op[2]))
        else:  # barriered apply: drain reads, then mutate
            out.extend(await asyncio.gather(*tasks))
            tasks = []
            report = await service.apply(graph, op[2])
            out.append((report.inserted, report.deleted, report.triangles))
    out.extend(await asyncio.gather(*tasks))
    return out


async def exactness_gate() -> tuple[int, list[str]]:
    trace = build_trace(steps=4, seed=20)
    async with open_service(max_sessions=NUM_GRAPHS) as plain:
        plain_out = await run_trace(plain, trace)
        plain_events = {s.key: s.events for s in plain.report().sessions}
    async with open_service(
        max_sessions=NUM_GRAPHS, fuse_window_ms=FUSE_WINDOW_MS
    ) as fused:
        fused_out = await run_trace(fused, trace)
        report = fused.report()
        fused_events = {s.key: s.events for s in report.sessions}

    failures = 0
    lines = []
    mismatched = [
        pos
        for pos, (a, b) in enumerate(zip(plain_out, fused_out))
        if a != b
    ]
    if len(plain_out) != len(fused_out) or mismatched:
        print(
            f"EXACTNESS: {len(mismatched)} of {len(plain_out)} responses "
            f"differ between fused and unfused serving (first: "
            f"{mismatched[0] if mismatched else 'length'})",
            file=sys.stderr,
        )
        failures += 1
    if plain_events != fused_events:
        wrong = [k for k in plain_events if fused_events.get(k) != plain_events[k]]
        print(f"EVENTS: per-session engine events diverged: {wrong}", file=sys.stderr)
        failures += 1
    if report.fused_batches == 0 or report.fused_reads == 0:
        print(
            f"FUSION NEVER RAN: batches={report.fused_batches} "
            f"reads={report.fused_reads}",
            file=sys.stderr,
        )
        failures += 1
    line = (
        f"exactness: {len(plain_out)} responses bit-identical; "
        f"fused_batches={report.fused_batches} fused_reads={report.fused_reads} "
        f"max_batch={report.max_fused_batch}"
    )
    print(line)
    lines.append(line)
    return failures, lines


# ----------------------------------------------------------------------
# Gate 2: throughput — median round ratio fused / unfused >= 2x, 16 clients
# ----------------------------------------------------------------------
def probe_work(seed: int):
    rng = np.random.default_rng(seed)
    return [
        [
            [
                [
                    tuple(map(int, pair))
                    for pair in rng.integers(0, NUM_VERTICES, (BATCH_PAIRS, 2))
                ]
                for _ in range(DEPTH)
            ]
            for _ in range(ROUNDS)
        ]
        for _ in range(CLIENTS)
    ]


async def drive_probes(service, work) -> float:
    async def client(index: int) -> None:
        for step, probes in enumerate(work[index]):
            await asyncio.gather(
                *(
                    service.common_neighbors_many(
                        graphs()[(index + step + slot) % NUM_GRAPHS], pairs
                    )
                    for slot, pairs in enumerate(probes)
                )
            )

    start = time.perf_counter()
    await asyncio.gather(*(client(index) for index in range(CLIENTS)))
    return time.perf_counter() - start


async def throughput_gate() -> tuple[int, list[str]]:
    probes = CLIENTS * ROUNDS * DEPTH
    lines = []
    ratios = []
    async with open_service(max_sessions=NUM_GRAPHS) as unfused, open_service(
        max_sessions=NUM_GRAPHS, fuse_window_ms=FUSE_WINDOW_MS
    ) as fused:
        # Residency outside timing: the count plan and the symmetric
        # structure the probes join against.
        for service in (unfused, fused):
            for graph in graphs():
                await service.count(graph)
                await service.common_neighbors(graph, 0, 1)
        for round_index in range(AB_ROUNDS):
            work = probe_work(seed=77 + round_index)
            order = (unfused, fused) if round_index % 2 == 0 else (fused, unfused)
            seconds = {}
            for service in order:
                seconds[service] = await drive_probes(service, work)
            ratio = seconds[unfused] / seconds[fused]
            ratios.append(ratio)
            lines.append(
                f"round {round_index}: unfused "
                f"{probes / seconds[unfused]:,.0f} q/s, fused "
                f"{probes / seconds[fused]:,.0f} q/s, ratio {ratio:.2f}x"
            )
        fused_report = fused.report()
    speedup = statistics.median(ratios)
    lines.append(
        f"throughput: {probes} probes per round, {CLIENTS} clients x depth "
        f"{DEPTH} over {NUM_GRAPHS} sessions, {AB_ROUNDS} alternating rounds: "
        f"median ratio {speedup:.2f}x (threshold {MIN_SPEEDUP}x; "
        f"{fused_report.fused_batches} windows, largest "
        f"{fused_report.max_fused_batch})"
    )
    print("\n".join(lines))
    failures = 0
    if fused_report.max_fused_batch < 2:
        print("FUSION GATE: no multi-request window ever formed", file=sys.stderr)
        failures += 1
    if speedup < MIN_SPEEDUP:
        print(
            f"THROUGHPUT GATE: median {speedup:.2f}x < {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        failures += 1
    if fused_report.pool.peak_resident < NUM_GRAPHS:
        print(
            f"RESIDENCY GATE: peak {fused_report.pool.peak_resident} < "
            f"{NUM_GRAPHS} resident sessions",
            file=sys.stderr,
        )
        failures += 1
    return failures, lines


def main(argv: list[str]) -> int:
    failures = 0
    lines = []
    for gate in (exactness_gate, throughput_gate):
        failed, produced = asyncio.run(gate())
        failures += failed
        lines.extend(produced)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "smoke_fusion.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if failures:
        print(f"FAILED: {failures} gate violation(s)", file=sys.stderr)
        return 1
    print("fusion smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
