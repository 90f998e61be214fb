"""Tests for the serving tier's probe batching and admission control.

Covers the batching stack layer by layer:

* **session calls** — ``parse_pairs``, ``common_neighbors_many`` and
  ``pair_scores``, the calls a probe batch makes, against brute-force
  oracles;
* **service** — concurrent serving bit-identical to serving one request
  at a time on a randomized trace; the probes parked in one event-loop
  tick share one batch, and a lone probe drains alone with no timer; a
  batch is atomic against an ``apply`` from another thread, runs no
  request twice, and fails a malformed request alone; ``close()``
  answers every parked probe and leaves no worker thread behind, and a
  probe whose cold checkout ends after ``close()`` began gets an error;
* **admission** — deterministic ``OverloadedError`` under a full queue,
  FIFO completion in blocking mode, and parameter validation;
* **protocol** — the ``stats`` and ``common_neighbors_many`` ops;
* **pricing** — ``evaluate_fleet(launches=...)`` adds the serial
  dispatch term and stays exactly back-compatible when omitted.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

import numpy as np
import pytest

from repro.api import open_session
from repro.arch.perf import default_pim_model
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.errors import ArchitectureError, GraphError, OverloadedError, ReproError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve import handle_request, open_service

def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def two_graphs():
    return [
        generators.barabasi_albert(150, 4, seed=1),
        generators.barabasi_albert(170, 5, seed=2),
    ]


def neighbor_sets(graph: Graph) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in range(graph.num_vertices)}
    for u, v in map(tuple, graph.edge_array().tolist()):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


# ----------------------------------------------------------------------
# Session calls a probe batch makes
# ----------------------------------------------------------------------
class TestSessionFusionHooks:
    def test_parse_pairs_validates(self, two_graphs):
        session = open_session(two_graphs[0])
        try:
            sources, destinations = session.parse_pairs([(0, 1), (5, 7)])
            np.testing.assert_array_equal(sources, [0, 5])
            np.testing.assert_array_equal(destinations, [1, 7])
            with pytest.raises(GraphError, match="pair 1"):
                session.parse_pairs([(0, 1), (2,)])
            with pytest.raises(GraphError, match="out of range"):
                session.parse_pairs([(0, 10_000)])
        finally:
            session.close()

    def test_common_neighbors_many_matches_oracle(self, two_graphs):
        graph = two_graphs[1]
        session = open_session(graph)
        try:
            adjacency = neighbor_sets(graph)
            rng = random.Random(5)
            pairs = [
                (rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices))
                for _ in range(23)
            ]
            scores = session.common_neighbors_many(pairs)
            expected = [len(adjacency[u] & adjacency[v]) for u, v in pairs]
            assert scores == expected
            assert session.common_neighbors_many([]) == []
        finally:
            session.close()

    def test_pair_scores_matches_many_and_oracle(self, two_graphs):
        graph = two_graphs[1]
        session = open_session(graph)
        try:
            adjacency = neighbor_sets(graph)
            rng = np.random.default_rng(9)
            sources = rng.integers(0, graph.num_vertices, 31)
            destinations = rng.integers(0, graph.num_vertices, 31)
            scores = session.pair_scores(sources, destinations)
            assert scores.dtype == np.int64
            pairs = list(zip(sources.tolist(), destinations.tolist()))
            assert scores.tolist() == session.common_neighbors_many(pairs)
            assert scores.tolist() == [
                len(adjacency[u] & adjacency[v]) for u, v in pairs
            ]
            assert session.pair_scores([], []).tolist() == []
        finally:
            session.close()

    def test_pair_scores_rejects_bad_input(self, two_graphs):
        session = open_session(two_graphs[0])  # 150 vertices
        try:
            # The first out-of-range vertex in probe order is named.
            with pytest.raises(GraphError, match="vertex 400 out of range"):
                session.pair_scores([0, 500], [400, 1])
            with pytest.raises(GraphError, match="vertex -1 out of range"):
                session.pair_scores([3, -1], [0, 2])
            with pytest.raises(GraphError, match="shapes"):
                session.pair_scores([0, 1], [2])
            with pytest.raises(GraphError, match="shapes"):
                session.pair_scores([[0, 1]], [[2, 3]])
        finally:
            session.close()


# ----------------------------------------------------------------------
# Service: batched serving differential, atomic batches, clean close
# ----------------------------------------------------------------------
class TestServiceFusion:
    def test_fused_serving_bit_identical(self, two_graphs):
        rng = random.Random(11)
        trace = []
        for _ in range(3):
            for index, graph in enumerate(two_graphs):
                n = graph.num_vertices
                pairs = [
                    (rng.randrange(n), rng.randrange(n)) for _ in range(7)
                ]
                trace.extend(
                    [
                        ("count", index),
                        ("support", index),
                        ("truss", index),
                        ("cluster", index),
                        ("cn_pair", index, rng.randrange(n), rng.randrange(n)),
                        ("cn_top", index, rng.randrange(n), 4),
                        ("cn_many", index, pairs),
                    ]
                )
            target = rng.randrange(len(two_graphs))
            n = two_graphs[target].num_vertices
            trace.append(
                ("apply", target, [("+", rng.randrange(n), rng.randrange(n))])
            )

        async def drive(service, concurrent):
            # Applies are barriered, so both drives read the same
            # generations; one at a time, every probe drains alone.
            out, tasks = [], []
            for op in trace:
                graph = two_graphs[op[1]]
                if op[0] == "count":
                    call = service.count(graph)
                elif op[0] == "support":
                    call = service.support(graph)
                elif op[0] == "truss":
                    call = service.truss(graph, k=3)
                elif op[0] == "cluster":
                    call = service.cluster(graph)
                elif op[0] == "cn_pair":
                    call = service.common_neighbors(graph, op[2], op[3])
                elif op[0] == "cn_top":
                    call = service.common_neighbors(graph, op[2], k=op[3])
                elif op[0] == "cn_many":
                    call = service.common_neighbors_many(graph, op[2])
                else:
                    out.extend(await asyncio.gather(*tasks))
                    tasks = []
                    report = await service.apply(graph, op[2])
                    out.append((report.inserted, report.deleted))
                    continue
                if concurrent:
                    tasks.append(call)
                else:
                    out.append(await call)
            out.extend(await asyncio.gather(*tasks))
            return out

        async def main():
            async with open_service(max_sessions=4) as serial:
                serial_out = await drive(serial, concurrent=False)
                serial_report = serial.report()
                serial_events = {s.key: s.events for s in serial_report.sessions}
            async with open_service(max_sessions=4) as burst:
                burst_out = await drive(burst, concurrent=True)
                report = burst.report()
                burst_events = {s.key: s.events for s in report.sessions}
            assert burst_out == serial_out
            assert burst_events == serial_events
            assert serial_report.max_fused_batch == 1
            assert report.fused_reads == serial_report.fused_reads > 0
            assert report.max_fused_batch >= 2
            assert report.fused_batches < serial_report.fused_batches
            assert report.kernel_launches > 0

        run(main())

    def test_probes_parked_in_one_tick_share_one_batch(self, two_graphs):
        rng = random.Random(4)

        async def main():
            async with open_service(max_sessions=2) as service:
                for graph in two_graphs:
                    await service.count(graph)  # resident: probes check out inline
                burst = []
                for index in range(24):
                    graph = two_graphs[index % 2]
                    u, v = rng.randrange(150), rng.randrange(150)
                    if index % 3 == 0:
                        burst.append(service.common_neighbors(graph, u, v))
                    elif index % 3 == 1:
                        burst.append(service.common_neighbors(graph, u, k=3))
                    else:
                        burst.append(
                            service.common_neighbors_many(graph, [(u, v), (v, u)])
                        )
                replies = await asyncio.gather(*burst)
                return replies, service.report()

        replies, report = run(main())
        assert len(replies) == 24
        assert report.fused_batches == 1
        assert report.fused_reads == report.max_fused_batch == 24

    def test_lone_probe_drains_alone_without_a_timer(self, two_graphs):
        graph = two_graphs[0]

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(graph)
                loop = asyncio.get_running_loop()
                timers = []
                real_call_at = loop.call_at

                def recording_call_at(*args, **kwargs):
                    timers.append(args)
                    return real_call_at(*args, **kwargs)

                loop.call_at = recording_call_at  # call_later goes through it
                try:
                    replies = [
                        await service.common_neighbors(graph, 0, 1),
                        await service.common_neighbors_many(graph, [(0, 1)]),
                    ]
                finally:
                    del loop.call_at
                return replies, timers, service.report()

        replies, timers, report = run(main())
        oracle = open_session(graph)
        try:
            score = oracle.common_neighbors(0, 1)
        finally:
            oracle.close()
        assert replies == [
            {"u": 0, "v": 1, "score": score},
            {"pairs": 1, "scores": [score]},
        ]
        assert timers == []
        assert report.fused_batches == 2 and report.max_fused_batch == 1

    def test_window_is_atomic_under_concurrent_apply(self, two_graphs):
        """An apply from another thread while a window holds a session's
        probes waits for the whole window: every reply is the pre-apply
        oracle's, later replies the post-apply one's, and no request
        runs twice."""
        graph = two_graphs[0]
        u, v = 0, 1
        before = neighbor_sets(graph)
        ops = [("+", u, w) for w in sorted(before[v] - before[u] - {u})]
        assert ops  # the apply moves score(u, v) and u's top-k
        after = {key: set(values) for key, values in before.items()}
        for _, a, b in ops:
            after[a].add(b)
            after[b].add(a)
        rng = random.Random(3)
        batches = [
            [(u, v)] + [(rng.randrange(150), rng.randrange(150)) for _ in range(5)]
            for _ in range(4)
        ]
        oracle = open_session(graph)
        top_before = oracle.common_neighbors(u, k=3)
        oracle.apply(ops)
        top_after = oracle.common_neighbors(u, k=3)
        oracle.close()
        assert top_before != top_after
        calls = {"pairs": [], "work": 0, "applied_inside": []}
        applied = threading.Event()
        applier = []

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(graph)
                (entry,) = service.pool.entries()
                session = entry.session
                real_scores = session.pair_scores
                real_work = service._common_neighbors_work

                def apply_from_thread() -> None:
                    session.apply(ops)
                    applied.set()

                def scores_then_apply(sources, destinations):
                    # Called under the session lock: the thread's apply
                    # blocks on it until the window lets go.
                    calls["pairs"].append(len(sources))
                    if len(calls["pairs"]) == 1:
                        applier.append(threading.Thread(target=apply_from_thread))
                        applier[0].start()
                        applied.wait(0.1)
                    result = real_scores(sources, destinations)
                    calls["applied_inside"].append(applied.is_set())
                    return result

                def counted_work(*args, **kwargs):
                    calls["work"] += 1
                    return real_work(*args, **kwargs)

                session.pair_scores = scores_then_apply
                service._common_neighbors_work = counted_work
                burst = await asyncio.gather(
                    service.common_neighbors(graph, u, v),
                    service.common_neighbors(graph, u, k=3),
                    *(service.common_neighbors_many(graph, b) for b in batches),
                )
                applier[0].join(5.0)
                assert applied.is_set() and not applier[0].is_alive()
                later = await asyncio.gather(
                    service.common_neighbors(graph, u, v),
                    service.common_neighbors(graph, u, k=3),
                    *(service.common_neighbors_many(graph, b) for b in batches),
                )
                return burst, later, service.report()

        burst, later, report = run(main())

        def expected(adjacency, top):
            score = lambda a, b: len(adjacency[a] & adjacency[b])  # noqa: E731
            return [
                {"u": u, "v": v, "score": score(u, v)},
                {"u": u, "candidates": [list(pair) for pair in top], "k": 3},
                *(
                    {"pairs": len(b), "scores": [score(a, c) for a, c in b]}
                    for b in batches
                ),
            ]

        assert burst == expected(before, top_before)
        assert later == expected(after, top_after)
        # One scoring call per window, each probe scored once; the top-k
        # probe ran its own work once per window; the apply waited.
        assert calls["pairs"] == [1 + 6 * len(batches)] * 2
        assert calls["work"] == 2
        assert calls["applied_inside"] == [False, True]
        assert report.fused_batches == 2
        assert report.max_fused_batch == 2 + len(batches)

    def test_malformed_probe_fails_alone(self, two_graphs):
        graph = two_graphs[0]

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(graph)
                replies = await asyncio.gather(
                    service.common_neighbors_many(graph, [(0, 1), (2, 3)]),
                    service.common_neighbors_many(graph, [(0, 10_000)]),
                    service.common_neighbors_many(graph, []),
                    service.common_neighbors(graph, 0, 1),
                    service.common_neighbors(graph, 0, k=2),
                    return_exceptions=True,
                )
                return replies, service.report()

        (good, bad, empty, pair, top), report = run(main())
        oracle = open_session(graph)
        try:
            assert good == {
                "pairs": 2,
                "scores": oracle.common_neighbors_many([(0, 1), (2, 3)]),
            }
            assert pair == {"u": 0, "v": 1, "score": oracle.common_neighbors(0, 1)}
            assert top == {
                "u": 0,
                "candidates": [list(c) for c in oracle.common_neighbors(0, k=2)],
                "k": 2,
            }
        finally:
            oracle.close()
        assert isinstance(bad, GraphError) and "out of range" in str(bad)
        assert empty == {"pairs": 0, "scores": []}
        assert report.fused_batches == 1 and report.max_fused_batch == 5

    def test_pair_probe_with_top_k_is_rejected(self, two_graphs, tmp_path):
        """``v`` and ``k`` together raise ``GraphError`` as
        ``TCIMSession.common_neighbors`` does, before any checkout or
        parking, and the protocol op gets an error reply."""
        from repro.graph.io import write_edge_list

        path = str(tmp_path / "g.txt")
        write_edge_list(two_graphs[0], path)

        async def main():
            async with open_service(max_sessions=2) as service:
                await service.count(path)
                hits = service.pool.stats.hits
                with pytest.raises(GraphError, match="not both"):
                    await service.common_neighbors(path, 0, 1, k=2)
                assert service.pool.stats.hits == hits
                reply = await handle_request(
                    service,
                    {"id": 1, "op": "common_neighbors", "graph": path,
                     "u": 0, "v": 1, "k": 2},
                )
                assert not reply["ok"] and "not both" in reply["error"]
                assert service.stats()["fused_reads"] == 0

        run(main())

    def test_close_leaves_nothing_running(self, two_graphs):
        """``close()`` during a probe burst answers every parked probe,
        then leaves no worker thread and nothing pending."""
        graph = two_graphs[0]
        earlier = set(threading.enumerate())

        def serving_threads():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("tcim-serve") and thread not in earlier
            ]

        async def main():
            service = open_service(max_sessions=2)
            await service.count(graph)  # resident: probes check out inline
            burst = asyncio.gather(
                *(
                    service.common_neighbors_many(graph, [(i, i + 1)])
                    for i in range(12)
                ),
                service.common_neighbors(graph, 0, k=2),
            )
            await asyncio.sleep(0)  # every probe is parked, none drained
            assert service.stats()["pending_fusion"] == 13
            assert serving_threads()
            await service.close()
            replies = await burst
            assert len(replies) == 13
            assert serving_threads() == []
            stats = service.stats()
            assert stats["pending_fusion"] == 0
            assert stats["fused_reads"] == stats["max_fused_batch"] == 13

        run(main())

    def test_probe_checked_out_after_close_began_gets_an_error(self, two_graphs):
        """A probe whose cold checkout finishes after ``close()`` shut the
        worker pool gets ``ReproError`` from its drain, not a hang."""
        graph = two_graphs[0]

        async def main():
            service = open_service(max_sessions=2)
            checkout = threading.Event()
            real_acquire = service.pool.acquire

            def held_acquire(*args, **kwargs):
                checkout.wait(5.0)
                return real_acquire(*args, **kwargs)

            service.pool.acquire = held_acquire
            probe = asyncio.ensure_future(service.common_neighbors(graph, 0, 1))
            await asyncio.sleep(0.01)  # the probe's checkout is in a worker
            closing = asyncio.ensure_future(service.close())
            deadline = time.monotonic() + 5.0
            while True:  # until the worker pool refuses new work
                try:
                    service._executor.submit(int)
                except RuntimeError:
                    break
                assert time.monotonic() < deadline, "close() never shut the pool"
                await asyncio.sleep(0.001)
            checkout.set()
            with pytest.raises(ReproError, match="closed"):
                await asyncio.wait_for(probe, timeout=5.0)
            await asyncio.wait_for(closing, timeout=5.0)
            assert service.stats()["pending_fusion"] == 0

        run(main())


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_rejects_deterministically(self, two_graphs):
        graph = two_graphs[0]

        async def main():
            async with open_service(
                max_sessions=2, max_queue=1, max_workers=1
            ) as service:
                await service.count(graph)  # residency outside the jam
                gate = threading.Event()
                # Jam the lone worker so the first read holds its
                # admission slot for as long as the gate is closed.
                service._executor.submit(gate.wait)
                first = asyncio.ensure_future(service.support(graph))
                await asyncio.sleep(0.01)  # first is admitted and parked
                errors = await asyncio.gather(
                    *(service.count(graph) for _ in range(4)),
                    return_exceptions=True,
                )
                gate.set()
                result = await first
                report = service.report()
                return errors, result, report

        errors, result, report = run(main())
        assert all(isinstance(e, OverloadedError) for e in errors)
        assert "max_queue=1" in str(errors[0])
        assert isinstance(result, dict)
        assert report.shed == 4

    def test_blocking_mode_serves_all_in_fifo_order(self, two_graphs):
        graph = two_graphs[0]

        async def main():
            async with open_service(
                max_sessions=2, max_queue=1, admission="block", max_workers=1
            ) as service:
                base = await service.count(graph)
                gate = threading.Event()
                service._executor.submit(gate.wait)
                order = []
                starts = []

                async def tracked(tag):
                    starts.append(tag)
                    value = await service.support(graph)
                    order.append(tag)
                    return value

                futures = [
                    asyncio.ensure_future(tracked(tag)) for tag in range(4)
                ]
                await asyncio.sleep(0.01)
                assert service.stats()["waiting"] == 3
                gate.set()
                results = await asyncio.gather(*futures)
                report = service.report()
                return base, starts, order, results, report

        base, starts, order, results, report = run(main())
        assert order == starts  # FIFO slot transfer
        assert all(isinstance(r, dict) for r in results)
        assert report.shed == 0

    def test_admission_applies_to_writes(self, two_graphs):
        graph = two_graphs[0]

        async def main():
            async with open_service(
                max_sessions=2, max_queue=1, max_workers=1
            ) as service:
                await service.count(graph)
                gate = threading.Event()
                service._executor.submit(gate.wait)
                read = asyncio.ensure_future(service.support(graph))
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadedError):
                    await service.apply(graph, [("+", 0, 1)])
                gate.set()
                await read

        run(main())

    def test_parameter_validation(self):
        with pytest.raises(ReproError, match="max_queue"):
            open_service(max_queue=0)
        with pytest.raises(ReproError, match="admission"):
            open_service(admission="drop")
        # Probes batch per event-loop tick; there is no window to set.
        with pytest.raises(TypeError, match="fuse_window_ms"):
            open_service(fuse_window_ms=5)


# ----------------------------------------------------------------------
# Protocol: stats + common_neighbors_many ops
# ----------------------------------------------------------------------
class TestProtocolOps:
    def test_stats_op_reports_scheduler_state(self, two_graphs, tmp_path):
        async def main():
            async with open_service(max_sessions=2) as service:
                response = await handle_request(service, {"id": 1, "op": "stats"})
                assert response["ok"]
                result = response["result"]
                assert "fuse_window_ms" not in result
                for field in (
                    "queue_depth",
                    "shed",
                    "fused_batches",
                    "fused_reads",
                    "kernel_launches",
                ):
                    assert field in result
                unknown = await handle_request(service, {"id": 2, "op": "nope"})
                assert not unknown["ok"] and "stats" in unknown["error"]

        run(main())

    def test_common_neighbors_many_op(self, two_graphs, tmp_path):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(two_graphs[0], str(path))

        async def main():
            async with open_service(max_sessions=2) as service:
                response = await handle_request(
                    service,
                    {
                        "id": 1,
                        "op": "common_neighbors_many",
                        "graph": str(path),
                        "pairs": [[0, 1], [2, 3]],
                    },
                )
                assert response["ok"]
                assert response["result"]["pairs"] == 2
                assert len(response["result"]["scores"]) == 2
                bad = await handle_request(
                    service,
                    {
                        "id": 2,
                        "op": "common_neighbors_many",
                        "graph": str(path),
                        "pairs": "0,1",
                    },
                )
                assert not bad["ok"] and "pairs" in bad["error"]

        run(main())


# ----------------------------------------------------------------------
# Pricing: the kernel-launch term
# ----------------------------------------------------------------------
class TestLaunchPricing:
    @pytest.fixture
    def fleet_events(self, two_graphs):
        return [
            TCIMAccelerator(AcceleratorConfig()).run(graph).events
            for graph in two_graphs
        ]

    def test_omitting_launches_is_back_compatible(self, fleet_events):
        model = default_pim_model()
        plain = model.evaluate_fleet(fleet_events)
        explicit = model.evaluate_fleet(fleet_events, launches=None)
        zero = model.evaluate_fleet(fleet_events, launches=0)
        assert plain.latency_s == explicit.latency_s == zero.latency_s
        assert "launch" not in plain.latency_breakdown_s
        assert plain.system_energy_j == zero.system_energy_j

    def test_launches_add_serial_dispatch_term(self, fleet_events):
        model = default_pim_model()
        base = model.evaluate_fleet(fleet_events)
        priced = model.evaluate_fleet(fleet_events, launches=100)
        launch_time = 100 * model.timing.kernel_launch_s
        assert priced.latency_s == pytest.approx(base.latency_s + launch_time)
        assert priced.latency_breakdown_s["launch"] == pytest.approx(launch_time)
        # The array critical path is unchanged — launches are host work.
        assert priced.latency_breakdown_s["critical_path"] == pytest.approx(
            base.latency_breakdown_s["critical_path"]
        )
        assert priced.system_energy_j > base.system_energy_j

    def test_negative_launches_rejected(self, fleet_events):
        model = default_pim_model()
        with pytest.raises(ArchitectureError, match="launches"):
            model.evaluate_fleet(fleet_events, launches=-1)
