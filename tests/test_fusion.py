"""Tests for cross-session query fusion and admission control.

Covers the fusion stack layer by layer:

* **core** — ``fuse_plans`` offset arithmetic and ``split``;
  ``execute_fused`` bit-identical to lone execution on both the
  physically-stacked and the segment-local gather paths, and its
  compatibility errors;
* **session hooks** — the ``fusion_*_state`` / ``fusion_commit_*``
  snapshot/commit pairs, including generation fencing by a concurrent
  ``apply``, plus ``parse_pairs`` / ``common_neighbors_many``;
* **service** — fused serving bit-identical to per-request serving on a
  randomized trace; a mutation landing mid-sweep fences the fused group
  and the requests transparently re-run;
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

import numpy as np
import pytest

from repro.api import open_session
from repro.arch.perf import default_pim_model
from repro.core import kernels
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import fuse_plans
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


def count_segment(session):
    state, segment, generation = session.fusion_count_state()
    assert state == "segment"
    return segment, generation


def supports_segment(session):
    """Per-edge supports as a fused pair sweep over every directed edge."""
    state, segment, generation = session.fusion_pairs_state(
        *oriented_edges(session.graph, "symmetric")
    )
    assert state == "segment"
    return segment, generation


def neighbor_sets(graph: Graph) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in range(graph.num_vertices)}
    for u, v in map(tuple, graph.edge_array().tolist()):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


# ----------------------------------------------------------------------
# fuse_plans
# ----------------------------------------------------------------------
class TestFusePlans:
    def test_offsets_address_a_virtual_stack(self, two_graphs):
        sessions = [open_session(g) for g in two_graphs]
        try:
            segments = [count_segment(s)[0] for s in sessions]
            fused = fuse_plans([seg.plan for seg in segments])
            assert fused.num_segments == 2
            assert fused.num_pairs == sum(seg.plan.num_pairs for seg in segments)
            first, second = segments
            lo, hi = fused.segment_slice(0).start, fused.segment_slice(0).stop
            assert lo == 0 and hi == first.plan.num_pairs
            np.testing.assert_array_equal(
                fused.row_positions[:hi], first.plan.row_positions
            )
            # Segment 1's positions are shifted by segment 0's payload rows
            # — the offsets a physical np.concatenate induces.
            np.testing.assert_array_equal(
                fused.row_positions[hi:],
                second.plan.row_positions + first.plan.payload_rows,
            )
            np.testing.assert_array_equal(
                fused.col_positions[hi:],
                second.plan.col_positions + first.plan.payload_rows,
            )
            # Both sides index the one symmetric payload.
            assert first.plan.payload_rows == first.data.shape[0]
        finally:
            for session in sessions:
                session.close()

    def test_split_roundtrips_concatenation(self, two_graphs):
        sessions = [open_session(g) for g in two_graphs]
        try:
            plans = [count_segment(s)[0].plan for s in sessions]
            fused = fuse_plans(plans)
            values = np.arange(fused.num_pairs, dtype=np.int64)
            pieces = fused.split(values)
            assert [p.size for p in pieces] == [p.num_pairs for p in plans]
            np.testing.assert_array_equal(np.concatenate(pieces), values)
        finally:
            for session in sessions:
                session.close()

    def test_split_rejects_wrong_length(self, two_graphs):
        session = open_session(two_graphs[0])
        try:
            fused = fuse_plans([count_segment(session)[0].plan])
            with pytest.raises(ArchitectureError, match="per-pair values"):
                fused.split(np.zeros(fused.num_pairs + 3, dtype=np.int64))
        finally:
            session.close()

    def test_fuse_empty_rejected(self):
        with pytest.raises(ArchitectureError, match="at least one"):
            fuse_plans([])


# ----------------------------------------------------------------------
# execute_fused
# ----------------------------------------------------------------------
class TestExecuteFused:
    @pytest.mark.parametrize("force_stacked", [True, False, None])
    def test_fused_counts_bit_identical_to_lone_runs(
        self, two_graphs, force_stacked
    ):
        sessions = [open_session(g) for g in two_graphs]
        try:
            segments = [count_segment(s)[0] for s in sessions]
            lone = [kernels.execute_fused([seg])[0] for seg in segments]
            fused = kernels.execute_fused(segments, force_stacked=force_stacked)
            for session, alone, together in zip(sessions, lone, fused):
                assert together.value == alone.value == session.count()
                assert together.accumulator == alone.accumulator
                assert together.events == alone.events
                assert together.cache_stats == alone.cache_stats
        finally:
            for session in sessions:
                session.close()

    @pytest.mark.parametrize("force_stacked", [True, False])
    def test_fused_supports_bit_identical_to_lone_runs(
        self, two_graphs, force_stacked
    ):
        sessions = [open_session(g) for g in two_graphs]
        try:
            segments = [supports_segment(s)[0] for s in sessions]
            lone = [kernels.execute_fused([seg])[0] for seg in segments]
            fused = kernels.execute_fused(segments, force_stacked=force_stacked)
            for session, seg, alone, together in zip(sessions, segments, lone, fused):
                np.testing.assert_array_equal(together.value, alone.value)
                assert together.accumulator == alone.accumulator
                assert together.events == alone.events
                forward = seg.sources < seg.destinations
                assert together.value[forward].tolist() == list(
                    session.support().values()
                )
        finally:
            for session in sessions:
                session.close()

    @pytest.mark.parametrize("force_stacked", [True, False])
    def test_fused_vertex_tallies_bit_identical(self, two_graphs, force_stacked):
        sessions = [open_session(g) for g in two_graphs]
        try:
            segments = []
            for session, graph in zip(sessions, two_graphs):
                segment = supports_segment(session)[0]
                segment.kernel = kernels.VertexTallyKernel(graph.num_vertices)
                segments.append(segment)
            lone = [kernels.execute_fused([seg])[0] for seg in segments]
            fused = kernels.execute_fused(segments, force_stacked=force_stacked)
            for seg, alone, together in zip(segments, lone, fused):
                np.testing.assert_array_equal(together.value, alone.value)
                np.testing.assert_array_equal(
                    together.value,
                    kernels.vertex_tallies_from_supports(
                        seg.sources,
                        kernels.execute_fused(
                            [
                                kernels.FusedSegment(
                                    **{**seg.__dict__, "kernel": kernels.EdgeSupportKernel()}
                                )
                            ]
                        )[0].value,
                        seg.kernel.num_vertices,
                    ),
                )
        finally:
            for session in sessions:
                session.close()

    def test_mixed_slice_widths_rejected(self, two_graphs):
        narrow = open_session(two_graphs[0], AcceleratorConfig(slice_bits=32))
        wide = open_session(two_graphs[1], AcceleratorConfig(slice_bits=64))
        try:
            segments = [count_segment(narrow)[0], count_segment(wide)[0]]
            with pytest.raises(ArchitectureError, match="slice width"):
                kernels.execute_fused(segments)
        finally:
            narrow.close()
            wide.close()

    def test_plan_payload_mismatch_rejected(self, two_graphs):
        session = open_session(two_graphs[0])
        try:
            segment = count_segment(session)[0]
            segment.data = segment.data[:-1]
            with pytest.raises(ArchitectureError, match="does not match"):
                kernels.execute_fused([segment])
        finally:
            session.close()

    def test_empty_segment_list(self):
        assert kernels.execute_fused([]) == []


# ----------------------------------------------------------------------
# Session hooks: snapshot / commit / fence
# ----------------------------------------------------------------------
class TestSessionFusionHooks:
    def test_count_commit_installs_resident_count(self, two_graphs):
        session = open_session(two_graphs[0])
        try:
            segment, generation = count_segment(session)
            result = kernels.execute_fused([segment])[0]
            committed = session.fusion_commit_count(generation, result.accumulator)
            assert committed == session.count()
            assert session.fusion_count_state()[0] == "cached"
        finally:
            session.close()

    def test_apply_fences_count_commit(self, two_graphs):
        session = open_session(two_graphs[0])
        try:
            segment, generation = count_segment(session)
            result = kernels.execute_fused([segment])[0]
            session.apply([("+", 0, 149)])
            assert session.fusion_commit_count(generation, result.accumulator) is None
            # The fenced sweep left no stale state behind.
            fresh = open_session(session.graph)
            assert session.count() == fresh.count()
            fresh.close()
        finally:
            session.close()

    def test_candidates_state_commit_and_fence(self, two_graphs):
        graph = two_graphs[0]
        session = open_session(graph)
        oracle = open_session(graph)
        try:
            state, candidates, generation = session.fusion_candidates_state(0)
            assert state == "pairs" and candidates.size > 0
            sources = np.full(candidates.size, 0, dtype=np.int64)
            scores = np.asarray(
                oracle.common_neighbors_many(
                    list(zip(sources.tolist(), candidates.tolist()))
                ),
                dtype=np.int64,
            )
            committed = session.fusion_commit_candidates(
                generation, 0, candidates, scores
            )
            assert committed == oracle._candidate_scores(0)
            assert session.fusion_candidates_state(0)[0] == "cached"
            # A mutation fences a commit from the old generation.
            session.apply([("+", 2, 147)])
            assert (
                session.fusion_commit_candidates(generation, 0, candidates, scores)
                is None
            )
        finally:
            session.close()
            oracle.close()

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


# ----------------------------------------------------------------------
# Service: fused serving differential + fencing
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

        async def drive(service):
            out, tasks = [], []
            for op in trace:
                graph = two_graphs[op[1]]
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
                else:
                    out.extend(await asyncio.gather(*tasks))
                    tasks = []
                    report = await service.apply(graph, op[2])
                    out.append((report.inserted, report.deleted))
            out.extend(await asyncio.gather(*tasks))
            return out

        async def main():
            async with open_service(max_sessions=4) as plain:
                plain_out = await drive(plain)
                plain_events = {
                    s.key: s.events for s in plain.report().sessions
                }
            async with open_service(max_sessions=4, fuse_window_ms=2) as fused:
                fused_out = await drive(fused)
                report = fused.report()
                fused_events = {s.key: s.events for s in report.sessions}
            assert fused_out == plain_out
            assert fused_events == plain_events
            assert report.fused_batches > 0
            assert report.fused_reads > 0
            assert report.max_fused_batch >= 2
            assert report.kernel_launches > 0

        run(main())

    def test_apply_mid_sweep_fences_and_rerequests(self, two_graphs, monkeypatch):
        """A mutation landing between snapshot and commit fences the fused
        group; its requests transparently re-run and serve the post-apply
        state."""
        graph = two_graphs[0]
        mutated = threading.Event()
        real_execute_fused = kernels.execute_fused
        holder = {}

        def mutate_mid_sweep(segments, force_stacked=None):
            results = real_execute_fused(segments, force_stacked)
            if not mutated.is_set() and any(
                isinstance(seg.kernel, kernels.CountKernel) for seg in segments
            ):
                mutated.set()
                # Lands after the snapshot, before the commit: the fused
                # group must notice the generation moved and re-run.
                session = next(iter(holder["service"]._pool.entries())).session
                session.apply([("+", 0, 149)])
            return results

        monkeypatch.setattr(kernels, "execute_fused", mutate_mid_sweep)

        async def seeded():
            async with open_service(max_sessions=2, fuse_window_ms=1) as service:
                holder["service"] = service
                # The counts are the session's first reads, so the count
                # sweep actually reaches the fused executor.
                counts = await asyncio.gather(
                    service.count(graph), service.count(graph)
                )
                return counts, service.report()

        counts, report = run(seeded())
        assert mutated.is_set()
        expected = open_session(graph)
        expected.apply([("+", 0, 149)])
        assert counts == [expected.count()] * 2
        assert report.fenced >= 1
        expected.close()


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
        with pytest.raises(ReproError, match="fuse_window_ms"):
            open_service(fuse_window_ms=-1)


# ----------------------------------------------------------------------
# Protocol: stats + common_neighbors_many ops
# ----------------------------------------------------------------------
class TestProtocolOps:
    def test_stats_op_reports_scheduler_state(self, two_graphs, tmp_path):
        async def main():
            async with open_service(max_sessions=2, fuse_window_ms=1) as service:
                response = await handle_request(service, {"id": 1, "op": "stats"})
                assert response["ok"]
                result = response["result"]
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
