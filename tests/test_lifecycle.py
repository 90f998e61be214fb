"""The lifecycle rule of a session's derived state.

An ``apply()`` call keeps the count plan, the event totals, the windows,
the edge list and the workload cache only if a reader used them since
the previous call, and drops the rest for a lazy rebuild from the
symmetric structure.  These tests count plan compiles, plan patches,
popcount sweeps and edge-list splices around reads after unread and read
calls, check that the session holds one edge list (the ``support()`` /
``truss()`` maps share its arrays), and inject a failing edge-list
splice at commit time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import open_session
from repro.core import engine
from repro.core import plan as joinplan
from repro.errors import ArchitectureError
from repro.graph import Graph, generators


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``build_join_plan``, ``patch_join_plan``,
    ``merge_oriented_edges`` and popcount-sweep calls, by function name."""
    modules = {
        "build_join_plan": joinplan,
        "patch_join_plan": joinplan,
        "merge_oriented_edges": joinplan,
        "pair_popcount": engine,
        "pair_popcounts": engine,
    }
    calls = dict.fromkeys(modules, 0)
    for name, module in modules.items():
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def _calls(graph, count: int, seed: int, size: int = 20):
    """``count`` calls of ``size`` ops each, alternating a delete of a
    present edge with an insert of an absent one."""
    rng = np.random.default_rng(seed)
    present = sorted(map(tuple, graph.edge_array().tolist()))
    members = set(present)
    ops = []
    while len(ops) < count * size:
        if len(ops) % 2 == 0:
            edge = present.pop(int(rng.integers(len(present))))
            members.discard(edge)
            ops.append(("-", *edge))
        else:
            edge = tuple(sorted(rng.integers(graph.num_vertices, size=2).tolist()))
            if edge[0] == edge[1] or edge in members:
                continue
            members.add(edge)
            ops.append(("+", *edge))
    return [ops[start: start + size] for start in range(0, len(ops), size)]


class TestRule:
    GRAPH = generators.barabasi_albert(1_500, 4, seed=3)

    def _fresh_simulate(self, session):
        with open_session(session.graph) as fresh:
            return fresh.simulate().to_mapping()

    def test_two_unread_calls_drop_the_plan(self, counted):
        session = open_session(self.GRAPH)
        session.simulate()
        for ops in _calls(self.GRAPH, 2, seed=1):
            session.apply(ops)
        assert session._residency.windows is None and session._residency.plan is None
        assert session._residency.edges is None and not session._residency.pending
        assert session.resident_bytes_detail()["plan"] == 0
        counted.update(dict.fromkeys(counted, 0))
        report = session.simulate().to_mapping()
        assert counted["build_join_plan"] == 1
        assert counted["patch_join_plan"] == 0
        assert report == self._fresh_simulate(session)

    def test_one_unread_call_patches(self, counted):
        session = open_session(self.GRAPH)
        session.simulate()
        session.apply(_calls(self.GRAPH, 1, seed=2)[0])
        counted.update(dict.fromkeys(counted, 0))
        report = session.simulate().to_mapping()
        assert counted["build_join_plan"] == 0
        assert counted["patch_join_plan"] == 1
        assert report == self._fresh_simulate(session)

    def _reads_after_writes(self, session, counted, rounds: int) -> list[dict]:
        """The plan and sweep calls of each ``simulate()`` after one
        apply, every report equal to a fresh session's field by field
        (row region, column cache and slice statistics included)."""
        per_read = []
        for ops in _calls(self.GRAPH, rounds, seed=3):
            session.apply(ops)
            counted.update(dict.fromkeys(counted, 0))
            report = session.simulate()
            per_read.append(dict(counted))
            with open_session(session.graph) as fresh:
                want = fresh.simulate()
            assert report.result == want.result
            assert report.perf == want.perf
            assert session.slice_stats() == fresh.slice_stats()
        assert not any(session.fallback_counts.values())
        return per_read

    def _patches_once(self, session, counted) -> None:
        """After a first ``simulate()``: the first read after a write
        builds the event totals from the plan, patched once and never
        compiled; every later read prices from the totals its apply
        moved, with no plan work and no popcount sweep at all."""
        first, *later = self._reads_after_writes(session, counted, 4)
        assert first["patch_join_plan"] == 1
        assert first["build_join_plan"] == 0
        for calls in [first, *later]:
            assert calls["pair_popcount"] == calls["pair_popcounts"] == 0
        for calls in later:
            assert calls["patch_join_plan"] == calls["build_join_plan"] == 0
        # No plan reader folded the later batches: the plan went.
        assert session._residency.plan is None
        assert session._residency.totals is not None

    def test_read_after_write_patches_once(self, counted):
        session = open_session(self.GRAPH)
        session.simulate()
        self._patches_once(session, counted)

    def test_hydrated_reads_after_writes_patch_nothing(self, counted, tmp_path):
        # The analytics shape: a warm snapshot, one priced read, then
        # small applies, each followed by a read.  The snapshot recorded
        # the writer's count, so the first read prices from event totals
        # built from the hydrated plan without a sweep, and every read
        # after a write prices from the totals its apply moved.
        with open_session(self.GRAPH) as writer:
            writer.snapshot(tmp_path / "snap")
            swept = writer.simulate().result
        session = open_session(snapshot=tmp_path / "snap")
        counted.update(dict.fromkeys(counted, 0))
        assert session.simulate().result == swept
        assert counted["pair_popcount"] == counted["pair_popcounts"] == 0
        assert counted["patch_join_plan"] == counted["build_join_plan"] == 0
        for calls in self._reads_after_writes(session, counted, 4):
            assert calls["patch_join_plan"] == calls["build_join_plan"] == 0
            assert calls["pair_popcount"] == calls["pair_popcounts"] == 0
        assert session._residency.plan is None
        assert session._residency.totals is not None

    def test_snapshot_too_small_to_price_records_no_count(self, tmp_path):
        # A graph the array cannot price still snapshots, as before: the
        # count is left for the hydrated session, which raises the same
        # capacity error when it counts.
        n = 8194
        graph = Graph(n, [(0, i) for i in range(1, n)])
        with open_session(graph, array_bytes=800) as writer:
            writer.snapshot(tmp_path / "snap")
        session = open_session(snapshot=tmp_path / "snap")
        assert session.has_edge(0, n - 1)
        with pytest.raises(ArchitectureError, match="row region"):
            session.count()

    def test_unread_totals_go(self):
        session = open_session(self.GRAPH)
        session.simulate()
        calls = _calls(self.GRAPH, 3, seed=10)
        session.apply(calls[0])
        session.simulate()
        session.apply(calls[1])
        assert session._residency.totals is not None
        session.apply(calls[2])
        assert session._residency.totals is None
        assert session._residency.windows is None and session._residency.edges is None
        assert session.simulate().result == self._fresh_result(session)

    @staticmethod
    def _fresh_result(session):
        with open_session(session.graph) as fresh:
            return fresh.simulate().result

    def test_workload_reader_keeps_its_cache_and_drops_the_plan(self, counted):
        session = open_session(self.GRAPH)
        session.support()
        calls = _calls(self.GRAPH, 3, seed=4)
        for index, ops in enumerate(calls):
            session.apply(ops)
            # Every call patched the reader's triangle list...
            assert "triangles" in session._residency.workloads
            # ...while the plan, which no read folded, went at the second.
            assert (session._residency.plan is not None) == (index == 0)
            session.support()
            session.clustering()
            session.truss()
        assert counted["build_join_plan"] == 1  # the first support()
        with open_session(session.graph) as fresh:
            assert session.support() == fresh.support()
            assert session.truss() == fresh.truss()
            assert session.clustering().to_mapping() == fresh.clustering().to_mapping()
        assert not any(session.fallback_counts.values())

    def test_unread_workload_cache_goes_with_the_edge_list(self):
        session = open_session(self.GRAPH)
        session.support()
        calls = _calls(self.GRAPH, 2, seed=5)
        session.apply(calls[0])
        assert session._residency.workloads and session._residency.edges is not None
        session.apply(calls[1])
        assert not session._residency.workloads and session._residency.edges is None

    def test_fallbacks_are_the_patch_failures_and_the_sweep(self):
        session = open_session(self.GRAPH)
        assert set(session.fallback_counts) == {
            "flush_patch_error", "truss_repeel", "workload_patch_error", "full_sweep",
        }
        assert not hasattr(session, "_pending_edges")


class TestOneEdgeList:
    GRAPH = generators.powerlaw_cluster(8_000, 8, 0.5, seed=1)

    def test_maps_share_the_session_edge_list(self, counted):
        session = open_session(self.GRAPH)
        session.support()
        update = session.apply(_calls(self.GRAPH, 1, seed=6, size=8)[0])
        assert counted["merge_oriented_edges"] == update.segments == 2
        session.simulate()
        support = session.support()
        trussness = session.truss()
        sources, destinations = session._residency.edges
        for edge_map in (support, trussness):
            assert np.shares_memory(edge_map.sources, sources)
            assert np.shares_memory(edge_map.destinations, destinations)
        assert "forward" not in session._residency.workloads
        detail = session.resident_bytes_detail()
        # The edge list's keys, spliced with it, count beside it.
        keys = session._residency.keys
        n = session.num_vertices
        assert np.array_equal(keys, sources * n + destinations)
        for edge_map in (support, trussness):
            assert edge_map._keys is keys
        assert detail["edges"] == sources.nbytes + destinations.nbytes + keys.nbytes
        cache = session._residency.workloads
        assert detail["workloads"] == (
            cache["triangles"].nbytes
            + support.per_edge.nbytes
            + trussness.per_edge.nbytes
        )

    def test_every_committed_batch_splices_once(self, counted):
        session = open_session(self.GRAPH)
        session.simulate()
        session.support()
        segments = 0
        for ops in _calls(self.GRAPH, 3, seed=7, size=8):
            segments += session.apply(ops).segments
            session.simulate()
            session.support()
        record = session.apply(_calls(session.graph, 1, seed=8, size=4)[0], record=True)
        assert counted["merge_oriented_edges"] == segments + record.segments


class TestCommitSpliceFailure:
    def test_drops_all_derived_state_and_stays_exact(self, monkeypatch):
        graph = generators.powerlaw_cluster(400, 4, 0.5, seed=2)
        session = open_session(graph)
        session.simulate()
        session.support()
        session.truss()

        def broken(*args, **kwargs):
            raise RuntimeError("injected splice failure")

        monkeypatch.setattr(joinplan, "merge_oriented_edges", broken)
        ops = _calls(graph, 1, seed=9, size=12)[0]
        update = session.apply(ops)
        with open_session(session.graph) as fresh:
            assert update.triangles == session.count() == fresh.count()
            assert session._residency.edges is None and session._residency.plan is None
            assert session._residency.workloads == {}
            assert dict(session.fallback_counts) == {
                "flush_patch_error": 1, "truss_repeel": 0, "workload_patch_error": 0,
                "full_sweep": 0,
            }
            assert session.simulate().to_mapping() == fresh.simulate().to_mapping()
            assert session.support() == fresh.support()
            assert session.truss() == fresh.truss()
