"""Tests for the session facade (repro.api).

Covers the tentpole guarantees:

* equivalence — ``TCIMSession.count()/simulate()`` bit-identical to
  direct ``TCIMAccelerator.run`` + ``simulate_sharded`` across configs
  and ``num_arrays``, and to the per-edge reference loop;
* the incremental fast path — randomized op-stream differential against
  the :class:`DynamicTriangleCounter` oracle (op by op, via ``record``)
  and against full recounts, including shard-boundary edges and
  insert-then-delete interleavings;
* resident-state caching, config plumbing, baseline dispatch, and the
  update-report accounting.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import TCIMSession, UpdateReport, open_session, resolve_graph
from repro.arch.pipeline import measured_shard_report, simulate_sharded
from repro.analysis.validation import per_edge_reference
from repro.arch.perf import default_pim_model
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.incremental import canonical_delta_edges, clear_bit, set_bit
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError, GraphError, ReproError
from repro.graph import generators
from repro.graph.graph import Graph
from test_net_apply import _assert_same_structure


def _assert_same_events(left: EventCounts, right: EventCounts) -> None:
    assert dataclasses.asdict(left) == dataclasses.asdict(right)


class TestOpenSession:
    def test_from_graph(self, paper_graph):
        session = open_session(paper_graph)
        assert session.count() == 2

    def test_from_dataset_spec(self):
        session = open_session("dataset:roadnet-pa@0.005")
        assert session.num_vertices > 0

    def test_from_path(self, tmp_path, paper_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(paper_graph, path)
        assert open_session(str(path)).count() == 2

    def test_overrides(self, paper_graph):
        session = open_session(paper_graph, num_arrays=2, shard_by="rows")
        assert session.config.num_arrays == 2
        assert session.config.shard_by == "rows"

    def test_mapping_config(self, paper_graph):
        session = open_session(paper_graph, {"policy": "fifo"})
        assert session.config.policy == "fifo"

    def test_config_object_with_overrides(self, paper_graph):
        base = AcceleratorConfig(num_arrays=2)
        session = open_session(paper_graph, base, shard_by="degree")
        assert session.config.num_arrays == 2
        assert session.config.shard_by == "degree"

    def test_bad_source_type(self):
        with pytest.raises(ReproError, match="graph source"):
            open_session(42)

    def test_resolve_graph_passthrough(self, paper_graph):
        assert resolve_graph(paper_graph) is paper_graph

    def test_invalid_config_rejected_eagerly(self, paper_graph):
        with pytest.raises(ArchitectureError):
            open_session(paper_graph, shard_by="warp-drive")

    def test_context_manager(self, paper_graph):
        with open_session(paper_graph) as session:
            assert session.count() == 2
        # close() drops caches but the session stays usable.
        assert session.count() == 2


class TestEquivalence:
    """count()/simulate() must be bit-identical to the direct entry points."""

    CONFIGS = [
        {},
        {"array_bytes": 4096, "policy": "fifo"},
        {"num_arrays": 2, "shard_by": "edges"},
        {"num_arrays": 4, "shard_by": "rows"},
        {"num_arrays": 4, "shard_by": "degree"},
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_run_equivalence(self, overrides):
        graph = generators.barabasi_albert(300, 5, seed=11)
        config = AcceleratorConfig(**overrides)
        direct = TCIMAccelerator(config).run(graph)
        session_result = open_session(graph, config).run()
        assert session_result.triangles == direct.triangles
        _assert_same_events(session_result.events, direct.events)
        assert session_result.cache_stats == direct.cache_stats
        assert session_result.row_region_slices == direct.row_region_slices
        assert session_result.column_cache_slices == direct.column_cache_slices

    def test_run_matches_per_edge_reference(self):
        graph = generators.barabasi_albert(300, 5, seed=11)
        config = AcceleratorConfig(array_bytes=4096)
        triangles, events, cache_stats = per_edge_reference(graph, config)
        session_result = open_session(graph, config).run()
        assert session_result.triangles == triangles
        _assert_same_events(session_result.events, events)
        assert session_result.cache_stats == cache_stats

    def test_simulate_matches_direct_pricing_single_array(self):
        graph = generators.erdos_renyi(200, 900, seed=3)
        report = open_session(graph).simulate()
        direct = TCIMAccelerator(AcceleratorConfig()).run(graph)
        expected = default_pim_model().evaluate(direct.events)
        assert report.perf.latency_s == expected.latency_s
        assert report.perf.system_energy_j == expected.system_energy_j
        assert report.shard_perf == []

    def test_simulate_matches_simulate_sharded(self):
        graph = generators.barabasi_albert(250, 4, seed=9)
        config = AcceleratorConfig(num_arrays=3, shard_by="degree")
        direct_result, direct_report = simulate_sharded(graph, config)
        report = open_session(graph, config).simulate()
        assert report.triangles == direct_result.triangles
        _assert_same_events(report.events, direct_result.events)
        assert report.perf.latency_s == direct_report.latency_s
        assert len(report.shard_perf) == len(report.shards) == 3
        # The critical path equals the measured shard report.
        rebuilt = measured_shard_report(report.result)
        assert report.perf.latency_s == rebuilt.latency_s

    def test_slice_stats_match(self, paper_graph):
        from repro.core.slicing import slice_statistics

        session = open_session(paper_graph)
        assert session.slice_stats() == slice_statistics(paper_graph)

    def test_repeated_queries_are_cached(self):
        graph = generators.erdos_renyi(100, 300, seed=1)
        session = open_session(graph)
        assert session.run() is session.run()
        assert session.simulate() is session.simulate()
        assert session.slice_stats() is session.slice_stats()

    def test_baseline_dispatch(self, paper_graph):
        session = open_session(paper_graph)
        for name in ("forward", "edge-iterator", "matmul", "sliced", "dense"):
            assert session.baseline(name) == 2

    def test_unknown_baseline(self, paper_graph):
        with pytest.raises(ArchitectureError, match="unknown baseline"):
            open_session(paper_graph).baseline("quantum")


class TestIncremental:
    def test_single_insert_delete(self, paper_graph):
        session = open_session(paper_graph)
        update = session.apply([("+", 0, 3)])
        assert update.delta_triangles == 2
        assert session.count() == 4
        update = session.apply([("-", 0, 3)])
        assert update.delta_triangles == -2
        assert session.count() == 2

    def test_noops_are_free(self, paper_graph):
        session = open_session(paper_graph)
        update = session.apply([("+", 0, 1), ("-", 0, 3), ("+", 2, 2)])
        assert update.delta_triangles == 0
        assert update.inserted == update.deleted == 0
        assert update.segments == 0
        assert session.count() == 2

    def test_insert_then_delete_interleaving(self, paper_graph):
        session = open_session(paper_graph)
        # Order matters: + then - nets to absent, - then + to present.
        update = session.apply([("+", 0, 3), ("-", 0, 3)])
        assert update.delta_triangles == 0
        assert not session.has_edge(0, 3)
        update = session.apply([("-", 1, 2), ("+", 1, 2)])
        assert update.delta_triangles == 0
        assert session.has_edge(1, 2)
        assert session.count() == 2

    def test_apply_edges_order_semantics(self, paper_graph):
        # Matches DynamicTriangleCounter.apply: insertions before
        # deletions, so inserting and deleting {0, 3} nets to absent.
        session = open_session(paper_graph)
        update = session.apply_edges(insertions=[(0, 3)], deletions=[(0, 3)])
        assert update.delta_triangles == 0
        assert not session.has_edge(0, 3)

    def test_word_codes(self, paper_graph):
        session = open_session(paper_graph)
        session.apply([("insert", 0, 3), ("delete", 1, 2)])
        assert session.has_edge(0, 3) and not session.has_edge(1, 2)

    def test_bad_ops_rejected_before_mutation(self, paper_graph):
        session = open_session(paper_graph)
        with pytest.raises(GraphError, match="unknown operation"):
            session.apply([("+", 0, 3), ("?", 1, 2)])
        with pytest.raises(GraphError, match="out of range"):
            session.apply([("+", 0, 99)])
        with pytest.raises(GraphError, match="triple"):
            session.apply([("+", 1)])
        # The failed streams must not have touched the graph.
        assert session.count() == 2
        assert not session.has_edge(0, 3)

    def test_update_report_accounting(self):
        graph = generators.erdos_renyi(120, 400, seed=5)
        session = open_session(graph)
        update = session.apply(
            [("+", 0, 1), ("+", 2, 3), ("+", 4, 5), ("-", 0, 1)]
        )
        assert isinstance(update, UpdateReport)
        assert update.requested == 4
        assert update.events.edges_processed > 0
        assert update.triangles == session.count()

    def test_queries_after_update_see_new_graph(self, paper_graph):
        from repro.core.slicing import slice_statistics

        session = open_session(paper_graph)
        baseline_before = session.baseline("forward")
        session.slice_stats()  # warm the cache that the update must drop
        session.apply([("+", 0, 3)])
        assert session.baseline("forward") == 4 != baseline_before
        # The recomputed stats match a fresh computation on the new graph.
        assert session.slice_stats() == slice_statistics(session.graph)
        assert session.graph.has_edge(0, 3)
        assert session.num_edges == 6

    def test_failed_delete_rolls_back(self):
        # Hub at the last vertex: the upper-oriented bootstrap fits the
        # tiny array, but the symmetric hub row exceeds the per-array
        # capacity.  Vertex 0 loses two edges, so the delete's term 2
        # joins the hub row against D's row 0 and raises mid-batch.  The
        # session must roll the removal back and stay fully consistent.
        n = 8194
        graph = Graph(n, [(i, n - 1) for i in range(n - 1)] + [(0, 1)])
        session = open_session(graph, array_bytes=800)
        before = session.count()
        with pytest.raises(ArchitectureError, match="row region needs 129"):
            session.apply([("-", 0, n - 1), ("-", 0, 1)])
        assert session.has_edge(0, n - 1) and session.has_edge(0, 1)
        assert session.num_edges == graph.num_edges
        assert session.count() == before
        fresh = SlicedMatrix.from_graph(session.graph, "symmetric")
        mutated = session._residency.structure()
        assert np.array_equal(fresh.indptr, mutated.indptr)
        assert np.array_equal(fresh.slice_ids, mutated.slice_ids)
        assert np.array_equal(fresh.data, mutated.data)

    def test_one_edge_delete_at_a_hub_loads_one_row(self):
        # The same hub, one deleted edge: no vertex holds two delta
        # edges, so only term 1 runs, over row 0 alone; the hub row that
        # overflows the array is never loaded.
        n = 8194
        graph = Graph(n, [(i, n - 1) for i in range(n - 1)] + [(0, 1)])
        session = open_session(graph, array_bytes=800)
        assert session.count() == 1
        update = session.apply([("-", 0, n - 1)])
        assert update.delta_triangles == -1
        assert update.events.row_slice_writes == 1
        assert session.count() == 0
        assert not session.has_edge(0, n - 1)
        _assert_same_structure(
            SlicedMatrix.from_graph(session.graph, "symmetric"),
            session._residency.structure(),
        )

    def test_mutated_sym_structure_matches_rebuild(self):
        graph = generators.barabasi_albert(150, 4, seed=2)
        session = open_session(graph)
        rng = np.random.default_rng(0)
        ops = []
        for _ in range(60):
            u, v = int(rng.integers(150)), int(rng.integers(150))
            if u != v:
                ops.append(("+" if rng.random() < 0.6 else "-", u, v))
        session.apply(ops)
        _assert_same_structure(
            SlicedMatrix.from_graph(session.graph, "symmetric"),
            session._residency.structure(),
        )


class TestDifferential:
    """Randomized op-stream differential: session vs oracle vs recount."""

    @pytest.mark.parametrize(
        "num_arrays,shard_by",
        [(1, "edges"), (2, "rows"), (4, "degree")],
    )
    def test_stream_differential(self, num_arrays, shard_by):
        base = generators.barabasi_albert(260, 5, seed=4)
        session = open_session(base, num_arrays=num_arrays, shard_by=shard_by)
        oracle = DynamicTriangleCounter(base.num_vertices, base)
        rng = np.random.default_rng(num_arrays)
        present = set(map(tuple, base.edge_array().tolist()))
        ops = []
        while len(ops) < 150:
            if present and rng.random() < 0.45:
                edge = sorted(present)[int(rng.integers(len(present)))]
                present.discard(edge)
                ops.append(("-", *edge))
            else:
                u, v = int(rng.integers(260)), int(rng.integers(260))
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                present.add(key)
                ops.append(("+", u, v))
        report = session.apply(ops, record=True)
        net, deltas = oracle.apply_ops(ops, record=True)
        # Op-by-op agreement with the oracle, not just the net.
        assert report.per_op_deltas == deltas
        assert report.delta_triangles == net
        assert session.count() == oracle.triangles
        # Full recount from scratch on the final graph.
        recount = TCIMAccelerator(
            AcceleratorConfig(num_arrays=num_arrays, shard_by=shard_by)
        ).run(session.graph)
        assert session.count() == recount.triangles
        # The resident full run conserves the from-scratch events.
        _assert_same_events(session.run().events, recount.events)

    def test_shard_boundary_edges(self):
        # Edges whose endpoints land in different round-robin shards, plus
        # batches that straddle the contiguous-partition boundary.
        base = generators.erdos_renyi(64, 200, seed=8)
        for shard_by in ("edges", "rows", "degree"):
            session = open_session(base, num_arrays=4, shard_by=shard_by)
            oracle = DynamicTriangleCounter(base.num_vertices, base)
            # Rows 0..3 round-robin onto all four shards; connect them.
            ops = [("+", u, v) for u in range(4) for v in range(4, 12)]
            ops += [("-", u, v) for u in range(4) for v in range(4, 8)]
            session.apply(ops)
            oracle.apply_ops(ops)
            assert session.count() == oracle.triangles
            recount = TCIMAccelerator(
                AcceleratorConfig(num_arrays=4, shard_by=shard_by)
            ).run(session.graph)
            assert session.count() == recount.triangles

    def test_batched_matches_per_op(self):
        # Coalesced segments and per-op (record) segments agree.
        base = generators.powerlaw_cluster(120, 4, 0.5, seed=6)
        inserts = [("+", i, (i * 7 + 3) % 120) for i in range(0, 40)]
        deletes = [("-", u, v) for u, v in base.edge_array()[:30].tolist()]
        coalesced = open_session(base)
        per_op = open_session(base)
        ops = [op for op in inserts + deletes if op[1] != op[2]]
        r1 = coalesced.apply(ops)
        r2 = per_op.apply(ops, record=True)
        assert r1.delta_triangles == r2.delta_triangles
        assert coalesced.count() == per_op.count()
        assert r1.segments <= r2.segments

    def test_empty_session_grows_from_nothing(self):
        session = open_session(Graph(30))
        oracle = DynamicTriangleCounter(30)
        ops = [("+", u, v) for u in range(10) for v in range(u + 1, 10)]
        session.apply(ops)
        oracle.apply_ops(ops)
        assert session.count() == oracle.triangles == 120  # K10


class TestVertexFrontDoors:
    """Every vertex a caller hands the session must be a Python or numpy
    integer: a numeric string, a float or a bool is rejected with a
    ``GraphError`` naming the op or pair, never coerced to a vertex."""

    @pytest.mark.parametrize(
        "pairs", [["12"], [(1.7, 2)], [(True, 2)], [("a", 1)], [(0, 1), (2, 1.0)]]
    )
    def test_common_neighbors_many_rejects(self, paper_graph, pairs):
        session = open_session(paper_graph)
        last = len(pairs) - 1
        with pytest.raises(GraphError, match=rf"pair {last}: .*not an integer"):
            session.common_neighbors_many(pairs)

    @pytest.mark.parametrize("u", ["0", 0.4, False, "a"])
    def test_apply_rejects_before_mutation(self, paper_graph, u):
        session = open_session(paper_graph)
        with pytest.raises(GraphError, match="op 1: .*not an integer"):
            session.apply([("+", 0, 1), ("+", u, 3)])
        assert session.generation == 0 and session.count() == 2
        assert not session.has_edge(0, 3)

    @pytest.mark.parametrize("bad", ["1", 1.7, True])
    def test_common_neighbors_and_has_edge_reject(self, paper_graph, bad):
        session = open_session(paper_graph)
        for args, options in (((bad, 2), {}), ((1, bad), {}), ((bad,), {"k": 2})):
            with pytest.raises(GraphError, match="not an integer"):
                session.common_neighbors(*args, **options)
        # has_edge too, before and after an apply makes the symmetric
        # structure the edge set.
        for ops in ([], [("+", 0, 3)]):
            session.apply(ops)
            with pytest.raises(GraphError, match="not an integer"):
                session.has_edge(bad, 2)

    @pytest.mark.parametrize(
        "sources, destinations", [(["1"], ["2"]), ([1.7], [2]), ([True], [2])]
    )
    def test_pair_scores_rejects(self, paper_graph, sources, destinations):
        session = open_session(paper_graph)
        with pytest.raises(GraphError, match="integer vertex arrays"):
            session.pair_scores(sources, destinations)

    def test_integers_of_every_kind_accepted(self, paper_graph):
        session = open_session(paper_graph)
        assert session.pair_scores([], []).tolist() == []
        assert session.pair_scores(np.array([1], np.uint8), [2]).tolist() == [2]
        assert session.common_neighbors_many([(np.int64(1), np.int32(2))]) == [2]
        session.apply([("+", np.int64(0), np.int16(3))])
        assert session.has_edge(0, 3) and session.count() == 4

    @pytest.mark.parametrize("u", ["1", 1.9, True])
    def test_oracle_rejects_alike(self, u):
        counter = DynamicTriangleCounter(4)
        with pytest.raises(GraphError, match="op 0: .*not an integer"):
            counter.apply_ops([("+", u, 3)])
        assert counter.num_edges == 0


class TestCanonicalDeltaEdges:
    def test_dedup_orient_sort(self):
        edges = canonical_delta_edges([(3, 1), (1, 3), (2, 2), (0, 1)], 4)
        assert edges.tolist() == [[0, 1], [1, 3]]

    def test_empty(self):
        assert canonical_delta_edges([], 5).shape == (0, 2)

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            canonical_delta_edges([(0, 9)], 5)


class TestBitMaintenance:
    def test_set_clear_roundtrip(self):
        graph = generators.erdos_renyi(40, 100, seed=0)
        sliced = SlicedMatrix.from_graph(graph, "symmetric")
        reference = SlicedMatrix.from_graph(graph, "symmetric")
        set_bit(sliced, 0, 39)
        set_bit(sliced, 39, 0)
        clear_bit(sliced, 0, 39)
        clear_bit(sliced, 39, 0)
        _assert_same_structure(sliced, reference)

    def test_clear_missing_bit_is_noop(self):
        sliced = SlicedMatrix.from_graph(Graph(8, [(0, 1)]), "symmetric")
        before = sliced.data.copy()
        clear_bit(sliced, 5, 6)
        assert np.array_equal(sliced.data, before)

    def test_out_of_range(self):
        sliced = SlicedMatrix.from_graph(Graph(4, [(0, 1)]), "symmetric")
        with pytest.raises(GraphError):
            set_bit(sliced, 4, 0)


class TestConfigMapping:
    def test_roundtrip(self):
        config = AcceleratorConfig(num_arrays=4, shard_by="degree", policy="fifo")
        rebuilt = AcceleratorConfig.from_mapping(config.to_mapping())
        assert rebuilt == config

    def test_string_coercion(self):
        config = AcceleratorConfig.from_mapping(
            {"num_arrays": "4", "slice_bits": "32", "policy": "fifo"}
        )
        assert config.num_arrays == 4
        assert config.slice_bits == 32
        assert config.policy == "fifo"

    def test_unknown_key(self):
        with pytest.raises(ArchitectureError, match="unknown AcceleratorConfig"):
            AcceleratorConfig.from_mapping({"warp": 9})

    def test_retired_engine_key_rejected(self, paper_graph):
        # The engine knob is gone: naming it fails loudly, never silently.
        with pytest.raises(ArchitectureError, match="engine"):
            AcceleratorConfig.from_mapping({"engine": "vectorized"})
        with pytest.raises(ArchitectureError, match="engine"):
            open_session(paper_graph, engine="legacy")

    def test_retired_count_keys_rejected(self, paper_graph):
        # Every session counts over the upper orientation with its plan
        # resident: the two knobs that chose otherwise are unknown keys.
        assert len(dataclasses.fields(AcceleratorConfig)) == 8
        for key, value in (("orientation", "upper"), ("use_plan", False)):
            with pytest.raises(ArchitectureError, match=f"unknown .*'{key}'"):
                open_session(paper_graph, **{key: value})
            with pytest.raises(ArchitectureError, match=f"unknown .*'{key}'"):
                AcceleratorConfig.from_mapping({key: str(value)})

    def test_bad_int(self):
        with pytest.raises(ArchitectureError, match="integer"):
            AcceleratorConfig.from_mapping({"num_arrays": "many"})

    def test_overrides_win(self):
        config = AcceleratorConfig.from_mapping({"num_arrays": 2}, num_arrays=8)
        assert config.num_arrays == 8

    def test_to_mapping_is_jsonable(self):
        import json

        json.dumps(AcceleratorConfig().to_mapping())


class TestCachedStructureReuse:
    def test_accelerator_accepts_cached_structures(self):
        graph = generators.barabasi_albert(200, 4, seed=5)
        config = AcceleratorConfig(num_arrays=2)
        accelerator = TCIMAccelerator(config)
        baseline = accelerator.run(graph)
        from repro.core.engine import oriented_edges

        row = SlicedMatrix.from_graph(graph, "upper")
        col = SlicedMatrix.from_graph(graph, "lower")
        edges = oriented_edges(graph, "upper")
        cached = accelerator.run(
            graph, row_sliced=row, col_sliced=col, edge_arrays=edges
        )
        assert cached.triangles == baseline.triangles
        _assert_same_events(cached.events, baseline.events)

    def test_mismatched_structures_rejected(self, paper_graph):
        accelerator = TCIMAccelerator()
        wrong_bits = SlicedMatrix.from_graph(paper_graph, "upper", slice_bits=32)
        with pytest.raises(ArchitectureError, match="slice"):
            accelerator.run(paper_graph, row_sliced=wrong_bits)
        wrong_rows = SlicedMatrix.from_graph(Graph(9, [(0, 1)]), "upper")
        with pytest.raises(ArchitectureError, match="rows"):
            accelerator.run(paper_graph, row_sliced=wrong_rows)


class TestConcurrency:
    """The per-session lock: one session driven from two threads.

    Without the session RLock this fails (silent count corruption: a
    reader's full run overwrites the incrementally maintained total
    mid-stream, losing applied deltas — reproduced 6/6 in development);
    with it, writer and readers serialise and the final state is exact.
    """

    def _batches(self, graph, num_batches, rng):
        present = set(map(tuple, graph.edge_array().tolist()))
        batches = []
        for _ in range(num_batches):
            batch = []
            for _ in range(6):
                u, v = int(rng.integers(graph.num_vertices)), int(
                    rng.integers(graph.num_vertices)
                )
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in present:
                    present.discard(key)
                    batch.append(("-", u, v))
                else:
                    present.add(key)
                    batch.append(("+", u, v))
            batches.append(batch)
        return batches

    def test_two_thread_stream_and_queries(self):
        import sys
        import threading

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # force frequent interleaving
        try:
            graph = generators.barabasi_albert(1200, 5, seed=1)
            session = open_session(graph)
            session.count()
            batches = self._batches(graph, 120, np.random.default_rng(0))
            errors: list = []
            done = threading.Event()

            def writer():
                try:
                    for batch in batches:
                        session.apply(batch)
                except Exception as error:  # surfaced via the errors list
                    errors.append(error)
                finally:
                    done.set()

            def reader():
                try:
                    while not done.is_set():
                        session.run()
                except Exception as error:
                    errors.append(error)

            threads = [
                threading.Thread(target=writer),
                threading.Thread(target=reader),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
            oracle = DynamicTriangleCounter(graph.num_vertices, graph)
            for batch in batches:
                oracle.apply_ops(batch)
            assert session.count() == oracle.triangles
            assert session.run().triangles == oracle.triangles
        finally:
            sys.setswitchinterval(switch)

    def test_lock_is_reentrant_and_public(self, paper_graph):
        session = open_session(paper_graph)
        with session.lock:
            with session.lock:  # reentrant by contract
                assert session.count() == 2

    def test_generation_bumps_only_on_mutation(self, paper_graph):
        session = open_session(paper_graph)
        generation = session.generation
        session.count()
        session.simulate()
        assert session.generation == generation
        session.apply([("+", 0, 3)])
        assert session.generation > generation
        bumped = session.generation
        session.apply([("+", 0, 3)])  # no-op stream: nothing invalidated
        assert session.generation == bumped

    def test_resident_bytes_grows_with_residency(self, paper_graph):
        session = open_session(paper_graph)
        fresh = session.resident_bytes()
        session.simulate()
        assert session.resident_bytes() > fresh


class TestApplyRollback:
    """Injected failures mid-call: the failing batch rolls back fully.

    A ``record=False`` call runs its net deletions as one batch, then its
    net insertions as a second.  When a batch fails, the batches before
    it stay committed and ``error.applied_operations`` names them — the
    net-deletion batch, or nothing.
    """

    def _session_and_stream(self):
        graph = generators.barabasi_albert(300, 4, seed=2)
        session = open_session(graph)
        session.count()
        present = set(map(tuple, graph.edge_array().tolist()))
        absent = [
            (u, v)
            for u in range(0, 20)
            for v in range(u + 1, 40)
            if (u, v) not in present
        ]
        existing = sorted(present)[:3]
        # Inserts, deletes (real edges), one more insert: the net effect
        # is one batch deleting ``existing``, then one inserting four.
        stream = (
            [("+", *edge) for edge in absent[:3]]
            + [("-", *edge) for edge in existing]
            + [("+", *absent[3])]
        )
        return graph, session, stream, [("-", *edge) for edge in existing]

    def _assert_consistent(self, session, graph, applied):
        """The session equals ``applied`` replayed on the oracle."""
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        oracle.apply_ops(applied)
        assert session.count() == oracle.triangles
        assert session.num_edges == oracle.num_edges
        expected = oracle.to_graph()
        assert np.array_equal(session.graph.edge_array(), expected.edge_array())
        # The maintained symmetric structure equals a from-scratch build.
        _assert_same_structure(
            SlicedMatrix.from_graph(expected, "symmetric"), session._residency.structure()
        )
        # Full queries still work and agree.
        assert session.run().triangles == oracle.triangles

    @pytest.mark.parametrize("failing_call", [2, 3])
    def test_delta_join_failure_on_late_segment(self, monkeypatch, failing_call):
        import repro.core.incremental as incremental

        graph, session, stream, deletions = self._session_and_stream()
        # The stream goes in as two calls.  The first (inserts only) is
        # one batch, delta join 1; the second nets to a deletion batch
        # (join 2) and then an insertion batch (join 3).
        first, second = stream[:3], stream[3:]
        real = incremental.symmetric_delta
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == failing_call:
                raise RuntimeError("injected delta-join failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(incremental, "symmetric_delta", flaky)
        session.apply(first)
        with pytest.raises(RuntimeError, match="injected") as failure:
            session.apply(second)
        # Batches before the failing one stay applied and are reported;
        # the failing one rolled back completely.
        committed = failure.value.applied_operations
        assert committed == ([] if failing_call == 2 else deletions)
        assert failure.value.partial_update.deleted == len(committed)
        self._assert_consistent(session, graph, first + committed)
        # The session stays usable: re-submitting finishes the stream
        # (already-applied operations filter out as no-ops).
        monkeypatch.setattr(incremental, "symmetric_delta", real)
        session.apply(second)
        self._assert_consistent(session, graph, stream)

    def test_set_bits_failure_during_insert_segment(self, monkeypatch):
        import repro.core.incremental as incremental

        graph, session, stream, deletions = self._session_and_stream()
        real = incremental.set_bits
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            # The net-deletion batch only clears bits (set_bits restores
            # them on rollback alone), so call 1 is the insertion batch's
            # splice: fail there, after the deletion batch committed.
            # (The deferred structure patches of _flush_patches run at
            # query time, not here, so they do not shift the numbering.)
            if calls["n"] == 1:
                raise MemoryError("injected maintenance failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(incremental, "set_bits", flaky)
        with pytest.raises(MemoryError, match="injected") as failure:
            session.apply(stream)
        monkeypatch.setattr(incremental, "set_bits", real)
        assert calls["n"] == 1
        assert failure.value.applied_operations == deletions
        self._assert_consistent(session, graph, deletions)
        session.apply(stream)
        self._assert_consistent(session, graph, stream)

    def test_capacity_failure_on_second_segment(self):
        # Hub at the last vertex: the upper-oriented bootstrap fits the
        # tiny array, but the symmetric hub row exceeds the per-array
        # capacity.  The net-deletion batch (edge {1, 2}, off the hub)
        # fits and commits; the net-insertion batch gives vertex 0 two
        # edges, so its term 2 joins the hub row against D's row 0 and
        # raises -- the non-injected variant of the late-segment test.
        n = 8194
        hub = n - 1
        star = [(i, hub) for i in range(1, hub)]
        session = open_session(Graph(n, star + [(1, 2)]), array_bytes=800)
        before = session.count()
        stream = [("+", 0, hub), ("+", 0, 3), ("-", 1, 2)]
        with pytest.raises(ArchitectureError, match="row region needs 129") as failure:
            session.apply(stream)
        assert failure.value.applied_operations == [("-", 1, 2)]
        assert not session.has_edge(1, 2)  # first batch committed
        # The second batch rolled back.
        assert not session.has_edge(0, hub) and not session.has_edge(0, 3)
        # The committed delete opens exactly one triangle (1, 2, hub);
        # the rolled-back insert must not have changed anything else.
        assert session.count() == before - 1
        assert session.num_edges == len(star)
        fresh = SlicedMatrix.from_graph(Graph(n, star), "symmetric")
        _assert_same_structure(fresh, session._residency.structure())
        # Re-submitting is safe: the committed delete is now a no-op and
        # the insert fails again without side effects.
        with pytest.raises(ArchitectureError, match="row region") as again:
            session.apply(stream)
        assert again.value.partial_update.deleted == 0
        assert session.count() == before - 1
        _assert_same_structure(fresh, session._residency.structure())


class TestResolveGraphScaleValidation:
    @pytest.mark.parametrize("scale", ["0", "-1", "-0.5", "nan", "inf", "-inf"])
    def test_nonsensical_scales_rejected_at_parse_time(self, scale):
        spec = f"dataset:com-dblp@{scale}"
        with pytest.raises(ReproError, match="positive finite") as excinfo:
            resolve_graph(spec)
        assert spec in str(excinfo.value)

    def test_non_numeric_scale_still_named(self):
        with pytest.raises(ReproError, match="invalid scale"):
            resolve_graph("dataset:com-dblp@fast")

    def test_valid_scales_unaffected(self):
        assert resolve_graph("dataset:ego-facebook@0.05").num_vertices > 0
