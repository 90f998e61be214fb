"""Differential tests for the session workload surface.

Every workload — :meth:`TCIMSession.support`, :meth:`truss`,
:meth:`clustering`, :meth:`common_neighbors` — must be value-identical
to its pure-Python oracle across the session configurations whose count
plans the witness pass reads (``num_arrays ∈ {1, 4}``, 4-array coloring
shards, and memmap backing with a tiny spill threshold), on fresh sessions and after a randomized
mutation stream (i.e. through the incrementally patched count plan).
The truss battery also covers every slice width (byte-packed and word
payloads), edge cases from complete graphs to an emptied graph, and the
triangle-witness pass on its own; the one-list tests count witness
passes per generation and check the list against the maintained count.
The patched-workload tests run randomized apply streams after reads, so
every apply patches the triangle list and the trussness, and compare
each patched generation with a from-scratch witness pass, a full peel,
a fresh session and the oracles; they also check the local truss
updates alone and both patch fallbacks by injection.  The map tests
hold the read-only :class:`~repro.graph.edgemap.EdgeMap` that
``support()`` / ``truss()`` return to the rules of the dict it replaced,
and the read-path tests count ``Graph`` rebuilds (there must be none)
across every configuration.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import metrics
from repro.analysis import truss as truss_module
from repro.analysis.truss import edge_support, k_truss, truss_decomposition
from repro.api import ClusteringReport, TCIMSession, open_session
from repro.core import kernels, residency
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix, SliceWindow
from repro.errors import ArchitectureError, GraphError
from repro.graph import generators
from repro.graph.graph import Graph

#: Stands in for the memmap config's ``storage_dir``; the ``configured``
#: fixture swaps in the test's ``tmp_path``.
TMP_STORE = "<tmp_path>"

CONFIGS = [
    {"num_arrays": 1},
    {"num_arrays": 4},
    {"num_arrays": 4, "shard_by": "coloring"},
    {"storage_dir": TMP_STORE, "spill_threshold_bytes": 64},
]

#: The ``-plan`` suffixes name the golden fixtures' records; every
#: session keeps its count plan resident.
CONFIG_IDS = ["arrays1-plan", "arrays4-plan", "coloring-arrays4", "memmap"]


@pytest.fixture
def configured(tmp_path):
    """``open_session`` under one ``CONFIGS`` entry."""

    def open_configured(graph, config) -> TCIMSession:
        if config.get("storage_dir") == TMP_STORE:
            config = {**config, "storage_dir": tmp_path}
        return open_session(graph, **config)

    return open_configured


def brute_common_neighbors(graph: Graph, u: int, v: int) -> int:
    return len(set(graph.neighbors(u).tolist()) & set(graph.neighbors(v).tolist()))


def assert_workloads_match_oracles(session: TCIMSession, graph: Graph) -> None:
    """One shared differential battery: session workloads vs oracles."""
    assert session.support() == edge_support(graph)
    assert session.truss() == truss_decomposition(graph)
    report = session.clustering()
    np.testing.assert_allclose(report.local, metrics.local_clustering(graph))
    assert np.array_equal(
        report.triangles_per_vertex, metrics.triangles_per_vertex(graph)
    )
    assert report.average == pytest.approx(metrics.average_clustering(graph))
    assert report.transitivity == pytest.approx(metrics.transitivity(graph))
    assert report.wedges == metrics.wedge_count(graph)


class TestSupport:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_matches_oracle(self, random_graphs, config, configured):
        for graph in random_graphs:
            with configured(graph, config) as session:
                assert session.support() == edge_support(graph)

    def test_read_only_snapshot(self, paper_graph):
        with open_session(paper_graph) as session:
            first = session.support()
            with pytest.raises(TypeError):
                first[(0, 1)] = -99
            with pytest.raises(TypeError):
                del first[(0, 1)]
            for array in (first.sources, first.destinations, first.per_edge):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = -99
            copy = dict(first)
            copy[(0, 1)] = -99  # callers peel their copies in place
            del copy[(0, 2)]
            assert session.support() is first
            assert session.support() == edge_support(paper_graph)

    def test_empty_graph(self, empty_graph):
        with open_session(empty_graph) as session:
            assert session.support() == {}

    def test_isolated_vertices(self, isolated_vertices):
        with open_session(isolated_vertices) as session:
            assert session.support() == edge_support(isolated_vertices)

    def test_cached_until_mutation(self, k5):
        with open_session(k5) as session:
            first = session.support()
            assert session.support() is first
            session.apply([("-", 0, 1)])
            # The apply patched the triangle list and dropped the map.
            assert set(session._residency.workloads) == {"triangles"}
            second = session.support()
            assert second is not first
            assert second == edge_support(session.graph)
            # The earlier map stays its own generation's snapshot.
            assert first == edge_support(k5)


#: Slice widths of the witness pass: 8 and 24 bits are byte-packed
#: payloads (``bitops.word_view`` does not apply), 64 and 128 are words.
SLICE_BITS = [8, 24, 64, 128]

#: Nested cliques: a K5 sharing vertex 4 with a K4, a K3 hanging off
#: the K4, and a pendant path.
NESTED_CLIQUES = Graph(
    12,
    [(u, v) for u in range(5) for v in range(u + 1, 5)]
    + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
    + [(7, 8), (7, 9), (8, 9), (9, 10), (10, 11)],
)


def witness_oracle(graph: Graph) -> set[tuple[int, int, int]]:
    """Every triangle ``u < w < v`` of ``graph`` as ``(u, w, v)``, by
    brute force."""
    return {
        (u, w, v)
        for u, v in graph.edge_array().tolist()
        for w in graph.neighbors(u).tolist()
        if u < w < v and graph.has_edge(w, v)
    }


def count_structures(graph: Graph, slice_bits: int = 64):
    """A count run's inputs: the upper and lower structures and the
    upper-triangular edges."""
    return (
        SlicedMatrix.from_graph(graph, "upper", slice_bits=slice_bits),
        SlicedMatrix.from_graph(graph, "lower", slice_bits=slice_bits),
        *oriented_edges(graph, "upper"),
    )


class TestTruss:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_decomposition_matches_oracle(self, random_graphs, config, configured):
        for graph in random_graphs:
            with configured(graph, config) as session:
                assert session.truss() == truss_decomposition(graph)
                for k in (3, 4):
                    expected = k_truss(graph, k).edge_array()
                    assert np.array_equal(session.truss(k).edge_array(), expected)

    def test_k_truss_matches_oracle(self, random_graphs):
        for graph in random_graphs[:2]:
            with open_session(graph) as session:
                for k in (2, 3, 4):
                    got = session.truss(k)
                    expected = k_truss(graph, k)
                    assert got.num_vertices == expected.num_vertices
                    assert np.array_equal(got.edge_array(), expected.edge_array())

    def test_k_truss_reuses_cached_decomposition(self, random_graphs, monkeypatch):
        """``truss(k)`` after ``truss()`` neither enumerates nor peels again."""
        graph = random_graphs[4]
        expected = {k: k_truss(graph, k).edge_array() for k in (2, 3, 4, 5)}
        calls = []
        for module, name in (
            (truss_module, "peel_trussness"),
            (truss_module, "truss_decomposition"),
            (kernels, "triangle_witnesses"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        with open_session(graph) as session:
            session.truss()
            assert calls == ["triangle_witnesses", "peel_trussness"]
            calls.clear()
            for k, edges in expected.items():
                assert np.array_equal(session.truss(k).edge_array(), edges)
            assert calls == []

    def test_k_validation(self, paper_graph):
        with open_session(paper_graph) as session:
            with pytest.raises(GraphError, match="k must be"):
                session.truss(1)

    def test_paper_graph(self, paper_graph):
        with open_session(paper_graph) as session:
            assert max(session.truss().values()) == 3

    @pytest.mark.parametrize("slice_bits", SLICE_BITS)
    def test_slice_widths(self, random_graphs, slice_bits):
        for graph in random_graphs:
            with open_session(graph, slice_bits=slice_bits) as session:
                assert session.truss() == truss_decomposition(graph)

    def test_memmap_session(self, random_graphs, tmp_path, monkeypatch):
        # Tiny plan windows too, so the compile streams in chunks.
        monkeypatch.setattr(residency, "_PLAN_CHUNK_EDGES", 64)
        for index, graph in enumerate(random_graphs):
            with open_session(
                graph,
                storage_dir=tmp_path / str(index),
                spill_threshold_bytes=64,
            ) as session:
                assert session.truss() == truss_decomposition(graph)
                assert session._residency.store.spilled_bytes > 0
                # The triangle list spills with the structures it reads.
                listed = session._residency.workloads["triangles"]
                assert isinstance(listed, np.memmap) or not listed.size

    @pytest.mark.parametrize("n", range(1, 13))
    def test_complete_graph(self, n):
        graph = generators.complete_graph(n)
        with open_session(graph) as session:
            trussness = session.truss()
            assert len(trussness) == n * (n - 1) // 2
            assert set(trussness.values()) <= {n}
            assert trussness == truss_decomposition(graph)

    def test_nested_cliques(self):
        with open_session(NESTED_CLIQUES) as session:
            trussness = session.truss()
            assert trussness == truss_decomposition(NESTED_CLIQUES)
            assert trussness[(0, 1)] == 5
            assert trussness[(5, 6)] == 4
            assert trussness[(7, 8)] == 3
            assert trussness[(10, 11)] == 2
            assert session.truss(5).num_edges == 10

    def test_triangle_free(self):
        graph = generators.complete_bipartite(5, 7)
        with open_session(graph) as session:
            assert set(session.truss().values()) == {2}
            assert session.truss(3).num_edges == 0

    def test_empty_graph(self, empty_graph, isolated_vertices):
        for graph in (empty_graph, isolated_vertices):
            with open_session(graph) as session:
                assert session.truss() == {}
                assert session.truss(2).num_edges == 0

    def test_every_edge_deleted(self, k5):
        with open_session(k5) as session:
            session.truss()
            session.apply([("-", u, v) for u, v in k5.edge_array().tolist()])
            assert session.num_edges == 0
            assert session.truss() == {} == truss_decomposition(session.graph)
            assert session.truss(2).num_edges == 0

    @pytest.mark.parametrize("slice_bits", SLICE_BITS)
    def test_witness_pass(self, random_graphs, slice_bits):
        """Over plain upper and lower structures and over the windows of
        one symmetric structure, each triangle once as ``u < w < v`` at
        its edge ``(u, v)``; the total is the triangle count and each
        edge lies in as many triangles as its support."""
        for graph in random_graphs + [NESTED_CLIQUES]:
            edges = graph.edge_array()
            support = edge_support(graph)
            with open_session(graph) as session:
                count = session.count()
            row, col, sources, destinations = count_structures(graph, slice_bits)
            windows = SliceWindow.pair(
                SlicedMatrix.from_graph(graph, "symmetric", slice_bits=slice_bits)
            )
            for row, col in ((row, col), windows):
                resident = build_join_plan(row, col, sources, destinations)
                for plan in (resident, None):
                    triangles = kernels.triangle_witnesses(
                        row, col, sources, destinations, plan=plan
                    )
                    u, v = edges[triangles[:, 0]].T
                    assert np.array_equal(edges[triangles[:, 1], 0], u)
                    w = edges[triangles[:, 1], 1]
                    assert np.array_equal(edges[triangles[:, 2], 0], w)
                    assert np.array_equal(edges[triangles[:, 2], 1], v)
                    assert bool(((u < w) & (w < v)).all())
                    named = set(zip(u.tolist(), w.tolist(), v.tolist()))
                    assert len(named) == len(triangles)
                    assert named == witness_oracle(graph)
                    assert len(triangles) == count
                    counts = np.bincount(triangles.reshape(-1), minlength=len(edges))
                    assert counts.tolist() == [
                        support[tuple(e)] for e in edges.tolist()
                    ]

    def test_witness_pass_rejects_foreign_plan(self, random_graphs):
        graph = random_graphs[0]
        row, col, sources, destinations = count_structures(graph)
        plan = build_join_plan(row, col, sources[:-1], destinations[:-1])
        with pytest.raises(ArchitectureError, match="compile a plan"):
            kernels.triangle_witnesses(row, col, sources, destinations, plan=plan)


class TestClustering:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_matches_oracles(self, random_graphs, config, configured):
        for graph in random_graphs:
            with configured(graph, config) as session:
                report = session.clustering()
                np.testing.assert_allclose(
                    report.local, metrics.local_clustering(graph)
                )
                assert np.array_equal(
                    report.triangles_per_vertex,
                    metrics.triangles_per_vertex(graph),
                )
                assert report.average == pytest.approx(
                    metrics.average_clustering(graph)
                )
                assert report.transitivity == pytest.approx(
                    metrics.transitivity(graph)
                )
                assert report.wedges == metrics.wedge_count(graph)
                assert report.triangles == session.count()

    def test_empty_graph(self, empty_graph):
        with open_session(empty_graph) as session:
            report = session.clustering()
            assert report.average == 0.0
            assert report.transitivity == 0.0
            assert report.triangles == 0

    def test_to_mapping_is_jsonable(self, paper_graph):
        with open_session(paper_graph) as session:
            payload = session.clustering().to_mapping()
            decoded = json.loads(json.dumps(payload))
            assert decoded["triangles"] == 2
            assert decoded["num_vertices"] == 4

    def test_cached_object_reused(self, k5):
        with open_session(k5) as session:
            assert session.clustering() is session.clustering()

    def test_cached_report_is_read_only(self, random_graphs):
        graph = random_graphs[4]
        with open_session(graph) as session:
            report = session.clustering()
            tallies = report.triangles_per_vertex.copy()
            local = report.local.copy()
            with pytest.raises(ValueError, match="read-only"):
                report.triangles_per_vertex[0] = 12345
            with pytest.raises(ValueError, match="read-only"):
                report.local[0] = -1.0
            again = session.clustering()
            assert np.array_equal(again.triangles_per_vertex, tallies)
            assert np.array_equal(again.local, local)
            assert np.array_equal(tallies, metrics.triangles_per_vertex(graph))


class TestCommonNeighbors:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_pair_scores_match_brute_force(self, random_graphs, config, configured):
        graph = random_graphs[0]
        rng = np.random.default_rng(7)
        with configured(graph, config) as session:
            for _ in range(25):
                u, v = rng.integers(0, graph.num_vertices, size=2).tolist()
                assert session.common_neighbors(u, v) == brute_common_neighbors(
                    graph, u, v
                )

    def test_candidates_match_brute_force(self, random_graphs):
        graph = random_graphs[1]
        with open_session(graph) as session:
            for u in range(0, graph.num_vertices, 7):
                candidates = session.common_neighbors(u)
                neighbors = set(graph.neighbors(u).tolist())
                expected = {}
                for w in sorted(neighbors):
                    for x in graph.neighbors(w).tolist():
                        if x != u and x not in neighbors:
                            expected[x] = brute_common_neighbors(graph, u, x)
                assert dict(candidates) == expected
                # Ascending vertex order, scores all positive.
                vertices = [vertex for vertex, _ in candidates]
                assert vertices == sorted(vertices)
                assert all(score > 0 for _, score in candidates)

    def test_top_k_ranking(self, random_graphs):
        graph = random_graphs[0]
        with open_session(graph) as session:
            full = session.common_neighbors(0)
            top = session.common_neighbors(0, k=5)
            expected = sorted(full, key=lambda item: (-item[1], item[0]))[:5]
            assert top == expected

    def test_v_and_k_conflict(self, paper_graph):
        with open_session(paper_graph) as session:
            with pytest.raises(GraphError, match="not both"):
                session.common_neighbors(0, 1, k=3)

    def test_bad_k(self, paper_graph):
        with open_session(paper_graph) as session:
            with pytest.raises(GraphError, match="k must be"):
                session.common_neighbors(0, k=0)

    def test_vertex_out_of_range(self, paper_graph):
        with open_session(paper_graph) as session:
            with pytest.raises(GraphError):
                session.common_neighbors(99)
            with pytest.raises(GraphError):
                session.common_neighbors(0, 99)

    def test_isolated_vertex_has_no_candidates(self, isolated_vertices):
        with open_session(isolated_vertices) as session:
            isolated = [
                u
                for u in range(isolated_vertices.num_vertices)
                if isolated_vertices.degree(u) == 0
            ]
            assert isolated, "fixture should contain an isolated vertex"
            assert session.common_neighbors(isolated[0]) == []

    def test_probes_hold_nothing_per_vertex(self, random_graphs):
        # A probe's candidate list is scored per call: probing every
        # vertex must not grow memory that resident_bytes() never sees.
        graph = random_graphs[3]
        with open_session(graph) as session:
            session.support()
            cached = set(session._residency.workloads)
            before = session.resident_bytes()
            for u in range(graph.num_vertices):
                top = session.common_neighbors(u, k=3)
                assert top == session.common_neighbors(u, k=3)
            assert set(session._residency.workloads) == cached
            assert session.resident_bytes() == before


#: A triangle-rich base graph for apply-stream properties; ops draw
#: endpoints from its first 14 vertices, so rounds keep revisiting edges.
STREAM_BASE = generators.powerlaw_cluster(24, 3, 0.6, seed=5)
_stream_op = st.tuples(
    st.sampled_from(["+", "-"]), st.integers(0, 13), st.integers(0, 13)
)
STREAM_CALLS = st.lists(st.lists(_stream_op, max_size=16), min_size=1, max_size=5)


class TestWorkloadsAfterMutations:
    """The tentpole coherence property: after a randomized apply stream
    the (patched) resident state answers every workload identically to a
    fresh session on the mutated graph — and to the oracles."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_patched_plan_matches_rebuild(self, config, configured):
        graph = generators.erdos_renyi(60, 250, seed=3)
        rng = np.random.default_rng(11)
        with configured(graph, config) as session:
            # Warm every workload so the resident count plan exists
            # before the stream starts — patches must keep it coherent.
            assert_workloads_match_oracles(session, session.graph)
            for round_id in range(6):
                ops = []
                for _ in range(20):
                    u, v = rng.integers(0, 60, size=2).tolist()
                    if u == v:
                        continue
                    op = "+" if rng.random() < 0.6 else "-"
                    ops.append((op, u, v))
                session.apply(ops)
                mutated = session.graph
                assert_workloads_match_oracles(session, mutated)
                with configured(mutated, config) as fresh:
                    assert session.support() == fresh.support()
                    assert session.truss() == fresh.truss()
            # The stream patched the resident state rather than dropping it.
            assert not any(session.fallback_counts.values())

    @settings(max_examples=25, deadline=None)
    @given(calls=STREAM_CALLS)
    def test_truss_tracks_apply_stream(self, calls):
        """Property: after every apply round, ``truss()`` is the oracle's
        decomposition of the mutated graph (the cached trussness never
        outlives its generation)."""
        with open_session(STREAM_BASE) as session:
            session.truss()
            for ops in calls:
                session.apply(ops)
                assert session.truss() == truss_decomposition(session.graph)

    def test_update_only_stream_then_workload(self, paper_graph):
        with open_session(paper_graph) as session:
            session.apply([("+", 0, 3)])
            assert session.support() == edge_support(session.graph)
            assert session.truss() == truss_decomposition(session.graph)


class TestWorkloadPlanResidency:
    """One triangle list per generation, read from the count plan."""

    def test_one_witness_pass_per_generation(self, random_graphs, monkeypatch):
        """An apply after a read patches the list and the trussness (no
        witness pass, no peel); an apply with no read since the previous
        one drops them, and the next read runs one witness pass."""
        calls = []
        witnesses, peel = kernels.triangle_witnesses, truss_module.peel_trussness

        def counted_witnesses(*args, **kwargs):
            calls.append("witnesses")
            return witnesses(*args, **kwargs)

        def counted_peel(*args, **kwargs):
            calls.append("peel")
            return peel(*args, **kwargs)

        monkeypatch.setattr(kernels, "triangle_witnesses", counted_witnesses)
        monkeypatch.setattr(truss_module, "peel_trussness", counted_peel)
        graph = random_graphs[4]
        edges = graph.edge_array().tolist()
        with open_session(graph) as session:
            session.support()
            session.clustering()
            session.truss()
            session.truss(3)
            assert calls == ["witnesses", "peel"]
            session.apply([("-", *edges[0])])
            assert_workloads_match_oracles(session, session.graph)
            session.apply([("+", *edges[0])])
            assert_workloads_match_oracles(session, session.graph)
            assert calls == ["witnesses", "peel"]  # both applies patched
            session.apply([("-", *edges[1])])  # read since: patched
            session.apply([("-", *edges[2])])  # no read since: dropped
            assert session._residency.workloads == {}
            assert_workloads_match_oracles(session, session.graph)
            assert calls == ["witnesses", "peel"] * 2
            session.close()
            assert session._residency.workloads == {}
            assert session.support() == edge_support(session.graph)
            assert calls == ["witnesses", "peel", "witnesses", "peel", "witnesses"]

    def test_plan_resident_bytes_is_the_count_plan(self, k5):
        with open_session(k5) as session:
            assert session.plan_resident_bytes() == 0
            session.support()
            plan = session.join_plan
            assert session.plan_resident_bytes() == plan.nbytes > 0
            detail = session.resident_bytes_detail()
            assert detail["plan"] == plan.nbytes
            assert detail["sym_plan"] == 0

    def test_close_drops_workload_state(self, k5):
        session = open_session(k5)
        session.support()
        session.close()
        assert session._residency.workloads == {}

    def test_resident_bytes_cover_workloads(self, tmp_path):
        """The workload arrays count toward ``total``, so the spilled
        triangle list can never make ``spilled`` exceed it."""
        graph = generators.powerlaw_cluster(400, 4, 0.6, seed=3)
        with open_session(
            graph, storage_dir=tmp_path, spill_threshold_bytes=1
        ) as session:
            session.simulate()
            assert session.resident_bytes_detail()["workloads"] == 0
            for read in ("support", "truss", "clustering"):
                getattr(session, read)()
                detail = session.resident_bytes_detail()
                assert detail["workloads"] > 0
                assert detail["spilled"] <= detail["total"]
                assert detail["total"] == session.resident_bytes() == sum(
                    value
                    for key, value in detail.items()
                    if key not in ("spilled", "total")
                )
            edges = graph.edge_array().tolist()
            # A reader's apply patches the list, its edges and trussness;
            # one with no read since drops them.
            for edge, patched in ((edges[0], True), (edges[1], False)):
                session.apply([("-", *edge)])
                detail = session.resident_bytes_detail()
                assert (detail["workloads"] > 0) == patched
                assert detail["spilled"] <= detail["total"]

    @pytest.mark.parametrize("read", ["support", "clustering", "truss"])
    def test_witness_list_checked_against_the_count(self, random_graphs, read):
        """A maintained count the witness pass disagrees with raises
        rather than serving either number."""
        graph = random_graphs[4]
        with open_session(graph) as session:
            session.apply([("-", *graph.edge_array()[0].tolist())])
            session._triangles += 1  # a wrong maintained count
            with pytest.raises(ArchitectureError, match="witness pass lists"):
                getattr(session, read)()


def wedge_pairs(graph: Graph, rng: np.random.Generator, count: int) -> list:
    """Up to ``count`` absent pairs two hops apart: each closes triangles."""
    pairs: set[tuple[int, int]] = set()
    for _ in range(count * 20):
        u = int(rng.integers(graph.num_vertices))
        middle = graph.neighbors(u)
        if not middle.size:
            continue
        v = int(rng.choice(graph.neighbors(int(rng.choice(middle)))))
        if u != v and not graph.has_edge(u, v):
            pairs.add((min(u, v), max(u, v)))
        if len(pairs) == count:
            break
    return sorted(pairs)


def stream_ops(kind: str, session: TCIMSession, rng: np.random.Generator) -> list:
    """One apply call's ops of the patched-workload streams."""
    graph = session.graph
    n = graph.num_vertices
    present = graph.edge_array().tolist()
    if kind == "random":
        return [("+", *rng.integers(0, n, size=2).tolist()) for _ in range(8)]
    if kind == "wedges":
        return [("+", u, v) for u, v in wedge_pairs(graph, rng, 6)]
    if kind == "hubs":  # the highest-support edges
        supports = session.support()
        ranked = np.argsort(-supports.per_edge, kind="stable")[:5]
        return [
            ("-", int(supports.sources[i]), int(supports.destinations[i]))
            for i in ranked
        ]
    picked = rng.choice(len(present), size=min(3, len(present)), replace=False)
    deletes = [("-", *present[i]) for i in picked.tolist()]
    inserts = [("+", u, v) for u, v in wedge_pairs(graph, rng, 3)]
    if kind == "mixed":  # one delete batch and one insert batch
        return deletes + inserts
    return inserts[:2] + deletes + inserts[2:]  # "record": a batch per op


class TestPatchedWorkloads:
    """A reader's apply patches the triangle list, its tallies and the
    trussness instead of dropping them: every patched generation
    equals a from-scratch witness pass, a full peel, a fresh session and
    the oracles."""

    STREAM = ("random", "wedges", "hubs", "mixed", "record") * 2

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_stream_matches_rebuild(self, config, configured):
        graph = generators.powerlaw_cluster(60, 4, 0.6, seed=8)
        rng = np.random.default_rng(21)
        with configured(graph, config) as session:
            session.truss()
            session.clustering()
            for kind in self.STREAM:
                session.apply(stream_ops(kind, session, rng), record=kind == "record")
                cache = session._residency.workloads
                assert {"triangles", "tallies", "truss"} <= set(cache), kind
                mutated = session.graph
                scratch = kernels.triangle_witnesses(
                    *count_structures(mutated)
                )
                assert len(cache["triangles"]) == len(scratch)
                assert set(map(tuple, cache["triangles"].tolist())) == set(
                    map(tuple, scratch.tolist())
                )
                assert_workloads_match_oracles(session, mutated)
                with configured(mutated, config) as fresh:
                    assert session.support() == fresh.support()
                    assert session.truss() == fresh.truss()
                    assert (
                        session.clustering().to_mapping()
                        == fresh.clustering().to_mapping()
                    )
            assert not any(session.fallback_counts.values())

    @settings(max_examples=80, deadline=None)
    @given(case=st.data())
    def test_local_update_equals_peel(self, case):
        """The local updates on their own, against ``peel_trussness``."""
        n = case.draw(st.integers(3, 11))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(case.draw(st.sets(st.sampled_from(pairs))))
        insert = case.draw(st.booleans())
        pool = sorted(set(pairs) - set(edges)) if insert else edges
        if not pool:
            return
        batch = case.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True)
        )
        after = sorted(set(edges) ^ set(batch))
        before, old = peeled(n, edges)
        ids = {edge: index for index, edge in enumerate(after)}
        values = np.array(
            [old[before[edge]] if edge in before else 0 for edge in after],
            dtype=np.int64,
        )
        triangles_of = brute_triangles_of(n, after, ids)
        if insert:
            got = truss_module.trussness_after_inserts(
                values, [ids[edge] for edge in batch], triangles_of
            )
        else:
            seeds = [
                ids[edge]
                for corners in triangles(n, edges)
                if any(edge in batch for edge in corners)
                for edge in corners
                if edge not in batch
            ]
            got = truss_module.trussness_after_deletes(values, seeds, triangles_of)
        assert np.array_equal(got, peeled(n, after)[1])


def triangles(n: int, edges: list) -> list:
    """Every triangle ``a < b < c`` as its edges ``(ac, ab, bc)``."""
    present = set(edges)
    return [
        ((a, c), (a, b), (b, c))
        for a, c in edges
        for b in range(a + 1, c)
        if (a, b) in present and (b, c) in present
    ]


def peeled(n: int, edges: list) -> tuple[dict, np.ndarray]:
    """Edge ids and ``peel_trussness`` of a small edge list."""
    ids = {edge: index for index, edge in enumerate(edges)}
    rows = np.array(
        [[ids[edge] for edge in corners] for corners in triangles(n, edges)],
        dtype=np.int64,
    ).reshape(-1, 3)
    supports = np.bincount(rows.reshape(-1), minlength=len(edges))
    return ids, truss_module.peel_trussness(supports, rows)


def brute_triangles_of(n: int, edges: list, ids: dict):
    """The ``triangles_of`` of the local updates, by set intersection."""
    neighbors = {vertex: set() for vertex in range(n)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)

    def triangles_of(queried):
        which, f, g = [], [], []
        for index, edge in enumerate(np.asarray(queried).tolist()):
            u, v = edges[edge]
            for w in sorted(neighbors[u] & neighbors[v]):
                which.append(index)
                f.append(ids[(min(u, w), max(u, w))])
                g.append(ids[(min(v, w), max(v, w))])
        return tuple(np.array(column, dtype=np.int64) for column in (which, f, g))

    return triangles_of


class TestWorkloadPatchFallbacks:
    """The patch's two fallbacks fire by injection and stay exact."""

    def test_cap_repeels(self, monkeypatch):
        peels = []
        peel = truss_module.peel_trussness

        def counted_peel(*args, **kwargs):
            peels.append(1)
            return peel(*args, **kwargs)

        monkeypatch.setattr(truss_module, "peel_trussness", counted_peel)
        # K8 has 28 edges, so the cap is max(0, 28 // 32) = 0 edges.
        monkeypatch.setattr(truss_module, "LOCAL_UPDATE_CAP", 0)
        with open_session(generators.complete_graph(8)) as session:
            session.truss()
            for op, repeels in ((("-", 0, 1), 1), (("+", 0, 1), 2)):
                session.apply([op])
                assert len(peels) == repeels + 1
                assert session.fallback_counts["truss_repeel"] == repeels
                assert session.truss() == truss_decomposition(session.graph)
            assert session.fallback_counts["workload_patch_error"] == 0

    def test_helper_error_drops_the_cache(self, random_graphs, monkeypatch):
        from repro.core.dynamic import DynamicTriangleCounter

        graph = random_graphs[4]
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        (u, v), = wedge_pairs(graph, np.random.default_rng(3), 1)
        with open_session(graph) as session:
            session.truss()

            def broken(*args, **kwargs):
                raise RuntimeError("injected")

            monkeypatch.setattr(kernels, "pair_witnesses", broken)
            update = session.apply([("+", u, v)])
            oracle.apply_ops([("+", u, v)])
            assert update.delta_triangles > 0
            assert update.triangles == session.count() == oracle.triangles
            assert session.has_edge(u, v)
            assert session._residency.workloads == {}
            assert session.fallback_counts["workload_patch_error"] == 1
            monkeypatch.undo()
            assert_workloads_match_oracles(session, session.graph)
            assert session.fallback_counts["truss_repeel"] == 0

    def test_apply_without_read_skips_the_patch(self, random_graphs, monkeypatch):
        calls = []
        for module, name in (
            (kernels, "pair_witnesses"),
            (truss_module, "trussness_after_inserts"),
            (truss_module, "trussness_after_deletes"),
        ):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        graph = random_graphs[4]
        rng = np.random.default_rng(5)
        with open_session(graph) as session:
            session.truss()
            session.apply(stream_ops("mixed", session, rng))
            assert {"pair_witnesses", "trussness_after_deletes"} <= set(calls)
            calls.clear()
            session.apply(stream_ops("mixed", session, rng))  # no read since
            assert calls == []
            assert session._residency.workloads == {}
            assert_workloads_match_oracles(session, session.graph)


def _equal_numbers(value: int):
    """Stand-ins that equal ``value`` the way dict keys compare."""
    return [np.int64(value), np.int32(value), np.uint16(value), float(value)]


class TestEdgeMap:
    """``support()`` / ``truss()`` maps follow the rules of the
    ``{(u, v): value}`` dicts they replaced (forward keys only, CSR
    order, Python ints), and stay their generation's snapshot."""

    @pytest.mark.parametrize(
        "read, oracle",
        [("support", edge_support), ("truss", truss_decomposition)],
        ids=["support", "truss"],
    )
    def test_follows_dict_rules(self, read, oracle, empty_graph):
        graph = NESTED_CLIQUES
        want = oracle(graph)
        csr_keys = [tuple(edge) for edge in graph.edge_array().tolist()]
        with open_session(graph) as session:
            got = getattr(session, read)()
            assert isinstance(got, Mapping)
            assert len(got) == len(want) == graph.num_edges
            # Iteration order is CSR order, as the parent's dict was built.
            assert list(got) == list(got.keys()) == csr_keys
            assert list(got.values()) == [want[key] for key in csr_keys]
            assert list(got.items()) == [(key, want[key]) for key in csr_keys]
            assert all(type(value) is int for value in got.values())
            assert (0, 1) in got.keys() and (1, 0) not in got.keys()
            assert want[(0, 1)] in got.values() and -7 not in got.values()
            assert ((0, 1), want[(0, 1)]) in got.items()
            assert ((0, 1), -7) not in got.items()
            probes = [
                *csr_keys[:3],  # present
                (0, 11),  # absent: both endpoints exist
                (1, 0),  # reversed present edge
                (5, 5),  # self-loop
                (-1, 3),  # out of range
                (3, graph.num_vertices),
                (0, 10**30),
                *[(u, 1) for u in _equal_numbers(0)],  # numpy / equal numbers
                *[(5, v) for v in _equal_numbers(6)],
                (True, 2),
                (0, 1.5),  # non-integral
                (0, float("nan")),
                ("0", "1"),  # non-pair keys
                "x",
                5,
                None,
                (0, 1, 2),
                (0,),
                frozenset({0, 1}),
            ]
            for key in probes:
                assert (key in got) == (key in want), key
                assert got.get(key) == want.get(key), key
                assert got.get(key, "absent") == want.get(key, "absent"), key
                if key in want:
                    assert got[key] == want[key]
                    assert type(got[key]) is int
                else:
                    with pytest.raises(KeyError):
                        got[key]
            for key in ([0, 1], (0, [1])):  # unhashable, as in a dict
                for probe in (
                    lambda m: key in m,
                    lambda m: m[key],
                    lambda m: m.get(key),
                ):
                    with pytest.raises(TypeError):
                        probe(want)
                    with pytest.raises(TypeError):
                        probe(got)
            # == and != in both directions, against dicts and other maps.
            assert got == want and want == got
            assert not (got != want) and not (want != got)
            changed = dict(want)
            changed[csr_keys[0]] += 1
            shorter = dict(want)
            del shorter[csr_keys[-1]]
            for other in (changed, shorter, {}):
                assert got != other and other != got
                assert not (got == other) and not (other == got)
            assert got != list(want.items())
            with open_session(graph) as fresh:
                assert got == getattr(fresh, read)()
            assert got != (session.support() if read == "truss" else session.truss())
            with pytest.raises(TypeError):
                hash(got)
            with pytest.raises(TypeError):
                {got}
        with open_session(empty_graph) as session:
            empty = getattr(session, read)()
            assert empty == {} and {} == empty
            assert not (empty != {}) and not ({} != empty)
            assert len(empty) == 0 and list(empty.items()) == []
            assert (0, 1) not in empty and empty.get((0, 1)) is None

    @pytest.mark.parametrize(
        "read, oracle",
        [("support", edge_support), ("truss", truss_decomposition)],
        ids=["support", "truss"],
    )
    def test_kept_map_survives_apply_and_close(self, read, oracle):
        graph = NESTED_CLIQUES
        with open_session(graph) as session:
            kept = getattr(session, read)()
            session.apply([("-", 0, 1), ("+", 0, 11)])
            assert getattr(session, read)() == oracle(session.graph)
            session.close()
            assert getattr(session, read)() == oracle(session.graph)
            assert kept == oracle(graph)
            assert dict(kept) == oracle(graph)


def _count_graph_builds(monkeypatch) -> list[str]:
    """Record every ``Graph.from_parts`` and ``SlicedMatrix.nonzeros``
    call: the two halves of rebuilding ``session.graph`` from bits."""
    calls: list[str] = []
    from_parts = Graph.from_parts.__func__
    nonzeros = SlicedMatrix.nonzeros

    def counted_from_parts(cls, *args, **kwargs):
        calls.append("Graph.from_parts")
        return from_parts(cls, *args, **kwargs)

    def counted_nonzeros(self):
        calls.append("SlicedMatrix.nonzeros")
        return nonzeros(self)

    monkeypatch.setattr(Graph, "from_parts", classmethod(counted_from_parts))
    monkeypatch.setattr(SlicedMatrix, "nonzeros", counted_nonzeros)
    return calls


class TestNoGraphOnReadPath:
    """After an apply, no read of an analytics generation rebuilds a
    ``Graph``: the reads run on the resident structures and edge arrays."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_reads_build_no_graph(self, config, configured, tmp_path, monkeypatch):
        graph = generators.powerlaw_cluster(90, 3, 0.6, seed=4)
        with configured(graph, config) as warm:
            target = warm.snapshot(tmp_path / "snapshot")
        session = open_session(snapshot=target)
        present = graph.edge_array()[:3].tolist()
        absent = [
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        ][:3]
        calls = _count_graph_builds(monkeypatch)
        with session:
            session.apply(
                [("-", *edge) for edge in present] + [("+", *edge) for edge in absent]
            )
            report = session.simulate()
            session.run()
            session.count()
            session.support()
            session.clustering()
            session.truss()
            session.slice_stats()
            session.common_neighbors_many([(0, 1), (2, 3)])
            assert calls == []
            expected = TCIMAccelerator(session.config).run(session.graph)
            assert report.triangles == expected.triangles
            assert dataclasses.asdict(report.events) == dataclasses.asdict(
                expected.events
            )
            assert dataclasses.asdict(report.cache_stats) == dataclasses.asdict(
                expected.cache_stats
            )
            assert_workloads_match_oracles(session, session.graph)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_candidates_build_no_graph(self, config, configured, monkeypatch):
        import networkx as nx

        graph = generators.powerlaw_cluster(90, 3, 0.6, seed=4)
        present = graph.edge_array()[:4].tolist()
        absent = [
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        ][::97][:4]
        with configured(graph, config) as session:
            session.count()
            calls = _count_graph_builds(monkeypatch)
            session.apply(
                [("-", *edge) for edge in present] + [("+", *edge) for edge in absent]
            )
            vertices = sorted({int(x) for edge in present + absent for x in edge})
            answers = {u: session.common_neighbors(u) for u in vertices}
            top = session.common_neighbors(vertices[0], k=3)
            assert calls == []
        reference = nx.Graph()
        reference.add_nodes_from(range(graph.num_vertices))
        reference.add_edges_from(graph.edge_array().tolist())
        reference.remove_edges_from(present)
        reference.add_edges_from(absent)
        for u, got in answers.items():
            neighbors = set(reference[u])
            two_hop = {x for w in neighbors for x in reference[w]} - neighbors - {u}
            expected = [
                (x, len(neighbors & set(reference[x]))) for x in sorted(two_hop)
            ]
            assert got == expected
        ranked = sorted(answers[vertices[0]], key=lambda item: (-item[1], item[0]))
        assert top == ranked[:3]

    def test_graph_free_run_needs_resident_pieces(self, random_graphs):
        graph = random_graphs[4]
        row, col, sources, destinations = count_structures(graph)
        accelerator = TCIMAccelerator()
        n = graph.num_vertices
        resident = dict(
            row_sliced=row, col_sliced=col, edge_arrays=(sources, destinations)
        )
        for partial in (
            {},
            {"num_vertices": n},
            {"num_vertices": n, "row_sliced": row, "col_sliced": col},
            resident,
        ):
            with pytest.raises(ArchitectureError, match="without a graph"):
                accelerator.run(None, **partial)
        with pytest.raises(ArchitectureError, match="rows"):
            accelerator.run(None, num_vertices=n + 1, **resident)
        with pytest.raises(ArchitectureError, match="vertices"):
            accelerator.run(graph, num_vertices=n + 1)
        alone = accelerator.run(None, num_vertices=n, **resident)
        full = accelerator.run(graph)
        assert alone.triangles == full.triangles
        assert alone.events == full.events
        assert alone.cache_stats == full.cache_stats

    @pytest.mark.parametrize("num_arrays", [1, 4])
    def test_foreign_plan_still_rejected(self, random_graphs, num_arrays):
        graph = random_graphs[4]
        row, col, sources, destinations = count_structures(graph)
        plan = build_join_plan(row, col, sources[:-1], destinations[:-1])
        accelerator = TCIMAccelerator(AcceleratorConfig(num_arrays=num_arrays))
        with pytest.raises(ArchitectureError, match="compile a plan"):
            accelerator.run(
                None,
                num_vertices=graph.num_vertices,
                row_sliced=row,
                col_sliced=col,
                edge_arrays=(sources, destinations),
                join_plan=plan,
            )
