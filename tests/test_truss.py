"""Tests for k-truss decomposition and edge support."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.analysis.truss import (
    edge_support,
    k_truss,
    max_trussness,
    peel_trussness,
    truss_decomposition,
)
from repro.baselines.intersection import triangle_count_forward
from repro.graph import generators
from repro.graph.graph import Graph


class TestEdgeSupport:
    def test_paper_graph(self, paper_graph):
        support = edge_support(paper_graph)
        # Edge (1,2) participates in both triangles; the others in one.
        assert support[(1, 2)] == 2
        assert support[(0, 1)] == 1
        assert support[(2, 3)] == 1

    def test_support_sums_to_three_triangles(self, random_graphs):
        for graph in random_graphs:
            total = sum(edge_support(graph).values())
            assert total == 3 * triangle_count_forward(graph)

    def test_triangle_free(self):
        graph = generators.complete_bipartite(4, 4)
        assert all(s == 0 for s in edge_support(graph).values())


class TestTrussDecomposition:
    def test_complete_graph(self):
        # Every edge of K5 has support 3 -> the whole graph is a 5-truss.
        k5 = generators.complete_graph(5)
        trussness = truss_decomposition(k5)
        assert set(trussness.values()) == {5}
        assert max_trussness(k5) == 5

    def test_triangle_free_all_2(self):
        graph = generators.complete_bipartite(3, 5)
        assert set(truss_decomposition(graph).values()) == {2}

    def test_paper_graph(self, paper_graph):
        # Both triangles share edge (1,2) but no 4-clique exists: the
        # whole graph is a 3-truss and nothing more.
        trussness = truss_decomposition(paper_graph)
        assert set(trussness.values()) == {3}

    def test_empty_graph(self, empty_graph):
        assert truss_decomposition(empty_graph) == {}
        assert max_trussness(empty_graph) == 0

    def test_matches_networkx(self, random_graphs):
        """Our k-truss edge sets must equal networkx's for every k."""
        for graph in random_graphs[:4]:
            nx_graph = graph.to_networkx()
            top = max_trussness(graph)
            for k in range(2, top + 1):
                ours = {tuple(edge) for edge in k_truss(graph, k).edge_array()}
                theirs = {
                    (min(u, v), max(u, v)) for u, v in nx.k_truss(nx_graph, k).edges()
                }
                assert ours == theirs, f"k={k}"

    def test_k_truss_monotone(self):
        graph = generators.powerlaw_cluster(120, 4, 0.7, seed=5)
        previous = None
        for k in range(2, max_trussness(graph) + 1):
            edges = k_truss(graph, k).num_edges
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_k_validation(self, paper_graph):
        with pytest.raises(GraphError):
            k_truss(paper_graph, 1)

    def test_nested_cliques(self):
        """A K4 hanging off a path: the K4 is the 4-truss, the path is not."""
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        graph = Graph(6, edges)
        four = k_truss(graph, 4)
        assert four.num_edges == 6  # exactly the K4
        trussness = truss_decomposition(graph)
        assert trussness[(3, 4)] == 2
        assert trussness[(0, 1)] == 4


def seeded(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge supports and ``(e_uv, e_uw, e_vw)`` triangle rows of
    ``graph``, by brute force; edge ids follow ``graph.edge_array()``."""
    edges = graph.edge_array().tolist()
    ids = {tuple(edge): i for i, edge in enumerate(edges)}
    support = edge_support(graph)
    triangles = [
        (i, ids[(u, w)], ids[(v, w)])
        for i, (u, v) in enumerate(edges)
        for w in graph.neighbors(u).tolist()
        if w > v and (v, w) in ids
    ]
    supports = np.array([support[tuple(edge)] for edge in edges], dtype=np.int64)
    return supports, np.array(triangles, dtype=np.int64).reshape(-1, 3)


class TestPrecomputedSupport:
    """The array peel starts from precomputed supports (the session's
    engine-computed array) and must agree with the oracle, which computes
    its own."""

    def test_decomposition_with_seeded_support(self, random_graphs):
        for graph in random_graphs:
            trussness = peel_trussness(*seeded(graph))
            keys = map(tuple, graph.edge_array().tolist())
            assert dict(zip(keys, trussness.tolist())) == truss_decomposition(graph)

    def test_k_truss_with_seeded_support(self, random_graphs):
        graph = random_graphs[0]
        trussness = peel_trussness(*seeded(graph))
        for k in (2, 3, 4):
            expected = k_truss(graph, k).edge_array()
            assert np.array_equal(graph.edge_array()[trussness >= k], expected)

    def test_max_trussness_with_seeded_support(self, paper_graph):
        trussness = peel_trussness(*seeded(paper_graph))
        assert int(trussness.max()) == max_trussness(paper_graph) == 3

    def test_seeded_support_not_mutated(self, paper_graph):
        supports, triangles = seeded(paper_graph)
        snapshot = supports.copy()
        peel_trussness(supports, triangles)
        assert np.array_equal(supports, snapshot)

    def test_missing_edge_rejected(self, paper_graph):
        supports, triangles = seeded(paper_graph)
        with pytest.raises(GraphError, match="outside"):
            peel_trussness(supports[:-1], triangles)
        supports[0] += 1
        with pytest.raises(GraphError, match="edge 0 has support 2"):
            peel_trussness(supports, triangles)
