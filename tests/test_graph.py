"""Unit + property tests for the Graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as reference
from repro.errors import GraphError
from repro.graph.graph import Graph


edge_lists = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60
)


class TestConstruction:
    def test_empty(self, empty_graph):
        assert empty_graph.num_vertices == 0
        assert empty_graph.num_edges == 0

    def test_isolated(self, isolated_vertices):
        assert isolated_vertices.num_vertices == 7
        assert isolated_vertices.degrees().tolist() == [0] * 7

    def test_paper_graph(self, paper_graph):
        assert paper_graph.num_vertices == 4
        assert paper_graph.num_edges == 5
        assert paper_graph.degrees().tolist() == [2, 3, 3, 2]

    def test_self_loops_dropped(self):
        graph = Graph(3, [(0, 0), (0, 1), (1, 1)])
        assert graph.num_edges == 1

    def test_duplicates_merged(self):
        graph = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_edges_on_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            Graph(0, [(0, 1)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_from_edges_infers_size(self):
        graph = Graph.from_edges([(0, 5), (2, 3)])
        assert graph.num_vertices == 6
        assert graph.num_edges == 2


class TestAccessors:
    def test_neighbors_sorted(self, paper_graph):
        assert paper_graph.neighbors(1).tolist() == [0, 2, 3]

    def test_neighbors_read_only(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.neighbors(1)[0] = 9

    def test_has_edge(self, paper_graph):
        assert paper_graph.has_edge(0, 1)
        assert paper_graph.has_edge(1, 0)
        assert not paper_graph.has_edge(0, 3)
        assert not paper_graph.has_edge(2, 2)

    def test_vertex_bounds(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.degree(4)
        with pytest.raises(GraphError):
            paper_graph.neighbors(-1)

    def test_edge_array_canonical(self, paper_graph):
        edges = paper_graph.edge_array()
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * 4 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_edges_iterator_matches_array(self, paper_graph):
        assert list(paper_graph.edges()) == [tuple(e) for e in paper_graph.edge_array()]

    def test_csr_views_read_only(self, paper_graph):
        """Regression: writing through ``csr`` used to corrupt the graph."""
        indptr, indices = paper_graph.csr
        with pytest.raises(ValueError):
            indptr[0] = 99
        with pytest.raises(ValueError):
            indices[0] = 99
        # The graph is untouched even after the attempted writes.
        assert paper_graph.neighbors(1).tolist() == [0, 2, 3]

    def test_edge_array_read_only(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.edge_array()[0, 0] = 99

    def test_csr_slices_read_only(self, paper_graph):
        indptr, indices = paper_graph.csr
        view = indices[indptr[1]: indptr[2]]
        with pytest.raises(ValueError):
            view[0] = 7


class TestAdjacency:
    def test_symmetric_matrix(self, paper_graph):
        matrix = paper_graph.adjacency_matrix("symmetric")
        assert np.array_equal(matrix, matrix.T)
        assert matrix.sum() == 2 * paper_graph.num_edges

    def test_upper_matrix_matches_paper_figure(self, paper_graph):
        expected = np.array(
            [
                [0, 1, 1, 0],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
            ],
            dtype=bool,
        )
        assert np.array_equal(paper_graph.adjacency_matrix("upper"), expected)

    def test_lower_is_upper_transposed(self, paper_graph):
        upper = paper_graph.adjacency_matrix("upper")
        lower = paper_graph.adjacency_matrix("lower")
        assert np.array_equal(lower, upper.T)

    def test_unknown_orientation(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.adjacency_matrix("diagonal")

    def test_scipy_matches_dense(self, paper_graph):
        for orientation in ("symmetric", "upper", "lower"):
            sparse = paper_graph.scipy_adjacency(orientation).toarray().astype(bool)
            dense = paper_graph.adjacency_matrix(orientation)
            assert np.array_equal(sparse, dense)


class TestTransformations:
    def test_relabel_identity(self, paper_graph):
        same = paper_graph.relabel(np.arange(4))
        assert same == paper_graph

    def test_relabel_preserves_structure(self, paper_graph):
        permutation = np.array([3, 2, 1, 0])
        relabelled = paper_graph.relabel(permutation)
        assert relabelled.num_edges == paper_graph.num_edges
        assert sorted(relabelled.degrees().tolist()) == sorted(
            paper_graph.degrees().tolist()
        )

    def test_relabel_rejects_non_bijection(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.relabel(np.array([0, 0, 1, 2]))
        with pytest.raises(GraphError):
            paper_graph.relabel(np.array([0, 1, 2]))

    def test_relabel_by_degree_ascending(self, paper_graph):
        relabelled = paper_graph.relabel_by_degree()
        degrees = relabelled.degrees()
        assert np.all(np.diff(degrees) >= 0)

    def test_relabel_by_degree_descending(self, paper_graph):
        relabelled = paper_graph.relabel_by_degree(descending=True)
        degrees = relabelled.degrees()
        assert np.all(np.diff(degrees) <= 0)

    def test_subgraph(self, paper_graph):
        sub = paper_graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # the 0-1-2 triangle

    def test_subgraph_rejects_duplicates(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.subgraph([0, 0])

    def test_subgraph_rejects_out_of_range(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.subgraph([0, 9])


class TestNetworkxRoundtrip:
    def test_roundtrip(self, paper_graph):
        back = Graph.from_networkx(paper_graph.to_networkx())
        assert back == paper_graph


class TestProperties:
    @given(edge_lists)
    def test_canonicalisation_invariants(self, edges):
        graph = Graph(20, edges)
        array = graph.edge_array()
        # u < v everywhere, strictly sorted, no duplicates.
        if array.size:
            assert np.all(array[:, 0] < array[:, 1])
            keys = array[:, 0] * 20 + array[:, 1]
            assert np.all(np.diff(keys) > 0)
        # Sum of degrees is twice the edge count.
        assert int(graph.degrees().sum()) == 2 * graph.num_edges

    @given(edge_lists)
    def test_direction_does_not_matter(self, edges):
        forward = Graph(20, edges)
        backward = Graph(20, [(v, u) for u, v in edges])
        assert forward == backward

    @settings(max_examples=30)
    @given(edge_lists, st.randoms(use_true_random=False))
    def test_relabel_preserves_edge_count(self, edges, rnd):
        graph = Graph(20, edges)
        permutation = list(range(20))
        rnd.shuffle(permutation)
        assert graph.relabel(np.array(permutation)).num_edges == graph.num_edges


@st.composite
def _edge_arrays(draw) -> tuple[int, np.ndarray]:
    """Edge arrays with loops, duplicates and reversed rows, or canonical
    ones with one such defect spliced in or not."""
    num_vertices = draw(st.integers(1, 25))
    vertex = st.integers(0, num_vertices - 1)
    edges = np.array(
        draw(st.lists(st.tuples(vertex, vertex), max_size=60)), dtype=np.int64
    ).reshape(-1, 2)
    shape = draw(st.sampled_from(["raw", "canonical", "reversed", "duplicate", "loop"]))
    if shape != "raw":
        edges = reference.canonical_edges(edges, num_vertices)
    if shape != "canonical" and len(edges):
        at = draw(st.integers(0, len(edges) - 1))
        row = edges[at].copy()
        if shape == "reversed":
            edges[at] = row[::-1]
        elif shape == "duplicate":
            edges = np.insert(edges, at, row, axis=0)
        elif shape == "loop":
            edges = np.insert(edges, at, [row[0], row[0]], axis=0)
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    order = draw(st.sampled_from(["C", "F"]))
    return num_vertices, np.array(edges, dtype=dtype, order=order)


class TestMatchesReference:
    """One key sort builds what ``np.unique`` + ``np.lexsort`` built
    (``graph_reference``)."""

    @settings(max_examples=200, deadline=None)
    @given(_edge_arrays())
    def test_construction_matches_reference(self, drawn):
        num_vertices, edges = drawn
        before = edges.copy()
        graph = Graph(num_vertices, edges)
        want_n, want_edges, want_indptr, want_indices = reference.build(
            num_vertices, edges
        )
        indptr, indices = graph.csr
        assert graph.num_vertices == want_n
        np.testing.assert_array_equal(graph.edge_array(), want_edges)
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_array_equal(edges, before)
        assert edges.flags.writeable

    def test_canonical_input_is_copied_not_frozen(self):
        edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3]], dtype=np.int64)
        graph = Graph(4, edges)
        assert edges.flags.writeable
        assert not np.shares_memory(edges, graph.edge_array())
        edges[0] = (2, 3)
        assert graph.edge_array().tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]
