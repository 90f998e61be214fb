"""Undirected simple graph substrate.

Everything in the TCIM pipeline — the bitwise kernel, the slicing
compression, the cache simulation and the baselines — consumes this class.
It stores the graph in compressed-sparse-row (CSR) form with sorted
neighbour lists, built in bulk with vectorised numpy so that the synthetic
stand-ins for the paper's SNAP datasets (Table II) remain cheap to create.

Self-loops are dropped and duplicate/reversed edges are merged during
construction, matching how triangle counting treats a simple undirected
graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """An immutable undirected simple graph over vertices ``0..n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertex identifiers are the contiguous range
        ``0 .. num_vertices - 1``.
    edges:
        Any iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer array.
        Self-loops are discarded; duplicates (including reversed
        duplicates) are merged.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    >>> g.num_edges
    5
    >>> list(g.neighbors(1))
    [0, 2, 3]
    """

    __slots__ = ("_num_vertices", "_indptr", "_indices", "_edges_uv")

    def __init__(self, num_vertices: int, edges: Iterable | np.ndarray = ()) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._num_vertices = int(num_vertices)
        edge_array = _as_edge_array(edges)
        if edge_array.size and self._num_vertices == 0:
            raise GraphError("cannot add edges to a graph with zero vertices")
        if edge_array.size:
            low, high = int(edge_array.min()), int(edge_array.max())
            if low < 0 or high >= self._num_vertices:
                raise GraphError(
                    f"edge endpoint out of range [0, {self._num_vertices}): "
                    f"saw vertex {low if low < 0 else high}"
                )
        self._edges_uv = _canonicalise_edges(edge_array, self._num_vertices)
        self._indptr, self._indices = _build_csr(self._edges_uv, self._num_vertices)
        # The graph is immutable: freeze the internal arrays so accessors
        # (``csr``, ``edge_array``, ``neighbors``) can hand out views
        # without risking silent corruption through a writable alias.
        self._edges_uv.flags.writeable = False
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable | np.ndarray, num_vertices: int | None = None) -> "Graph":
        """Build a graph from an edge list, inferring the vertex count.

        When ``num_vertices`` is omitted it is taken as ``max(endpoint) + 1``.
        """
        edge_array = _as_edge_array(edges)
        if num_vertices is None:
            num_vertices = int(edge_array.max()) + 1 if edge_array.size else 0
        return cls(num_vertices, edge_array)

    @classmethod
    def from_parts(
        cls,
        num_vertices: int,
        edges_uv: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "Graph":
        """Reassemble a graph from its canonical internal arrays.

        The storage tier's hydration path: ``edges_uv`` must already be
        canonical (``u < v``, deduplicated, lexicographically sorted)
        and ``indptr``/``indices`` the matching symmetric CSR — exactly
        what :meth:`edge_array` and :meth:`csr` of the original graph
        handed out.  Only cheap shape/monotonicity checks are performed;
        content integrity is the snapshot layer's hash check.
        """
        graph = cls.__new__(cls)
        graph._num_vertices = int(num_vertices)
        edges_uv = np.ascontiguousarray(edges_uv, dtype=np.int64).reshape(-1, 2)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.shape != (graph._num_vertices + 1,) or int(indptr[-1]) != len(
            indices
        ):
            raise GraphError(
                f"CSR parts do not fit {num_vertices} vertices / "
                f"{len(indices)} half-edges"
            )
        if len(indices) != 2 * len(edges_uv):
            raise GraphError(
                f"CSR carries {len(indices)} half-edges but the edge list "
                f"has {len(edges_uv)} edges"
            )
        graph._edges_uv = edges_uv
        graph._indptr = indptr
        graph._indices = indices
        graph._edges_uv.flags.writeable = False
        graph._indptr.flags.writeable = False
        graph._indices.flags.writeable = False
        return graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Convert a :class:`networkx.Graph`.

        Node labels are mapped onto ``0..n-1`` in sorted order when they are
        not already a contiguous integer range.
        """
        nodes = sorted(nx_graph.nodes())
        relabel = {node: index for index, node in enumerate(nodes)}
        edges = [(relabel[u], relabel[v]) for u, v in nx_graph.edges()]
        return cls(len(nodes), edges)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._num_vertices))
        nx_graph.add_edges_from(self.edge_array())
        return nx_graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (after dedup / self-loop removal)."""
        return self._edges_uv.shape[0]

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self._indptr[vertex + 1] - self._indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees."""
        return np.diff(self._indptr)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Sorted array of neighbours of ``vertex`` (a read-only view)."""
        self._check_vertex(vertex)
        return self._indices[self._indptr[vertex]: self._indptr[vertex + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        neighbours = self._indices[self._indptr[u]: self._indptr[u + 1]]
        position = np.searchsorted(neighbours, v)
        return position < neighbours.size and neighbours[position] == v

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v`` per row, sorted.

        The returned array is read-only, like all accessors exposing the
        internal storage.
        """
        return self._edges_uv

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(u, v)`` tuples with ``u < v``."""
        for u, v in self._edges_uv.tolist():
            yield (u, v)

    # ------------------------------------------------------------------
    # CSR access (used by the baselines and the bit-matrix builder)
    # ------------------------------------------------------------------
    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the symmetric adjacency structure.

        Both arrays are read-only views of the internal storage: writing
        through them used to corrupt the "immutable" graph silently.
        """
        return self._indptr, self._indices

    def adjacency_matrix(self, orientation: str = "symmetric") -> np.ndarray:
        """Dense boolean adjacency matrix (small graphs only).

        ``orientation`` is one of ``"symmetric"`` (the full matrix),
        ``"upper"`` (``A[i][j] = 1`` only for ``i < j``, the DAG orientation
        used by the paper's Fig. 2 example) or ``"lower"``.
        """
        matrix = np.zeros((self._num_vertices, self._num_vertices), dtype=bool)
        u, v = self._edges_uv[:, 0], self._edges_uv[:, 1]
        if orientation == "symmetric":
            matrix[u, v] = True
            matrix[v, u] = True
        elif orientation == "upper":
            matrix[u, v] = True
        elif orientation == "lower":
            matrix[v, u] = True
        else:
            raise GraphError(f"unknown orientation {orientation!r}")
        return matrix

    def scipy_adjacency(self, orientation: str = "symmetric"):
        """Sparse CSR adjacency matrix (``scipy.sparse.csr_matrix`` of int8)."""
        from scipy import sparse

        u, v = self._edges_uv[:, 0], self._edges_uv[:, 1]
        if orientation == "symmetric":
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
        elif orientation == "upper":
            rows, cols = u, v
        elif orientation == "lower":
            rows, cols = v, u
        else:
            raise GraphError(f"unknown orientation {orientation!r}")
        data = np.ones(rows.size, dtype=np.int8)
        shape = (self._num_vertices, self._num_vertices)
        return sparse.csr_matrix((data, (rows, cols)), shape=shape)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def relabel(self, permutation: np.ndarray) -> "Graph":
        """Return a copy with vertex ``v`` renamed ``permutation[v]``.

        ``permutation`` must be a bijection over ``0..n-1``.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (self._num_vertices,):
            raise GraphError(
                f"permutation must have length {self._num_vertices}, "
                f"got shape {permutation.shape}"
            )
        if not np.array_equal(np.sort(permutation), np.arange(self._num_vertices)):
            raise GraphError("permutation is not a bijection over the vertices")
        relabelled = permutation[self._edges_uv]
        return Graph(self._num_vertices, relabelled)

    def relabel_by_degree(self, descending: bool = False) -> "Graph":
        """Relabel vertices by ascending (default) or descending degree.

        Degree ordering is the classic preprocessing step for
        intersection-based triangle counting; it also concentrates the
        non-zeros of the oriented adjacency matrix, which changes the
        valid-slice statistics of Section IV-B (explored by the ablation
        benchmarks).
        """
        order = np.argsort(self.degrees(), kind="stable")
        if descending:
            order = order[::-1]
        permutation = np.empty(self._num_vertices, dtype=np.int64)
        permutation[order] = np.arange(self._num_vertices)
        return self.relabel(permutation)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertices`` (relabelled to ``0..k-1`` in the
        given order)."""
        vertex_list = np.asarray(list(vertices), dtype=np.int64)
        if vertex_list.size != np.unique(vertex_list).size:
            raise GraphError("subgraph vertex list contains duplicates")
        if vertex_list.size and (
            vertex_list.min() < 0 or vertex_list.max() >= self._num_vertices
        ):
            raise GraphError("subgraph vertex out of range")
        position = np.full(self._num_vertices, -1, dtype=np.int64)
        position[vertex_list] = np.arange(vertex_list.size)
        u, v = self._edges_uv[:, 0], self._edges_uv[:, 1]
        keep = (position[u] >= 0) & (position[v] >= 0)
        edges = np.stack([position[u[keep]], position[v[keep]]], axis=1)
        return Graph(vertex_list.size, edges)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and np.array_equal(self._edges_uv, other._edges_uv)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is enough
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self._num_vertices}, num_edges={self.num_edges})"

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )


def _as_edge_array(edges: Iterable | np.ndarray) -> np.ndarray:
    """Normalise any edge input into an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        array = edges.astype(np.int64, copy=False)
    else:
        array = np.array(list(edges), dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphError(f"edge list must have shape (m, 2), got {array.shape}")
    return array


def _canonicalise_edges(edge_array: np.ndarray, num_vertices: int) -> np.ndarray:
    """Drop self-loops, orient ``u < v``, deduplicate, sort lexicographically.

    Sorts one ``u * n + v`` key per edge and drops equal neighbours, which
    beats a hash-based ``np.unique`` on large int64 arrays.  The result is
    always a new array, never the caller's.
    """
    if edge_array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    n = np.int64(num_vertices)
    not_loop = edge_array[:, 0] != edge_array[:, 1]
    u, v = edge_array[not_loop, 0], edge_array[not_loop, 1]
    # Safe because u * n + v < n**2 <= 2**63 for any graph that fits in
    # memory.
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    keys = _run_heads(keys)
    out = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(out[:, 0], out[:, 1]))
    return out


def _build_csr(edges_uv: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the symmetric CSR arrays from canonical ``u < v`` edges: one
    sort of the ``source * n + target`` keys of both directions."""
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if edges_uv.size == 0:
        return indptr, np.empty(0, dtype=np.int64)
    n = np.int64(num_vertices)
    u, v = edges_uv[:, 0], edges_uv[:, 1]
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    indices = keys % n
    np.cumsum(np.bincount(edges_uv.ravel(), minlength=num_vertices), out=indptr[1:])
    return indptr, indices


def _run_heads(values: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (a hash-free ``np.unique``)."""
    head = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return values[head]
