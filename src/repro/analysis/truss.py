"""k-truss decomposition built on triangle support.

The GPU/FPGA accelerators the paper compares against (Huang et al. [3],
Mailthody et al. [2]) target "triangle counting and truss decomposition" —
the two kernels share the common-neighbour machinery.  This module
provides the companion truss decomposition so the repository covers the
same kernel family:

* the **support** of an edge is the number of triangles containing it;
* the **k-truss** is the maximal subgraph whose every edge has support
  >= k - 2 within the subgraph;
* the **trussness** of an edge is the largest k whose k-truss contains it.

Implemented with the standard peeling algorithm (repeatedly remove the
lowest-support edge, decrementing the support of the affected triangle
partners), twice: :func:`truss_decomposition` is the pure-Python oracle
over adjacency sets, and :func:`peel_trussness` peels whole frontiers as
arrays from the triangle list the session's witness pass enumerates.
"""

from __future__ import annotations

import numpy as np

from repro.core.slicing import expand_runs
from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = [
    "edge_support",
    "truss_decomposition",
    "peel_trussness",
    "k_truss",
    "max_trussness",
]


def edge_support(graph: Graph) -> dict[tuple[int, int], int]:
    """Triangles through each edge (keys are ``(u, v)`` with ``u < v``).

    The sum of supports equals three times the triangle count.
    """
    indptr, indices = graph.csr
    support: dict[tuple[int, int], int] = {}
    for u, v in graph.edge_array().tolist():
        neighbours_u = indices[indptr[u]: indptr[u + 1]]
        neighbours_v = indices[indptr[v]: indptr[v + 1]]
        common = np.intersect1d(neighbours_u, neighbours_v, assume_unique=True)
        support[(u, v)] = int(common.size)
    return support


def truss_decomposition(graph: Graph) -> dict[tuple[int, int], int]:
    """Trussness of every edge (the peeling algorithm).

    Returns ``{(u, v): k}`` where ``k`` is the largest value such that the
    k-truss contains the edge; every edge of a graph with any edges has
    trussness >= 2.  The pure-Python oracle: it computes its own
    :func:`edge_support` and peels over adjacency sets, independently of
    :func:`peel_trussness`'s array path.
    """
    adjacency: dict[int, set[int]] = {v: set() for v in range(graph.num_vertices)}
    for u, v in graph.edge_array().tolist():
        adjacency[u].add(v)
        adjacency[v].add(u)
    trussness: dict[tuple[int, int], int] = {}
    remaining = edge_support(graph)
    k = 2
    while remaining:
        # Peel every edge whose support cannot sustain the (k+1)-truss.
        peel = [edge for edge, s in remaining.items() if s <= k - 2]
        if not peel:
            k += 1
            continue
        for edge in peel:
            if edge not in remaining:
                continue
            u, v = edge
            del remaining[edge]
            trussness[edge] = k
            adjacency[u].discard(v)
            adjacency[v].discard(u)
            for w in adjacency[u] & adjacency[v]:
                for other in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                    if other in remaining:
                        remaining[other] -= 1
    return trussness


def peel_trussness(supports: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Trussness of every edge, peeled as arrays.

    ``supports[i]`` is the triangle support of edge ``i`` and
    ``triangles`` the ``(t, 3)`` edge ids of every triangle exactly once
    (:func:`repro.core.kernels.triangle_witnesses`).  Returns the int64
    trussness of each edge — for the same edges, the values of
    :func:`truss_decomposition`.  ``supports`` is not modified.

    An edge→triangle incidence CSR lists each edge's triangles.  At
    level ``k`` the frontier (live edges with support ``<= k - 2``) is
    peeled as a whole: its still-live triangles retire, once each, and
    one ``np.bincount`` takes one support off each of their surviving
    edges.  The edges that drop to ``k - 2`` form the next frontier;
    only when a frontier comes up empty does ``k`` advance, which is the
    one time all live edges are rescanned.
    """
    supports = np.asarray(supports, dtype=np.int64)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    num_edges = int(supports.size)
    flat = triangles.reshape(-1)
    if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= num_edges):
        raise GraphError(
            f"triangle edge ids fall outside the {num_edges} supported edges"
        )
    counts = np.bincount(flat, minlength=num_edges)
    if not np.array_equal(counts, supports):
        edge = int(np.flatnonzero(counts != supports)[0])
        raise GraphError(
            f"edge {edge} has support {int(supports[edge])} but lies in "
            f"{int(counts[edge])} of the listed triangles"
        )
    starts = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    # Any order within an edge's run will do, so no stable sort.
    incident = np.argsort(flat) // 3
    support = supports.copy()
    trussness = np.zeros(num_edges, dtype=np.int64)
    edge_live = np.ones(num_edges, dtype=bool)
    triangle_live = np.ones(triangles.shape[0], dtype=bool)
    edge_scratch = np.empty(num_edges, dtype=np.int64)
    triangle_scratch = np.empty(triangles.shape[0], dtype=np.int64)
    k = 2
    live = np.arange(num_edges)
    while live.size:
        k = max(k, int(support[live].min()) + 2)
        frontier = live[support[live] <= k - 2]
        while frontier.size:
            trussness[frontier] = k
            edge_live[frontier] = False
            hit = incident[expand_runs(starts[frontier], counts[frontier])]
            hit = _distinct(hit[triangle_live[hit]], triangle_scratch)
            triangle_live[hit] = False
            survivors = triangles[hit].reshape(-1)
            survivors = survivors[edge_live[survivors]]
            support -= np.bincount(survivors, minlength=num_edges)
            frontier = _distinct(
                survivors[support[survivors] <= k - 2], edge_scratch
            )
        live = np.flatnonzero(edge_live)
        k += 1
    return trussness


def _distinct(ids: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``ids`` with repeats dropped (in no particular order), without a sort.

    ``scratch`` is indexed by id.  Each position writes its own index
    there; whichever write lands last, exactly one position per distinct
    id reads its own index back.
    """
    order = np.arange(ids.size)
    scratch[ids] = order
    return ids[scratch[ids] == order]


def k_truss(graph: Graph, k: int) -> Graph:
    """The k-truss subgraph (same vertex set, edges of trussness >= k)."""
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    trussness = truss_decomposition(graph)
    edges = [edge for edge, value in trussness.items() if value >= k]
    return Graph(graph.num_vertices, np.array(edges, dtype=np.int64).reshape(-1, 2))


def max_trussness(graph: Graph) -> int:
    """The largest k with a non-empty k-truss (0 for an edgeless graph)."""
    trussness = truss_decomposition(graph)
    return max(trussness.values(), default=0)
