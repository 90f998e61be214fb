"""Graph metrics built on triangle counting.

The paper motivates TC as "the first fundamental step in calculating
metrics such as clustering coefficient and transitivity ratio" — this
module provides those consumers, so the examples can show the accelerator
plugged into a real analysis pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = [
    "triangles_per_vertex",
    "local_clustering",
    "average_clustering",
    "wedge_count",
    "transitivity",
    "degree_statistics",
]


def triangles_per_vertex(graph: Graph) -> np.ndarray:
    """Number of triangles through each vertex.

    Sums to three times the triangle count (each triangle touches three
    vertices).
    """
    indptr, indices = graph.csr
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for u, v in graph.edge_array().tolist():
        neighbours_u = indices[indptr[u]: indptr[u + 1]]
        neighbours_v = indices[indptr[v]: indptr[v + 1]]
        common = np.intersect1d(neighbours_u, neighbours_v, assume_unique=True)
        if common.size:
            # Each common neighbour w closes one triangle {u, v, w}; that
            # triangle is seen once per edge, i.e. three times in total,
            # contributing exactly once to each of its three corners.
            np.add.at(counts, common, 1)
    return counts


def _degrees(graph: Graph | None, degrees: np.ndarray | None) -> np.ndarray:
    """``degrees`` when passed, else ``graph.degrees()``."""
    if degrees is not None:
        return np.asarray(degrees)
    if graph is None:
        raise GraphError("pass a graph or its vertex degrees")
    return graph.degrees()


def local_clustering(
    graph: Graph | None = None,
    triangles: np.ndarray | None = None,
    *,
    degrees: np.ndarray | None = None,
) -> np.ndarray:
    """Watts-Strogatz local clustering coefficient per vertex.

    ``C_v = triangles(v) / C(deg(v), 2)``; vertices of degree < 2 get 0.
    ``triangles`` optionally passes precomputed per-vertex triangle
    counts (e.g. the corner tallies of a session's triangle list, as
    :meth:`repro.api.TCIMSession.clustering` passes them) to skip the
    :func:`triangles_per_vertex` recomputation, and ``degrees``
    the vertex degrees; with both passed, ``graph`` may be ``None``.
    """
    degrees = _degrees(graph, degrees).astype(np.float64)
    possible = degrees * (degrees - 1) / 2.0
    if triangles is None:
        if graph is None:
            raise GraphError("pass a graph or its per-vertex triangle counts")
        triangles = triangles_per_vertex(graph)
    triangles = np.asarray(triangles).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coefficients = np.where(possible > 0, triangles / possible, 0.0)
    return coefficients


def average_clustering(graph: Graph, triangles: np.ndarray | None = None) -> float:
    """Mean of the local clustering coefficients (0.0 for empty graphs).

    ``triangles`` passes through to :func:`local_clustering`.
    """
    if graph.num_vertices == 0:
        return 0.0
    return float(local_clustering(graph, triangles=triangles).mean())


def wedge_count(
    graph: Graph | None = None, *, degrees: np.ndarray | None = None
) -> int:
    """Number of paths of length two (``sum_v C(deg(v), 2)``).

    ``degrees`` optionally passes the vertex degrees (then ``graph`` may
    be ``None``).
    """
    degrees = _degrees(graph, degrees).astype(np.int64)
    return int((degrees * (degrees - 1) // 2).sum())


def transitivity(
    graph: Graph | None = None,
    num_triangles: int | None = None,
    *,
    degrees: np.ndarray | None = None,
) -> float:
    """Global transitivity ratio ``3 * triangles / wedges``.

    ``num_triangles`` may be supplied (e.g. from the TCIM accelerator) to
    avoid recounting, and ``degrees`` as for :func:`wedge_count`; with
    both passed, ``graph`` may be ``None``.
    """
    wedges = wedge_count(graph, degrees=degrees)
    if wedges == 0:
        return 0.0
    if num_triangles is None:
        if graph is None:
            raise GraphError("pass a graph or its triangle count")
        num_triangles = int(triangles_per_vertex(graph).sum()) // 3
    return 3.0 * num_triangles / wedges


def degree_statistics(graph: Graph) -> dict[str, float]:
    """Degree summary used by the dataset characterisation benchmarks."""
    degrees = graph.degrees()
    if degrees.size == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "median": 0.0, "sum_squared": 0.0}
    return {
        "min": float(degrees.min()),
        "max": float(degrees.max()),
        "mean": float(degrees.mean()),
        "median": float(np.median(degrees)),
        "sum_squared": float((degrees.astype(np.float64) ** 2).sum()),
    }
