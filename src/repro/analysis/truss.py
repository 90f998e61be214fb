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
After a small batch of edge updates, :func:`trussness_after_deletes` and
:func:`trussness_after_inserts` settle only the edges the batch can
move, reading triangles edge by edge instead of from a list.
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
    "trussness_after_deletes",
    "trussness_after_inserts",
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


def trussness_after_deletes(
    trussness: np.ndarray, seeds: np.ndarray, triangles_of
) -> np.ndarray | None:
    """Exact trussness after a batch of edge deletions, updated locally.

    ``trussness`` holds the values before the batch, on the surviving
    edges' new ids, and ``seeds`` the surviving edges of the destroyed
    triangles.  ``triangles_of(edges)`` returns ``(which, f, g)``: one
    entry per triangle of the current graph through ``edges[which]``,
    ``f`` and ``g`` its other two edge ids.

    Trussness is the greatest fixed point of ``x ← min(x, H(x))``, where
    ``H(x)(e)`` is ``max(2, max_j min(m_j, j + 2))`` over ``e``'s
    triangles sorted by ``m = min(x(f), x(g))``, descending (Sariyüce et
    al., VLDB 2018); iterating from any pointwise upper bound lands on
    it exactly.  Deletions only lower trussness, so the old values bound
    the new ones, and only the seeds can start out above ``H``.  Values
    drop only inside the iteration: an edge is re-evaluated when a
    triangle partner drops from at least its value to below it.

    Returns a new array, or ``None`` once the distinct edges examined
    pass ``max(LOCAL_UPDATE_CAP, m // 32)``: the caller then re-peels.
    """
    region = _Region(trussness, triangles_of)
    try:
        region.settle(np.unique(seeds))
    except _PastCap:
        return None
    return region.x


def trussness_after_inserts(
    trussness: np.ndarray, inserted: np.ndarray, triangles_of
) -> np.ndarray | None:
    """Exact trussness after a batch of edge insertions, updated locally.

    ``trussness`` holds the values before the batch on the new edge ids
    (the inserted edges' entries are overwritten), ``inserted`` the new
    edges to settle, in order, and ``triangles_of`` the triangles of the
    graph after the whole batch, as for :func:`trussness_after_deletes`.
    An inserted edge that lies in no triangle of that graph has
    trussness 2 and moves nothing, so callers may leave it out of
    ``inserted`` and set its 2 themselves.

    The edges settle one at a time, the later ones masked out.  One
    insert raises any trussness by at most 1, and only for edges ``f``
    with ``τ(f) = k`` below the new edge's bound ``H(τ + 1)`` that it
    reaches through triangles whose third edge has ``τ >= k``, the new
    edge counting as infinite (Huang et al., SIGMOD 2014); an edge with
    fewer than ``k - 1`` such triangles cannot rise and is not searched
    through.  The survivors rise by 1, the new edge takes its bound, and
    the fixed-point iteration of :func:`trussness_after_deletes` settles
    them.  Returns ``None`` past the same cap.
    """
    inserted = np.asarray(inserted, dtype=np.int64)
    absent = np.zeros(np.size(trussness), dtype=bool)
    absent[inserted] = True
    region = _Region(trussness, triangles_of, absent)
    try:
        # Every inserted edge's triangles in one query, masked per step.
        which, f, g = region.query(inserted)
        order = np.argsort(which, kind="stable")
        runs = np.searchsorted(which[order], np.arange(inserted.size + 1))
        for index, edge in enumerate(inserted.tolist()):
            absent[edge] = False
            mine = order[runs[index]: runs[index + 1]]
            region.insert(edge, f[mine], g[mine])
    except _PastCap:
        return None
    return region.x


class _PastCap(Exception):
    """A local trussness update examined more edges than its cap allows."""


class _Region:
    """The working values of one local trussness update.

    Every ``triangles_of`` query goes through :meth:`query`, which counts
    the distinct edges queried against the cap; :meth:`triangles` also
    drops the triangles through a masked edge.
    """

    def __init__(self, trussness, triangles_of, absent=None) -> None:
        self.x = np.array(trussness, dtype=np.int64)
        self.triangles_of = triangles_of
        self.absent = absent
        self.touched = np.zeros(self.x.size, dtype=bool)
        self.budget = max(LOCAL_UPDATE_CAP, self.x.size // 32)

    def query(self, edges: np.ndarray):
        """``triangles_of(edges)``, masked edges included."""
        fresh = edges[~self.touched[edges]]
        self.touched[fresh] = True
        self.budget -= fresh.size
        if self.budget < 0:
            raise _PastCap
        return self.triangles_of(edges)

    def triangles(self, edges: np.ndarray):
        which, f, g = self.query(edges)
        if self.absent is not None:
            live = ~(self.absent[f] | self.absent[g])
            which, f, g = which[live], f[live], g[live]
        return which, f, g

    def settle(self, work: np.ndarray) -> None:
        """Lower ``work`` to ``min(x, H(x))`` until no value moves."""
        x = self.x
        while work.size:
            which, f, g = self.triangles(work)
            old = x[work]
            new = np.minimum(old, _h_bound(work.size, which, np.minimum(x[f], x[g])))
            x[work] = new
            hit = (new < old)[which]
            partners = np.concatenate([f[hit], g[hit]])
            above = np.tile(old[which[hit]], 2)
            below = np.tile(new[which[hit]], 2)
            value = x[partners]
            work = np.unique(partners[(below < value) & (value <= above)])

    def insert(self, edge: int, f: np.ndarray, g: np.ndarray) -> None:
        """Settle ``edge``, just unmasked, with triangle partners ``f``,
        ``g``, and the edges it can raise."""
        x = self.x
        live = ~(self.absent[f] | self.absent[g])
        f, g = f[live], g[live]
        which = np.zeros(f.size, dtype=np.int64)
        held = np.minimum(x[f], x[g])
        bound = int(_h_bound(1, which, held + 1)[0])
        if not (held < bound).any():
            # No partner below the bound, so nothing else can rise, and
            # the edge's own H is exact (with no triangle, 2).
            x[edge] = _h_bound(1, which, held)[0]
            return
        x[edge] = _INFINITE
        seen = np.zeros(x.size, dtype=bool)
        seen[edge] = True
        frontier = np.array([edge])
        raised = []
        while frontier.size:
            which, f, g = self.triangles(frontier)
            level = x[frontier]
            at = level[which]
            held = np.minimum(x[f], x[g]) >= at
            kept = (level == _INFINITE) | (
                np.bincount(which[held], minlength=frontier.size) >= level - 1
            )
            raised.append(frontier[kept & (level != _INFINITE)])
            steps = []
            for near, far in ((f, g), (g, f)):
                step = (
                    kept[which]
                    & (x[near] < bound)
                    & ((x[near] == at) | (at == _INFINITE))
                    & (x[far] >= x[near])
                )
                steps.append(near[step])
            frontier = np.unique(np.concatenate(steps))
            frontier = frontier[~seen[frontier]]
            seen[frontier] = True
        raised = np.concatenate(raised)
        x[raised] += 1
        x[edge] = bound
        self.settle(np.append(raised, edge))


#: Distinct edges a local trussness update may examine before it gives
#: up and the caller re-peels: ``max(this, m // 32)``.
LOCAL_UPDATE_CAP = 1024

#: The value a just-inserted edge holds during its candidate search.
_INFINITE = np.iinfo(np.int64).max


def _h_bound(count: int, which: np.ndarray, held: np.ndarray) -> np.ndarray:
    """``H`` of ``count`` edges: ``max(2, max_j min(m_j, j + 2))`` over
    each edge's triangles ``which == i``, ``m = held`` sorted descending."""
    bound = np.full(count, 2, dtype=np.int64)
    if which.size:
        order = np.lexsort((-held, which))
        which, held = which[order], held[order]
        rank = np.arange(which.size) - np.searchsorted(which, which) + 1
        np.maximum.at(bound, which, np.minimum(held, rank + 2))
    return bound


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
