"""Dynamic (incremental) triangle counting.

Real deployments stream edges; recounting from scratch per update wastes
exactly the bandwidth TCIM is built to save.  This extension maintains the
triangle count under edge insertions and deletions using the same
common-neighbour primitive as the bitwise method: inserting ``{u, v}``
adds ``|N(u) & N(v)|`` triangles, deleting removes the same amount.

The counter keeps adjacency sets (so updates are O(min degree)) and is
validated against full recounts in the test-suite.  ``to_graph()``
snapshots the current state for handoff to the TCIM accelerator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph

__all__ = ["DynamicTriangleCounter", "OP_CODES", "parse_op", "parse_vertex"]

#: Accepted operation codes for op streams, shared by the oracle and the
#: session's incremental fast path (:mod:`repro.api`) so both fronts
#: accept exactly the same streams.
OP_CODES = {
    "+": "insert",
    "insert": "insert",
    "-": "delete",
    "delete": "delete",
}


def parse_op(op, index: int) -> tuple[str, int, int]:
    """Validate one stream entry; returns ``(action, u, v)``.

    ``action`` is ``"insert"`` or ``"delete"``; malformed triples,
    unknown codes and non-integer vertices (see :func:`parse_vertex`)
    raise :class:`GraphError` naming the offending index.
    """
    try:
        code, u, v = op
    except (TypeError, ValueError):
        raise GraphError(
            f"op {index} must be an (op, u, v) triple, got {op!r}"
        ) from None
    try:
        action = OP_CODES[code]
    except (KeyError, TypeError):
        raise GraphError(
            f"op {index}: unknown operation {code!r}; "
            "expected '+'/'insert' or '-'/'delete'"
        ) from None
    if type(u) is not int or type(v) is not int:
        u, v = (parse_vertex(end, f"op {index}") for end in (u, v))
    return action, u, v


def parse_vertex(value, where: str) -> int:
    """``value``, a Python or numpy integer, as an ``int``; a bool, a
    float or a string raises :class:`GraphError` prefixed ``where``."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    raise GraphError(f"{where}: vertex {value!r} is not an integer")


class DynamicTriangleCounter:
    """Exact triangle count maintained under edge insertions/deletions.

    >>> counter = DynamicTriangleCounter(3)
    >>> counter.insert(0, 1); counter.insert(1, 2); counter.insert(0, 2)
    0
    0
    1
    >>> counter.triangles
    1
    """

    def __init__(self, num_vertices: int, graph: Graph | None = None) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._num_vertices = num_vertices
        self._adjacency: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        self._triangles = 0
        if graph is not None:
            if graph.num_vertices > num_vertices:
                raise GraphError(
                    f"seed graph has {graph.num_vertices} vertices but the "
                    f"counter only {num_vertices}"
                )
            for u, v in graph.edges():
                self.insert(u, v)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return self._num_edges

    @property
    def triangles(self) -> int:
        """Current exact triangle count."""
        return self._triangles

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is currently present."""
        self._check(u)
        self._check(v)
        return v in self._adjacency[u]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, u: int, v: int) -> int:
        """Insert edge ``{u, v}``; returns the triangles it closed.

        Inserting an existing edge or a self-loop is a no-op returning 0.
        """
        self._check(u)
        self._check(v)
        if u == v or v in self._adjacency[u]:
            return 0
        closed = self._common_count(u, v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._triangles += closed
        return closed

    def delete(self, u: int, v: int) -> int:
        """Delete edge ``{u, v}``; returns the triangles it opened.

        Deleting a missing edge is a no-op returning 0.
        """
        self._check(u)
        self._check(v)
        if u == v or v not in self._adjacency[u]:
            return 0
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        opened = self._common_count(u, v)
        self._num_edges -= 1
        self._triangles -= opened
        return opened

    def apply(self, insertions=(), deletions=(), record: bool = False):
        """Apply a two-list batch of updates; returns the net triangle delta.

        **Ordering semantics**: *all* insertions are applied first, then
        *all* deletions — regardless of how the caller interleaved the
        operations before splitting them into the two lists.  Inserting
        and deleting the same edge in one batch therefore nets to the
        edge being absent.  When the relative order of mixed operations
        matters (e.g. delete ``{u, v}`` *then* re-insert it), use
        :meth:`apply_ops`, which consumes a single ordered stream.

        With ``record=True`` the return value is ``(net, deltas)`` where
        ``deltas`` holds the *signed* per-operation triangle delta in
        application order (insertions first, then deletions; no-ops
        record 0) — the hook the differential tests use to cross-check
        an incremental engine op by op.
        """
        before = self._triangles
        deltas: list[int] = []
        for u, v in insertions:
            deltas.append(self.insert(u, v))
        for u, v in deletions:
            deltas.append(-self.delete(u, v))
        net = self._triangles - before
        return (net, deltas) if record else net

    #: Accepted operation codes for :meth:`apply_ops` (kept as a class
    #: attribute for backwards compatibility; :data:`OP_CODES` is the
    #: shared source of truth).
    _OP_CODES = OP_CODES

    def apply_ops(self, ops, record: bool = False):
        """Apply one ordered stream of updates; returns the net delta.

        ``ops`` is an iterable of ``(op, u, v)`` triples where ``op`` is
        ``"+"``/``"insert"`` or ``"-"``/``"delete"``.  Operations are
        applied exactly in the given order, so
        ``[("+", u, v), ("-", u, v)]`` ends with the edge absent while
        ``[("-", u, v), ("+", u, v)]`` ends with it present — the
        distinction :meth:`apply`'s two-list form cannot express.

        With ``record=True`` the return value is ``(net, deltas)`` where
        ``deltas[i]`` is the signed triangle delta of ``ops[i]`` (0 for
        no-ops) — so an incremental engine can be cross-checked against
        this oracle operation by operation, not just on the net total.

        >>> counter = DynamicTriangleCounter(3)
        >>> counter.apply_ops([("+", 0, 1), ("+", 1, 2), ("+", 0, 2),
        ...                    ("-", 0, 1)])
        0
        >>> counter.apply_ops([("+", 0, 1)])
        1
        >>> counter.apply_ops([("-", 0, 1), ("+", 0, 1)], record=True)
        (0, [-1, 1])
        """
        before = self._triangles
        deltas: list[int] = []
        for index, op in enumerate(ops):
            action, u, v = parse_op(op, index)
            if action == "insert":
                deltas.append(self.insert(u, v))
            else:
                deltas.append(-self.delete(u, v))
        net = self._triangles - before
        return (net, deltas) if record else net

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Snapshot the current edge set as an immutable :class:`Graph`."""
        edges = [
            (u, v)
            for u in range(self._num_vertices)
            for v in self._adjacency[u]
            if u < v
        ]
        return Graph(self._num_vertices, edges)

    def _common_count(self, u: int, v: int) -> int:
        first, second = self._adjacency[u], self._adjacency[v]
        if len(second) < len(first):
            first, second = second, first
        return sum(1 for w in first if w in second)

    def _check(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )
