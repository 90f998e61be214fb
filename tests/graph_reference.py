"""Reference graph construction and edge-list reading, the oracles of
``Graph`` and ``repro.graph.io``.

``Graph`` canonicalises its edges with one sort of ``u * n + v`` keys and
builds its CSR with one key sort, and ``read_edge_list`` parses blocks in
C.  These functions are the construction they replaced, and the
compaction ``read_edge_list`` still uses:

* :func:`canonical_edges` — drop loops, orient ``u < v``, ``np.unique``
  the keys;
* :func:`csr` — ``np.lexsort`` of both directions of the canonical edges;
* :func:`compact_vertex_ids` — ``np.unique(..., return_inverse=True)``;
* :func:`read_edge_list` — the line parser alone
  (``repro.graph.io._parse_lines``) over the whole input, chunked and
  ``max_edges``-guarded one line at a time as the reader always was,
  then the three steps above.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.io import DEFAULT_CHUNK_EDGES, _parse_lines


def canonical_edges(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Loop-free, ``u < v``, deduplicated edges sorted lexicographically."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size == 0:
        return edges.reshape(0, 2)
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.unique(u * np.int64(num_vertices) + v)
    out = np.empty((keys.size, 2), dtype=np.int64)
    out[:, 0] = keys // num_vertices
    out[:, 1] = keys % num_vertices
    return out


def csr(edges_uv: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric ``(indptr, indices)`` of canonical edges, rows sorted."""
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if edges_uv.size == 0:
        return indptr, np.empty(0, dtype=np.int64)
    sources = np.concatenate([edges_uv[:, 0], edges_uv[:, 1]])
    targets = np.concatenate([edges_uv[:, 1], edges_uv[:, 0]])
    order = np.lexsort((targets, sources))
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    return indptr, targets[order]


def compact_vertex_ids(edges: np.ndarray) -> np.ndarray:
    """Arbitrary integer ids mapped onto ``0..n-1`` in sorted order."""
    _, inverse = np.unique(edges.ravel(), return_inverse=True)
    return inverse.reshape(edges.shape).astype(np.int64)


def build(num_vertices: int, edges) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(num_vertices, edge_array, indptr, indices)`` of ``Graph(n, edges)``."""
    edges_uv = canonical_edges(edges, num_vertices)
    return (num_vertices, edges_uv, *csr(edges_uv, num_vertices))


def edge_chunks(source, *, chunk_edges: int = DEFAULT_CHUNK_EDGES, strict: bool = False):
    """``iter_edge_chunks`` by the line parser alone: a path is read in
    binary and split at ``\\n``, ``\\r\\n`` or a lone ``\\r``; a stream is
    iterated by its own lines."""
    if isinstance(source, (str, Path)):
        name, lines = str(source), Path(source).read_bytes().splitlines()
    else:
        name, lines = "<stream>", source
    rows: list[tuple[int, int]] = []
    for row in _parse_lines(lines, name, 1, strict):
        rows.append(row)
        if len(rows) == chunk_edges:
            yield np.array(rows, dtype=np.int64)
            rows = []
    if rows:
        yield np.array(rows, dtype=np.int64)


def read_edge_list(
    source,
    strict: bool = False,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    max_edges: int | None = None,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(num_vertices, edge_array, indptr, indices)`` that
    ``read_edge_list`` must return for ``source``, or its error."""
    name = str(source) if isinstance(source, (str, Path)) else "<stream>"
    chunks, total = [], 0
    for chunk in edge_chunks(source, chunk_edges=chunk_edges, strict=strict):
        total += len(chunk)
        if max_edges is not None and total > max_edges:
            raise GraphFormatError(
                f"{name}: edge list exceeds max_edges={max_edges} "
                f"(aborted after {total} edges)"
            )
        chunks.append(chunk)
    if not chunks:
        return build(0, np.empty((0, 2), dtype=np.int64))
    compact = compact_vertex_ids(np.concatenate(chunks))
    return build(int(compact.max()) + 1, compact)


def stream(data: bytes) -> io.StringIO:
    """``data`` as a text stream; bytes that are not UTF-8 become lone
    surrogates, which the line parser reads as text like any other."""
    return io.StringIO(data.decode("utf-8", "surrogateescape"))
