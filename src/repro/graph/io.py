"""Graph file I/O.

Supports the SNAP plain-text edge-list format used by the paper's dataset
collection [17]: one ``u v`` pair per line, ``#``-prefixed comment lines,
arbitrary (possibly non-contiguous) integer vertex identifiers.  Vertex
identifiers are compacted onto ``0..n-1`` preserving their sorted order,
the same normalisation SNAP tools apply before triangle counting.

Parsing streams through bounded blocks of whole lines
(:func:`iter_edge_chunks`): about a megabyte of a file, or a fixed number
of a text stream's lines.  :func:`numpy.loadtxt` parses a file's block in
C once its bytes are known to mean to it what they mean to the line
parser: ASCII, ``\\n`` or ``\\r\\n`` line ends, and ``#``/``%`` comments
only as whole lines.  Any other block (a lone ``\\r`` line end, a byte
beyond ASCII, a malformed line), and every block of a text stream, is
read by the line parser, which is the reference: every accepted file and
every error, with its message and line number, is the line parser's.
:func:`read_edge_list` holds one block plus the accumulated ``int64``
arrays, so peak parse memory is ``O(block + edges)``, and a
``max_edges`` guard lets out-of-core callers refuse inputs beyond their
budget before the rest of the file is read.

A compact ``.npz`` binary format is provided for caching generated
synthetic datasets between benchmark runs.
"""

from __future__ import annotations

import io as _io
from itertools import islice
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = [
    "iter_edge_chunks",
    "read_edge_list",
    "write_edge_list",
    "read_npz",
    "write_npz",
    "load_graph",
]

#: Edges per yielded chunk: large enough that per-chunk numpy overhead
#: vanishes, small enough that a streaming consumer holds ~4 MB at once.
DEFAULT_CHUNK_EDGES = 262_144

#: Bytes of a file read per parsed block (it ends at a line end, so one
#: longer line makes a longer block).
_BLOCK_BYTES = 1 << 20
#: Lines of a text stream the line parser reads per block.
_BLOCK_LINES = 1 << 16
#: The bytes a data line parsed in C may hold: printable ASCII, tab, and
#: the CRLF line end.  A control byte such as ``\x1c`` is whitespace to
#: ``str.split`` and ``loadtxt`` alike, but a block of nothing else makes
#: ``loadtxt`` warn of no data; the line parser reads it.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
#: Both comment marks as one byte, so one ``find`` walks them in order.
_PERCENT_AS_HASH = bytes.maketrans(b"%", b"#")
#: Vertex ids must fit an int64.
_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1


def iter_edge_chunks(
    path: str | Path | _io.TextIOBase,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    strict: bool = False,
):
    """Stream a SNAP-style edge list as ``(k, 2)`` int64 arrays.

    Yields raw (uncompacted) endpoint arrays of ``chunk_edges`` rows each
    (the last may be shorter), in file order.  Comment and malformed-line
    handling match :func:`read_edge_list`; this is its streaming core,
    exposed for callers that want to fold over a file too large to hold
    as one edge array (external partitioners, filters, samplers).  The
    chunks completed before a malformed line are yielded before its
    error is raised.
    """
    if chunk_edges < 1:
        raise GraphFormatError(f"chunk_edges must be >= 1, got {chunk_edges}")
    if isinstance(path, (str, Path)):
        with open(path, "rb") as handle:
            yield from _iter_chunks(_file_blocks(handle), str(path), chunk_edges, strict)
    else:
        blocks = iter(lambda: list(islice(path, _BLOCK_LINES)), [])
        yield from _iter_chunks(blocks, "<stream>", chunk_edges, strict)


def _file_blocks(handle):
    """Whole-line byte blocks of a binary file.

    A block ends after a line end; a ``\\r`` that ends a read stays for
    the next block, which may start with the ``\\n`` of its CRLF.
    """
    tail = b""
    while read := handle.read(_BLOCK_BYTES):
        data = tail + read
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        data, tail = data[:cut], data[cut:]
        if data:
            yield data
    if tail:
        yield tail


def _iter_chunks(blocks, name: str, chunk_edges: int, strict: bool):
    """The rows of ``blocks`` in ``chunk_edges``-row chunks.  A block is a
    file's whole-line bytes, which :func:`_parse_block` parses in C where
    it can, or a text stream's own lines.  The line parser reads the rest,
    a file's block split at ``\\n``, ``\\r\\n`` or a lone ``\\r`` as text
    mode splits it."""
    pending: list[np.ndarray] = []
    held = 0
    line_number = 1
    for block in blocks:
        rows = _parse_block(block, strict) if isinstance(block, bytes) else None
        error = None
        if rows is None:
            lines = block.splitlines() if isinstance(block, bytes) else block
            sources: list[int] = []
            targets: list[int] = []
            try:
                for u, v in _parse_lines(lines, name, line_number, strict):
                    sources.append(u)
                    targets.append(v)
            except GraphFormatError as exc:
                # Raised below, once the chunks completed before the bad
                # line are out: a consumer may stop on one (max_edges).
                error = exc
            rows = np.stack(
                [np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)],
                axis=1,
            )
            line_number += len(lines)
        else:
            # Only a file's last block can end without a line end.
            line_number += block.count(b"\n")
        pending.append(rows)
        held += len(rows)
        if held >= chunk_edges:
            # The chunks are views of one array of exactly their rows; the
            # rows left over stay in this block's own array.
            left = held % chunk_edges
            cut = len(rows) - left
            merged = np.concatenate([*pending[:-1], rows[:cut]])
            for start in range(0, held - left, chunk_edges):
                yield merged[start:start + chunk_edges]
            pending, held = [rows[cut:]], left
        if error is not None:
            raise error
    if held:
        yield np.concatenate(pending)


def _parse_block(data: bytes, strict: bool) -> np.ndarray | None:
    """The ``(k, 2)`` edges of a block of whole lines, parsed in C, or
    ``None`` when the line parser must read the block."""
    if not data.isascii():
        # The line parser decodes each line: a byte that is not UTF-8
        # names its line, even in a comment.
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None  # text mode ends a line at a lone CR; loadtxt does not
    if b"#" in data or b"%" in data:
        data = _drop_comment_lines(data)
    if data.translate(None, _PLAIN_BYTES):
        return None
    if not data.strip():
        return np.empty((0, 2), dtype=np.int64)
    try:
        rows = np.loadtxt(
            _io.StringIO(data.decode("ascii")),
            dtype=np.int64,
            comments=None,
            usecols=None if strict else (0, 1),
            ndmin=2,
        )
    except ValueError:
        return None  # a malformed line, or an id beyond int64
    return rows if rows.shape[1] == 2 else None


def _drop_comment_lines(data: bytes) -> bytes:
    """``data`` without its comment lines: those whose first byte other
    than a space or tab is ``#`` or ``%``.  A mark later in a line stays,
    as it does for the line parser (an extra column, or a malformed id)."""
    marked = data.translate(_PERCENT_AS_HASH)
    kept = []
    copied = position = 0
    while (mark := marked.find(b"#", position)) >= 0:
        start = marked.rfind(b"\n", 0, mark) + 1
        position = marked.find(b"\n", mark) + 1 or len(marked)
        if not marked[start:mark].strip(b" \t"):
            kept.append(data[copied:start])
            copied = position
    kept.append(data[copied:])
    return b"".join(kept)


def _parse_lines(lines, name: str, line_number: int, strict: bool):
    """The line parser: yield ``(u, v)`` for each edge line of ``lines``
    (``str``, or ``bytes`` read from a file and decoded here), numbered
    from ``line_number``; raise :class:`GraphFormatError` naming
    ``name:line`` at the first malformed one."""
    for line_number, line in enumerate(lines, start=line_number):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise GraphFormatError(
                    f"{name}:{line_number}: not UTF-8 text: {line.strip()!r}"
                ) from exc
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        fields = stripped.split()
        if len(fields) < 2:
            raise GraphFormatError(
                f"{name}:{line_number}: expected 'u v', got {stripped!r}"
            )
        if strict and len(fields) > 2:
            raise GraphFormatError(
                f"{name}:{line_number}: expected exactly 'u v' in strict "
                f"mode, got {len(fields)} fields in {stripped!r}"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{name}:{line_number}: non-integer vertex in {stripped!r}"
            ) from exc
        if not (_ID_MIN <= u <= _ID_MAX and _ID_MIN <= v <= _ID_MAX):
            raise GraphFormatError(
                f"{name}:{line_number}: vertex id beyond int64 in {stripped!r}"
            )
        yield u, v


def read_edge_list(
    path: str | Path | _io.TextIOBase,
    strict: bool = False,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    max_edges: int | None = None,
) -> Graph:
    """Parse a SNAP-style whitespace-separated edge list.

    Lines starting with ``#`` (or ``%``, used by some mirrors) are ignored.
    Raises :class:`GraphFormatError` naming ``file:line`` on malformed
    lines: fewer than two fields, non-integer endpoints, an endpoint
    beyond the int64 range, or (read from a path) bytes that are not
    UTF-8, even inside a comment line.

    Lines with *more* than two fields — weighted or timestamped SNAP
    exports such as ``u v weight`` — are accepted by default and the extra
    columns are ignored, reading only the ``(u, v)`` endpoints.  Pass
    ``strict=True`` to treat any extra column as malformed and raise
    instead, which guards against accidentally importing a file whose
    third column was actually part of the edge key.

    Parsing streams in ``chunk_edges``-sized windows; ``max_edges``
    (when set) aborts with :class:`GraphFormatError` as soon as the file
    exceeds that many edge lines, *before* the rest is read —
    the admission guard for memory-budgeted out-of-core loads.
    """
    if max_edges is not None and max_edges < 0:
        raise GraphFormatError(f"max_edges must be >= 0, got {max_edges}")
    name = str(path) if isinstance(path, (str, Path)) else "<stream>"
    chunks: list[np.ndarray] = []
    total = 0
    for chunk in iter_edge_chunks(path, chunk_edges=chunk_edges, strict=strict):
        total += len(chunk)
        if max_edges is not None and total > max_edges:
            raise GraphFormatError(
                f"{name}: edge list exceeds max_edges={max_edges} "
                f"(aborted after {total} edges)"
            )
        chunks.append(chunk)
    if not chunks:
        return Graph(0)
    raw = np.concatenate(chunks, axis=0)
    compact = _compact_vertex_ids(raw)
    num_vertices = int(compact.max()) + 1 if compact.size else 0
    return Graph(num_vertices, compact)


def _compact_vertex_ids(edges: np.ndarray) -> np.ndarray:
    """Map arbitrary integer vertex ids onto ``0..n-1`` (sorted order)."""
    unique_ids, inverse = np.unique(edges.ravel(), return_inverse=True)
    del unique_ids
    return inverse.reshape(edges.shape).astype(np.int64)


def write_edge_list(graph: Graph, path: str | Path, header: str | None = None) -> None:
    """Write a graph in the SNAP edge-list format (``u < v`` per line)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for header_line in header.splitlines():
                handle.write(f"# {header_line}\n")
        handle.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")


def write_npz(graph: Graph, path: str | Path) -> None:
    """Save a graph to a compressed ``.npz`` file."""
    path = Path(path)
    np.savez_compressed(
        path,
        num_vertices=np.int64(graph.num_vertices),
        edges=graph.edge_array(),
    )


def read_npz(path: str | Path) -> Graph:
    """Load a graph previously saved with :func:`write_npz`."""
    with np.load(Path(path)) as data:
        try:
            num_vertices = int(data["num_vertices"])
            edges = data["edges"]
        except KeyError as exc:
            raise GraphFormatError(f"{path}: missing field {exc}") from exc
    return Graph(num_vertices, edges)


def load_graph(
    path: str | Path, strict: bool = False, *, max_edges: int | None = None
) -> Graph:
    """Load a graph, dispatching on file extension (``.npz`` vs text).

    ``strict`` and ``max_edges`` are forwarded to :func:`read_edge_list`
    for text files; for ``.npz`` files ``max_edges`` is checked against
    the stored edge count after the (already compact) load.
    """
    path = Path(path)
    if path.suffix == ".npz":
        graph = read_npz(path)
        if max_edges is not None and graph.num_edges > max_edges:
            raise GraphFormatError(
                f"{path}: graph has {graph.num_edges} edges, over "
                f"max_edges={max_edges}"
            )
        return graph
    return read_edge_list(path, strict=strict, max_edges=max_edges)
