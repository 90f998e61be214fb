"""Tests for SNAP edge-list and npz graph I/O."""

from __future__ import annotations

import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graph_reference as reference
from repro.errors import GraphFormatError
from repro.graph import io as graph_io
from repro.graph.graph import Graph
from repro.graph.io import (
    iter_edge_chunks,
    load_graph,
    read_edge_list,
    read_npz,
    write_edge_list,
    write_npz,
)


SNAP_SAMPLE = """\
# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 4 Edges: 5
0\t1
0\t2
1\t2
1\t3
2\t3
"""


class TestEdgeListParsing:
    def test_parse_snap_sample(self):
        graph = read_edge_list(io.StringIO(SNAP_SAMPLE))
        assert graph.num_vertices == 4
        assert graph.num_edges == 5

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n% other comment\n\n0 1\n"
        graph = read_edge_list(io.StringIO(text))
        assert graph.num_edges == 1

    def test_non_contiguous_ids_compacted(self):
        text = "100 200\n200 4000\n"
        graph = read_edge_list(io.StringIO(text))
        assert graph.num_vertices == 3
        assert graph.num_edges == 2

    def test_duplicate_and_reverse_edges_merged(self):
        text = "0 1\n1 0\n0 1\n"
        graph = read_edge_list(io.StringIO(text))
        assert graph.num_edges == 1

    def test_empty_stream(self):
        graph = read_edge_list(io.StringIO(""))
        assert graph.num_vertices == 0

    def test_malformed_line_raises(self):
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(io.StringIO("0\n"))

    def test_non_integer_raises(self):
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))


class TestExtraColumns:
    """Weighted SNAP exports carry >2 fields; the behaviour is explicit."""

    def test_two_fields_parse_in_both_modes(self):
        assert read_edge_list(io.StringIO("0 1\n")).num_edges == 1
        assert read_edge_list(io.StringIO("0 1\n"), strict=True).num_edges == 1

    def test_three_fields_ignored_by_default(self):
        graph = read_edge_list(io.StringIO("0 1 2.5\n1 2 7\n"))
        assert graph.num_edges == 2
        assert graph.num_vertices == 3

    def test_three_fields_rejected_in_strict_mode(self):
        with pytest.raises(GraphFormatError, match="strict"):
            read_edge_list(io.StringIO("0 1 2.5\n"), strict=True)

    def test_malformed_line_rejected_in_both_modes(self):
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(io.StringIO("0\n"))
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(io.StringIO("0\n"), strict=True)

    def test_strict_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match=":2:"):
            read_edge_list(io.StringIO("0 1\n0 1 9\n"), strict=True)

    def test_load_graph_forwards_strict(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("0 1 3\n", encoding="utf-8")
        assert load_graph(path).num_edges == 1
        with pytest.raises(GraphFormatError, match="strict"):
            load_graph(path, strict=True)


class TestRoundtrips:
    def test_edge_list_roundtrip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(paper_graph, path, header="paper graph")
        assert read_edge_list(path) == paper_graph

    def test_npz_roundtrip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.npz"
        write_npz(paper_graph, path)
        assert read_npz(path) == paper_graph

    def test_npz_missing_field(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, wrong_field=np.arange(3))
        with pytest.raises(GraphFormatError):
            read_npz(path)

    def test_load_graph_dispatch(self, tmp_path, paper_graph):
        text_path = tmp_path / "g.txt"
        npz_path = tmp_path / "g.npz"
        write_edge_list(paper_graph, text_path)
        write_npz(paper_graph, npz_path)
        assert load_graph(text_path) == paper_graph
        assert load_graph(npz_path) == paper_graph

    def test_empty_graph_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_npz(Graph(0), path)
        assert read_npz(path).num_vertices == 0


class TestEncodingAndRange:
    """A byte that is not UTF-8 and an id beyond int64 are malformed lines
    like any other: ``GraphFormatError`` naming ``file:line``, whether the
    block around them would parse in C or needs the line parser (here a
    lone-CR line end earlier in the file)."""

    @pytest.mark.parametrize("before", [b"0 1\n", b"0 1\r"])
    def test_latin1_comment_names_its_line(self, tmp_path, before):
        path = tmp_path / "latin1.txt"
        path.write_bytes(before + "# Café\n1 2\n".encode("latin-1"))
        with pytest.raises(GraphFormatError, match=r"latin1\.txt:2: not UTF-8"):
            read_edge_list(path)

    @pytest.mark.parametrize("before", [b"0 1\n", b"0 1\r"])
    def test_non_utf8_vertex_names_its_line(self, tmp_path, before):
        path = tmp_path / "bytes.txt"
        path.write_bytes(before + b"1 2\n2 \xff3\n")
        with pytest.raises(GraphFormatError, match=r"bytes\.txt:3: not UTF-8"):
            read_edge_list(path)

    @pytest.mark.parametrize("before", ["0 1\n", "0 1\r"])
    @pytest.mark.parametrize("vertex", [str(2**63), str(-(2**63) - 1), "1" * 30])
    def test_id_beyond_int64_names_its_line(self, tmp_path, before, vertex):
        text = before + f"1 2\n2 {vertex}\n"
        path = tmp_path / "big.txt"
        path.write_bytes(text.encode())
        with pytest.raises(GraphFormatError, match=r"big\.txt:3: vertex id beyond int64"):
            read_edge_list(path)
        line = 2 if before.endswith("\r") else 3  # a stream's own lines
        with pytest.raises(GraphFormatError, match=rf"<stream>:{line}: vertex id"):
            read_edge_list(io.StringIO(text))

    def test_int64_extremes_load(self):
        graph = read_edge_list(io.StringIO(f"{-(2**63)} {2**63 - 1}\n"))
        assert graph.edge_array().tolist() == [[0, 1]]


class TestFastPath:
    def test_snap_file_loads_without_the_line_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.txt"
        path.write_bytes(
            b"# Directed graph: snap.txt\r\n# FromNodeId\tToNodeId\r\n"
            b"10\t30\r\n30 200\t7\r\n 200\t10 \r\n10 30\r\n"
        )

        def line_parser(*args):
            raise AssertionError("the line parser read a well-formed file")

        monkeypatch.setattr(graph_io, "_parse_lines", line_parser)
        graph = read_edge_list(path)
        assert graph.num_vertices == 3
        assert graph.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]

    @pytest.mark.parametrize("vertex", ["1.0", "1e3", "inf", "nan", "0x1f", "1,2"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_non_decimal_ids_rejected(self, tmp_path, vertex, strict):
        """Printable ASCII reaches the C parser, which must not accept an id
        that ``int()`` rejects (some numpy versions parsed ``1.0`` as 1)."""
        path = tmp_path / "ids.txt"
        path.write_bytes(f"0 1\n1 {vertex}\n".encode())
        with pytest.raises(GraphFormatError, match=r"ids\.txt:2: non-integer"):
            read_edge_list(path, strict)

    def test_chunks_hold_no_rows_beyond_their_own(self, tmp_path, monkeypatch):
        """Each chunk is a view of an array of exactly the chunks cut from
        it, so a reader that keeps the chunks keeps no leftover rows."""
        path = tmp_path / "edges.txt"
        path.write_bytes(b"".join(b"%d %d\n" % (i, i + 1) for i in range(50)))
        monkeypatch.setattr(graph_io, "_BLOCK_BYTES", 40)
        held: dict[int, list] = {}
        for chunk in iter_edge_chunks(path, chunk_edges=7):
            base = chunk if chunk.base is None else chunk.base
            held.setdefault(id(base), [base, 0])[1] += len(chunk)
        assert len(held) > 1
        assert all(len(base) == rows for base, rows in held.values())


_IDS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from([
        "+3", "-2", "-0", "007", "+", "-", "1-2", "1#2", "#", "%", "x", "1_0",
        "1.0", "1e3", "inf", "nan", "0x1f", "1,2",
        str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
        "1" * 25, "\u0663", "1\u0662",
    ]),
)
_SEPARATORS = st.sampled_from([" ", "\t", " \t ", "\x0b", "\x1c", "\xa0"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _edge_lines(draw, noisy: bool):
    kind = draw(st.sampled_from(["edge"] * 5 + ["comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "%", "  #", "\t%"])) + draw(
            st.sampled_from(["", " Nodes: 4", " Café", " 0 1", " #"])
        )
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \t "] + ["\x1c", " \x0b"] * noisy))
    ids = _IDS if noisy else st.integers(0, 12).map(str)
    separators = _SEPARATORS if noisy else st.sampled_from([" ", "\t"])
    fields = draw(st.lists(ids, min_size=1 if noisy else 2, max_size=4))
    line = fields[0]
    for field in fields[1:]:
        line += draw(separators) + field
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(
        st.sampled_from(["", " "])
    )


@st.composite
def _edge_files(draw) -> bytes:
    """Clean files (plain ids, LF or CRLF ends) that the C path should
    parse, or noisy ones with every kind of input it must hand back."""
    noisy = draw(st.booleans())
    ends = _LINE_ENDS if noisy else st.sampled_from(["\n", "\r\n"])
    lines = draw(st.lists(st.tuples(_edge_lines(noisy), ends), max_size=25))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if noisy and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9"])) + data[at:]
    return data


def _outcome(read):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read()
    except GraphFormatError as exc:
        return ("error", str(exc))
    if isinstance(result, Graph):
        result = (result.num_vertices, result.edge_array(), *result.csr)
    num_vertices, edges, indptr, indices = result
    return ("graph", num_vertices, edges.tolist(), indptr.tolist(), indices.tolist())


def _chunks(read):
    try:
        return ("chunks", [chunk.tolist() for chunk in read()])
    except GraphFormatError as exc:
        return ("error", str(exc))


class TestMatchesLineParser:
    """Every read equals the line parser's (``graph_reference``): the same
    graph, or the same ``GraphFormatError`` message.  Tiny blocks put
    block ends inside CRLFs, between a fast block and a fallback, and
    before an error that must still name its line."""

    @settings(max_examples=150, deadline=None)
    @given(_edge_files(), st.integers(0, 30), st.integers(1, 6), st.booleans())
    @example(b"", 0, 1, False)
    @example(b"# Nodes: 0 Edges: 0\n\n \t\r\n", 0, 1, False)
    @example(b"# h\r\n" + b"".join(b"%d\t%d\r\n" % (i, i + 1) for i in range(9)), 20, 2, True)
    @example(b"0 12\r\n1 2\r\n3 x\r\n", 30, 2, True)  # a read ends inside a CRLF
    @example(b"0 2\n2 0\n0 3\n", 30, 2, False)  # ids from 0 with a gap
    @example(b"# c\r0 1\n", 30, 2, False)  # a lone CR ends a comment line
    @example(b"0 1\n1 2 #c\n2 3\n", 30, 2, False)  # a mark after an edge
    @example(b"\x1c\n# c\n", 30, 2, False)  # no data, quietly
    def test_reads_match_reference(self, data, max_edges, chunk_edges, tiny_blocks):
        block_bytes, block_lines = (
            (5, 2) if tiny_blocks else (graph_io._BLOCK_BYTES, graph_io._BLOCK_LINES)
        )
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            graph_io, _BLOCK_BYTES=block_bytes, _BLOCK_LINES=block_lines
        ):
            path = Path(tmp) / "edges.txt"
            path.write_bytes(data)
            for source in (lambda: path, lambda: reference.stream(data)):
                for strict in (False, True):
                    _check_reads(source, strict, max_edges, chunk_edges)


def _check_reads(source, strict, max_edges, chunk_edges):
    for options in ({}, {"max_edges": max_edges, "chunk_edges": chunk_edges}):
        assert _outcome(
            lambda: read_edge_list(source(), strict, **options)
        ) == _outcome(lambda: reference.read_edge_list(source(), strict, **options))
    options = {"chunk_edges": chunk_edges, "strict": strict}
    assert _chunks(lambda: iter_edge_chunks(source(), **options)) == _chunks(
        lambda: reference.edge_chunks(source(), **options)
    )
