"""Net-effect streaming apply: differential, splice and residency tests.

``TCIMSession.apply(record=False)`` reduces each call to one net-deletion
batch and one net-insertion batch, splices the resident slice structures
through the session's backing store, and reads edge membership from the
symmetric structure's bits.  The property tests here drive random calls
that revisit edges every way a stream can — insert then delete, delete
then insert, duplicates, self-loops, both endpoint orders — and check the
session against :class:`DynamicTriangleCounter`, a ``record=True`` twin
session, and from-scratch rebuilds, on the RAM store and on a memmap
store whose tiny threshold spills nearly every array.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.core import incremental
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix, SliceWindow, expand_runs
from repro.graph import generators

BASE = generators.powerlaw_cluster(24, 3, 0.6, seed=5)
#: Bytes at or above which the memmap leg spills an array.
TINY_SPILL = 64
#: Ops draw endpoints from a dozen vertices, so calls keep revisiting
#: the same edges (and hit self-loops and both endpoint orders).
_vertex = st.integers(0, 11)
_op = st.tuples(st.sampled_from(["+", "-", "insert", "delete"]), _vertex, _vertex)
_calls = st.lists(st.lists(_op, max_size=24), min_size=1, max_size=5)


def _assert_same_structure(left: SlicedMatrix, right: SlicedMatrix) -> None:
    """The same valid slices, row by row: a spliced structure keeps room
    in its rows, so each side is compared through a compact copy, and
    every slot outside the rows' valid runs must hold nothing."""
    for structure in (left, right):
        assert (structure.counts <= np.diff(structure.indptr)).all()
        free = np.ones(structure.data.shape[0], dtype=bool)
        free[structure.valid_positions()] = False
        assert not structure.data[free].any()
        assert not structure.slice_ids[free].any()
    left, right = left.compacted(), right.compacted()
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.slice_ids, right.slice_ids)
    assert np.array_equal(left.data, right.data)


def _slot_keys(sym: SlicedMatrix, positions) -> np.ndarray:
    """The global slice key ``row * slices_per_row + slice id`` held in
    each slot ``positions`` of ``sym``."""
    positions = np.asarray(positions, dtype=np.int64)
    owners = np.searchsorted(sym.indptr, positions, side="right") - 1
    return owners * sym.slices_per_row + sym.slice_ids[positions]


def _assert_plan_current(session, plan=None) -> None:
    """The session's count plan equals, position for position, a compile
    over the session's own windows and edge list, and slice key for
    slice key (trace, counts and diagonal masks verbatim) a compile over
    a freshly sliced structure of its graph: slots depend on the layout,
    the slices they hold do not."""
    plan = session.join_plan if plan is None else plan
    windows, edges = session._residency.windows, session._residency.edges
    own = build_join_plan(*windows, *edges)
    graph = session.graph
    fresh_sym = SlicedMatrix.from_graph(
        graph, "symmetric", slice_bits=windows[0].slice_bits
    )
    fresh = build_join_plan(
        *SliceWindow.pair(fresh_sym), *oriented_edges(graph, "upper")
    )
    assert plan.num_edges == own.num_edges == fresh.num_edges
    names = (
        "row_positions", "col_positions", "trace_keys", "pair_counts",
        "diagonal_pairs", "diagonal_masks",
    )
    for name in names:
        assert np.array_equal(
            np.asarray(getattr(plan, name), dtype=np.int64),
            np.asarray(getattr(own, name), dtype=np.int64),
        ), name
    for name in names[2:]:
        assert np.array_equal(getattr(own, name), getattr(fresh, name)), name
    for name in names[:2]:
        assert np.array_equal(
            _slot_keys(windows[0].sym, getattr(own, name)),
            _slot_keys(fresh_sym, getattr(fresh, name)),
        ), name


def _assert_spilled(session) -> None:
    """Every resident slice array at or above the threshold is on disk."""
    threshold = session._residency.store.spill_threshold_bytes
    sliced = session._residency.sym
    for array in (sliced.data, sliced.slice_ids):
        if array.nbytes >= threshold:
            assert isinstance(array, np.memmap)


@pytest.mark.parametrize("backing", ["ram", "memmap"])
@settings(max_examples=30, deadline=None)
@given(calls=_calls)
def test_net_effect_matches_oracle_and_record_twin(backing, calls):
    with tempfile.TemporaryDirectory() as directory:
        if backing == "ram":
            session = open_session(BASE)
        else:
            session = open_session(
                BASE, storage_dir=directory, spill_threshold_bytes=TINY_SPILL
            )
        twin = open_session(BASE)
        oracle = DynamicTriangleCounter(BASE.num_vertices, BASE)
        for ops in calls:
            edges_before = session.num_edges
            report = session.apply(ops)
            recorded = twin.apply(ops, record=True)
            delta = oracle.apply_ops(ops)
            assert report.segments <= 2
            assert report.delta_triangles == recorded.delta_triangles == delta
            assert report.triangles == session.count() == oracle.triangles
            assert session.num_edges == twin.num_edges == oracle.num_edges
            assert report.inserted - report.deleted == session.num_edges - edges_before
            for _, u, v in ops:
                assert session.has_edge(u, v) == oracle.has_edge(u, v)
                assert twin.has_edge(u, v) == oracle.has_edge(u, v)
            if backing == "memmap":
                _assert_spilled(session)
            # A read folds each call's batches into the windows and the
            # plan, so the next call keeps them and queues its own.
            session.join_plan
        expected = oracle.to_graph()
        assert np.array_equal(session.graph.edge_array(), expected.edge_array())
        assert np.array_equal(twin.graph.edge_array(), expected.edge_array())
        _assert_same_structure(
            session._residency.structure(), SlicedMatrix.from_graph(expected, "symmetric")
        )
        # The windows and the plan, patched call by call, equal rebuilds.
        plan = session.join_plan
        for window, kind in zip(session._residency.windows, ("upper", "lower")):
            fresh = SlicedMatrix.from_graph(expected, kind)
            starts, counts = window.row_slice_ranges(np.arange(fresh.num_rows))
            assert np.array_equal(counts, fresh.row_valid_counts())
            ids = window.slice_ids[expand_runs(starts, counts)]
            assert np.array_equal(ids, fresh.slice_ids)
        _assert_plan_current(session, plan)
        if backing == "memmap":
            _assert_spilled(session)


_bits = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 39)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(base=_bits, batch=_bits)
def test_bit_splices_equal_rebuilds(base, batch):
    """set_bits / clear_bits / test_bits against dense from-scratch truth.

    8-bit slices over 40 columns give five slices per row, so batches
    insert and drop slices at the start, middle and end of rows.
    """
    dense = np.zeros((10, 40), dtype=bool)
    for row, col in base:
        dense[row, col] = True
    rows = np.array([row for row, _ in batch], dtype=np.int64)
    cols = np.array([col for _, col in batch], dtype=np.int64)
    sliced = SlicedMatrix.from_dense(dense, slice_bits=8)
    assert np.array_equal(
        incremental.test_bits(sliced, rows, cols), dense[rows, cols]
    )
    nz_rows, nz_cols = sliced.nonzeros()
    assert np.array_equal(np.stack([nz_rows, nz_cols]), np.stack(np.nonzero(dense)))
    after_set = dense.copy()
    after_set[rows, cols] = True
    incremental.set_bits(sliced, rows, cols)
    _assert_same_structure(sliced, SlicedMatrix.from_dense(after_set, slice_bits=8))
    after_clear = dense.copy()
    after_clear[rows, cols] = False
    incremental.clear_bits(sliced, rows, cols)
    _assert_same_structure(sliced, SlicedMatrix.from_dense(after_clear, slice_bits=8))
