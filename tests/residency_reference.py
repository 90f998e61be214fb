"""A from-scratch oracle of a session's resident state.

:func:`check_residency` rebuilds everything a
:class:`repro.core.residency.Residency` derives from its symmetric
structure — the edge list, the windows, the count plan, the triangle
list, the vertex tallies, supports and trussness — and compares it with
what the residency holds, and the event totals from that plan.  It
reads the residency's fields only, never its readers, so it folds no
queued batch in, builds nothing resident and marks nothing read: a check
leaves the lifecycle rule's inputs as they were.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.truss import peel_trussness
from repro.core.kernels import triangle_witnesses
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix, SliceWindow

PLAN_ARRAYS = (
    "row_positions",
    "col_positions",
    "trace_keys",
    "pair_counts",
    "diagonal_pairs",
    "diagonal_masks",
)


def _rows(array: np.ndarray) -> set:
    return set(map(tuple, np.asarray(array).tolist()))


def check_residency(session) -> None:
    """Assert that ``session``'s derived state equals a rebuild.

    The rebuild starts from the symmetric structure (or, before one is
    sliced, from the graph).  The windows are compared on the rows no
    queued batch touches — the rows of a queued batch re-derive when it
    folds in — or on every row while totals are kept (each fold
    refreshes them), the plan only when no batch is queued, and kept
    totals always, column by column.
    """
    residency = session._residency
    sym = residency.sym
    if sym is None:
        assert residency.windows is None and residency.plan is None
        sym = SlicedMatrix.from_graph(
            residency.graph, "symmetric", slice_bits=residency.slice_bits
        )
    rows, cols = sym.nonzeros()
    upper = rows < cols
    sources, destinations = rows[upper], cols[upper]
    assert sources.size == session._num_edges
    if residency.graph is not None:
        assert np.array_equal(
            residency.graph.edge_array(), np.stack([sources, destinations], axis=1)
        )
    if residency.edges is not None:
        assert np.array_equal(residency.edges[0], sources)
        assert np.array_equal(residency.edges[1], destinations)
    if residency.keys is not None:
        assert residency.edges is not None
        assert np.array_equal(residency.keys, sources * np.int64(sym.num_rows) + destinations)

    windows = SliceWindow.pair(sym)
    if residency.pending and residency.totals is None:
        assert residency.windows is not None
        queued = np.concatenate([batch[0].reshape(-1) for batch in residency.pending])
    else:
        queued = np.empty(0, dtype=np.int64)
    if residency.windows is None:
        assert residency.plan is None and residency.totals is None
    else:
        settled = np.setdiff1d(np.arange(sym.num_rows), queued)
        for held, fresh in zip(residency.windows, windows):
            assert held.sym is sym and held.side == fresh.side
            assert np.array_equal(held.offsets[settled], fresh.offsets[settled])
    plan = build_join_plan(*windows, sources, destinations)
    if residency.plan is not None and not residency.pending:
        assert residency.plan.matches(*residency.windows)
        assert residency.plan.num_edges == plan.num_edges
        for name in PLAN_ARRAYS:
            assert np.array_equal(getattr(residency.plan, name), getattr(plan, name)), name
    totals = residency.totals
    if totals is not None:
        # Pairs and distinct column-slice keys of the edges into each column.
        columns = np.repeat(destinations, plan.pair_counts)
        keys = np.asarray(plan.trace_keys, dtype=np.int64)
        pairs = np.bincount(columns, minlength=sym.num_rows)
        distinct = np.bincount(
            np.unique(keys) // sym.slices_per_row, minlength=sym.num_rows
        )
        assert np.array_equal(totals.pairs, pairs)
        assert np.array_equal(totals.distinct, distinct)
        assert totals.num_pairs == plan.num_pairs
        assert totals.num_distinct == np.unique(keys).size

    workloads = residency.workloads
    if not workloads:
        return
    # Every workload result derives from the triangle list.
    listed = triangle_witnesses(*windows, sources, destinations, plan=plan)
    held = workloads["triangles"]
    assert len(held) == len(listed) == session._triangles
    assert _rows(held) == _rows(listed)
    supports = np.bincount(listed.reshape(-1), minlength=sources.size)
    n = residency.num_vertices
    if "tallies" in workloads:
        tallies, degrees = workloads["tallies"]
        corners = np.concatenate(
            [sources[listed[:, 0]], destinations[listed[:, 0]], destinations[listed[:, 1]]]
        )
        assert np.array_equal(tallies, np.bincount(corners, minlength=n))
        assert np.array_equal(
            degrees, np.bincount(np.concatenate([sources, destinations]), minlength=n)
        )
    expected = {"support": supports}
    if "truss" in workloads:
        expected["truss"] = peel_trussness(supports, listed)
    for name, values in expected.items():
        if name in workloads:
            edge_map = workloads[name]
            assert np.array_equal(edge_map.sources, sources)
            assert np.array_equal(edge_map.destinations, destinations)
            assert np.array_equal(edge_map.per_edge, values), name
    if "clustering" in workloads:
        report = workloads["clustering"]
        assert report.triangles == session._triangles
        assert np.array_equal(report.triangles_per_vertex, workloads["tallies"][0])
