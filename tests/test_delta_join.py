"""The delta join runs terms 2–3 only over edges that can close a triangle.

:func:`repro.core.incremental.symmetric_delta` joins every delta edge in
term 1 (base × base), but term 2 (base × delta) only over the directed
delta edges ``(x, y)`` whose ``y`` has a second delta edge, and term 3
(delta × delta) only over the delta edges both of whose endpoints do.
The property here draws batches shaped as stars, paths, whole triangles
and cliques of delta edges on small dense graphs, inserts and deletes,
and checks every :class:`~repro.api.UpdateReport` against
:class:`DynamicTriangleCounter`; the deterministic tests pin which edges
each term joins.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.core import incremental, kernels
from repro.core.accelerator import AcceleratorConfig
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.sharding import position_shards
from repro.core.slicing import SlicedMatrix
from repro.graph import Graph

SESSIONS = [
    {"num_arrays": 1},
    {"num_arrays": 4, "shard_by": "degree"},
    {"num_arrays": 4, "shard_by": "coloring"},
]
SESSION_IDS = ["arrays1", "arrays4-degree", "arrays4-coloring"]


@st.composite
def _dense_graph(draw) -> Graph:
    n = draw(st.integers(5, 14))
    density = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pairs = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density
    ]
    return Graph(n, pairs)


def _shape_edges(kind: str, vertices: list[int]) -> list[tuple[int, int]]:
    if kind == "star":
        return [(vertices[0], leaf) for leaf in vertices[1:]]
    if kind == "path":
        return list(zip(vertices, vertices[1:]))
    return list(itertools.combinations(vertices, 2))  # a triangle or a clique


_SIZES = {"star": (3, 6), "path": (3, 6), "triangle": (3, 3), "clique": (4, 5)}


@st.composite
def _shaped_calls(draw, n: int) -> list[tuple[list, bool]]:
    """``apply()`` calls whose ops insert or delete whole shapes."""
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(sorted(_SIZES)))
            low, high = _SIZES[kind]
            size = draw(st.integers(min(low, n), min(high, n)))
            vertices = draw(
                st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
            )
            code = draw(st.sampled_from("+-"))
            ops += [(code, u, v) for u, v in _shape_edges(kind, vertices)]
        calls.append((ops, draw(st.booleans())))
    return calls


@pytest.mark.parametrize("config", SESSIONS, ids=SESSION_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shaped_batches_match_oracle(config, data):
    graph = data.draw(_dense_graph())
    calls = data.draw(_shaped_calls(graph.num_vertices))
    session = open_session(graph, **config)
    oracle = DynamicTriangleCounter(graph.num_vertices, graph)
    for ops, record in calls:
        report = session.apply(ops, record=record)
        if record:
            _, deltas = oracle.apply_ops(ops, record=True)
            assert report.per_op_deltas == deltas
        else:
            assert report.delta_triangles == oracle.apply_ops(ops)
        assert report.triangles == oracle.triangles
    assert session.run().triangles == oracle.triangles


@pytest.fixture
def joins(monkeypatch):
    """Every ``execute_workload`` call's row / column sides and edges,
    and a count of ``delta_sliced`` calls."""
    seen = {"workloads": [], "delta_sliced": 0}
    real_workload = kernels.execute_workload
    real_sliced = incremental.delta_sliced

    def workload(row_sliced, col_sliced, sources, destinations, *args, **kwargs):
        seen["workloads"].append(
            (row_sliced, col_sliced, list(zip(sources.tolist(), destinations.tolist())))
        )
        return real_workload(row_sliced, col_sliced, sources, destinations, *args, **kwargs)

    def sliced(*args, **kwargs):
        seen["delta_sliced"] += 1
        return real_sliced(*args, **kwargs)

    monkeypatch.setattr(kernels, "execute_workload", workload)
    monkeypatch.setattr(incremental, "delta_sliced", sliced)
    return seen


@pytest.mark.parametrize("config", SESSIONS, ids=SESSION_IDS)
@pytest.mark.parametrize("code", ["+", "-"])
def test_distinct_endpoints_run_one_sweep_per_shard(joins, config, code):
    # Six delta edges on twelve distinct endpoints: no vertex has a
    # second delta edge, so only term 1 runs, once per non-empty shard.
    batch = [(2 * i, 2 * i + 1) for i in range(6)]
    rest = [(u, v) for u, v in itertools.combinations(range(14), 2) if (u, v) not in batch]
    graph = Graph(14, rest if code == "+" else rest + batch)
    session = open_session(graph, **config)
    oracle = DynamicTriangleCounter(graph.num_vertices, graph)
    session.count()
    report = session.apply([(code, u, v) for u, v in batch])
    assert report.delta_triangles == oracle.apply_ops([(code, u, v) for u, v in batch])
    sources = np.array([u for u, _ in batch], dtype=np.int64)
    shards = position_shards(
        sources, config["num_arrays"], config.get("shard_by", "edges")
    )
    assert len(joins["workloads"]) == sum(1 for shard in shards if shard.size)
    assert joins["delta_sliced"] == 0
    sym = session._residency.structure()
    for row_sliced, col_sliced, edges in joins["workloads"]:
        assert row_sliced is col_sliced is sym
    assert sorted(edge for *_, edges in joins["workloads"] for edge in edges) == batch


def test_term_two_joins_only_edges_into_a_shared_endpoint(joins):
    # D = {(0, 5), (3, 5)}: only vertex 5 has two delta edges, so term 2
    # joins (0, 5) and (3, 5) -- never (5, 0) or (5, 3) -- and term 3,
    # which needs both endpoints shared, joins nothing.
    graph = Graph(8, [(0, 1), (0, 3), (1, 5), (3, 6), (5, 6)])
    base = SlicedMatrix.from_graph(graph, "symmetric")
    delta = np.array([[0, 5], [3, 5]], dtype=np.int64)
    outcome = incremental.symmetric_delta(8, base, delta, AcceleratorConfig())
    # {0, 1, 5} and {3, 5, 6} use one delta edge, {0, 3, 5} both.
    oracle = DynamicTriangleCounter(8, graph)
    assert outcome.triangles == oracle.apply_ops([("+", 0, 5), ("+", 3, 5)]) == 3
    (term1_row, term1_col, term1), (term2_row, term2_col, term2) = joins["workloads"]
    assert term1_row is term1_col is base
    assert term1 == [(0, 5), (3, 5)]
    assert term2_row is base and term2_col is not base
    assert term2 == [(0, 5), (3, 5)]
    assert joins["delta_sliced"] == 1
