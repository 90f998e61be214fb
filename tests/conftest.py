"""Shared fixtures: canonical small graphs with known triangle counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.graph import Graph


def pytest_addoption(parser):
    parser.addoption(
        "--state-machine-budget",
        type=int,
        default=1,
        help="run N times the session state machine's example budget "
        "(tests/test_session_state.py; CI's long run uses 10)",
    )


@pytest.fixture
def paper_graph() -> Graph:
    """The 4-vertex, 5-edge, 2-triangle graph of the paper's Fig. 2."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def empty_graph() -> Graph:
    return Graph(0)


@pytest.fixture
def isolated_vertices() -> Graph:
    return Graph(7)


@pytest.fixture
def k5() -> Graph:
    """Complete graph on 5 vertices: C(5,3) = 10 triangles."""
    return generators.complete_graph(5)


@pytest.fixture
def random_graphs() -> list[Graph]:
    """A small battery of random graphs for agreement checks."""
    graphs = [generators.erdos_renyi(60, 250, seed=s) for s in range(3)]
    graphs.append(generators.barabasi_albert(80, 4, seed=1))
    graphs.append(generators.powerlaw_cluster(80, 4, 0.7, seed=2))
    graphs.append(generators.road_network(12, 12, seed=3))
    graphs.append(generators.complete_bipartite(7, 9))
    return graphs


def random_edge_list(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Raw (possibly duplicated / self-looped) edge list for fuzzing."""
    return rng.integers(0, n, size=(m, 2))
