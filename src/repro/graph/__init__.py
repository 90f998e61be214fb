"""Graph substrate: graphs, bit-packed matrices, generators, datasets, I/O."""

from repro.graph.bitmatrix import BitMatrix
from repro.graph.edgemap import EdgeMap
from repro.graph.graph import Graph
from repro.graph.io import load_graph, read_edge_list, read_npz, write_edge_list, write_npz
from repro.graph.reorder import apply_ordering, bfs_order, degree_order, reverse_cuthill_mckee

__all__ = [
    "Graph",
    "BitMatrix",
    "EdgeMap",
    "read_edge_list",
    "write_edge_list",
    "read_npz",
    "write_npz",
    "load_graph",
    "apply_ordering",
    "bfs_order",
    "degree_order",
    "reverse_cuthill_mckee",
]
