"""Analysis: graph metrics, cross-validation, report formatting."""

from repro.analysis.metrics import (
    average_clustering,
    degree_statistics,
    local_clustering,
    transitivity,
    triangles_per_vertex,
    wedge_count,
)
from repro.analysis.reporting import (
    Table,
    format_bytes,
    format_count,
    format_ratio,
    format_seconds,
    geometric_mean,
)
from repro.analysis.truss import (
    edge_support,
    k_truss,
    max_trussness,
    truss_decomposition,
)
from repro.analysis.validation import (
    default_implementations,
    per_edge_reference,
    validate_implementations,
)

__all__ = [
    "edge_support",
    "k_truss",
    "max_trussness",
    "truss_decomposition",
    "triangles_per_vertex",
    "local_clustering",
    "average_clustering",
    "wedge_count",
    "transitivity",
    "degree_statistics",
    "Table",
    "format_seconds",
    "format_bytes",
    "format_ratio",
    "format_count",
    "geometric_mean",
    "default_implementations",
    "per_edge_reference",
    "validate_implementations",
]
