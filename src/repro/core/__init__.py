"""TCIM core: the paper's contribution (bitwise TC, slicing, reuse, Algorithm 1)."""

from repro.core.accelerator import (
    AcceleratorConfig,
    EventCounts,
    TCIMAccelerator,
    TCIMRunResult,
)
from repro.core.bitwise import (
    BitwiseCounts,
    triangle_count_bitwise,
    triangle_count_dense,
    triangle_count_sliced,
    triangles_per_vertex_sliced,
)
from repro.core.reuse import (
    AccessOutcome,
    CacheStatistics,
    ReplacementPolicy,
    SliceCache,
    belady_trace_statistics,
    simulate_trace,
)
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.incremental import (
    DeltaOutcome,
    StructureDelta,
    canonical_delta_edges,
    symmetric_delta,
)
from repro.core.plan import JoinPlan, build_join_plan, patch_join_plan
from repro.core.sharding import (
    PARTITIONERS,
    POSITION_PARTITIONERS,
    ShardResult,
    assign_colors,
    color_triples,
    min_colors,
    num_color_shards,
    position_shards,
    price_partition,
)
from repro.core.slicing import SlicedMatrix, SliceStatistics, slice_statistics
from repro.core.trace import AccessTrace, compare_policies, extract_column_trace

__all__ = [
    "DeltaOutcome",
    "DynamicTriangleCounter",
    "JoinPlan",
    "StructureDelta",
    "build_join_plan",
    "canonical_delta_edges",
    "patch_join_plan",
    "symmetric_delta",
    "PARTITIONERS",
    "POSITION_PARTITIONERS",
    "ShardResult",
    "assign_colors",
    "color_triples",
    "min_colors",
    "num_color_shards",
    "position_shards",
    "price_partition",
    "AccessTrace",
    "compare_policies",
    "extract_column_trace",
    "AcceleratorConfig",
    "EventCounts",
    "TCIMAccelerator",
    "TCIMRunResult",
    "BitwiseCounts",
    "triangle_count_bitwise",
    "triangle_count_dense",
    "triangle_count_sliced",
    "triangles_per_vertex_sliced",
    "AccessOutcome",
    "CacheStatistics",
    "ReplacementPolicy",
    "SliceCache",
    "belady_trace_statistics",
    "simulate_trace",
    "SlicedMatrix",
    "SliceStatistics",
    "slice_statistics",
]
