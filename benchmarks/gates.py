"""The CI gates: every measured ratio and exactness contract, one function each.

A gate is a function with no arguments that returns ``(checks, metrics)``:

* ``checks`` — a list of :class:`Check` ``(name, value, op, threshold)``.
  An exactness check is an ``==`` on a boolean or a count.
* ``metrics`` — what the gate records for ``BENCH_engine.json``, as
  nested dicts merged into the payload.  Quantities with a schema-10 key
  fill that key (``engine``, ``streaming``, ``workloads``, ``serving``,
  ``storage``, ``parallelism``, and since schema 14 ``code``); quantities
  with none sit under ``gates.<gate>``.

Thresholds are the module constants below; nothing is read from argv.
Every speed-up gate compares against a baseline measured in the same
run, never absolute seconds.  :data:`GATES` is the registry in run
order, and ``benchmarks/record.py`` runs it.  To run one gate::

    PYTHONPATH=src:benchmarks python -c "import gates; print(gates.plan())"
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import operator
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import registry
from repro.analysis import metrics
from repro.analysis.truss import edge_support, peel_trussness, truss_decomposition
from repro.analysis.validation import per_edge_reference
from repro.api import open_session
from repro.arch.perf import default_pim_model
from repro.arch.pipeline import measured_shard_report
from repro.core import incremental, kernels
from repro.core import plan as joinplan
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan, merge_oriented_edges, patch_join_plan
from repro.core.slicing import SlicedMatrix, SliceWindow
from repro.errors import ReproError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve import Service, open_service
from repro.storage.snapshot import snapshot_nbytes

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# ----------------------------------------------------------------------
# Thresholds (tests/test_gates.py pins every value)
# ----------------------------------------------------------------------
#: Vectorized engine over the per-edge reference loop (>=20x on quiet
#: hardware; the floor leaves headroom for noisy runners).
MIN_ENGINE_SPEEDUP = 8.0
#: Incremental apply() over per-op full recounts.
MIN_STREAMING_SPEEDUP = 5.0
#: Engine batches one apply() call may run: net deletions, net insertions.
MAX_SEGMENTS = 2
#: Whole-structure key arrays (``SlicedMatrix.global_keys``) apply() may build.
MAX_KEY_BUILDS = 0
#: Repeat query on the resident plan over one that compiles a transient plan.
MIN_PLAN_REUSE_SPEEDUP = 3.0
#: Symmetric-plan patch over a rebuild, one batch and its undo.
MIN_PLAN_PATCH_SPEEDUP = 5.0
#: One-edge apply() at 100k / 800k edges over the same at 4k / 32k.
MAX_ONE_EDGE_GROWTH = 2.0
#: Resident repeat support() over the edge_support oracle.
MIN_SUPPORT_SPEEDUP = 5.0
#: Cold truss() over the truss_decomposition oracle.
MIN_TRUSS_SPEEDUP = 5.0
#: Patched read-after-write round over a from-scratch witness pass + peel.
MIN_READ_AFTER_WRITE_SPEEDUP = 3.0
#: Burst probe rate over the same probes served one in flight (median of
#: alternating rounds).
MIN_FUSION_SPEEDUP = 2.0
#: Probes the largest drained batch must serve.
MIN_FUSED_BATCH = 2
#: Warm snapshot hydrate over cold slicing + plan compile.
MIN_HYDRATE_SPEEDUP = 5.0
#: Spilled bytes, as a multiple of the spill threshold.
MIN_SPILL_MULTIPLE = 4
#: The memmap session's anonymous-RSS growth must stay below the RAM
#: session's by at least ``spilled / RSS_SPILL_DIVISOR`` bytes.
RSS_SPILL_DIVISOR = 2
#: Concurrent service over one-session-at-a-time serial serving.
MIN_SERVING_SPEEDUP = 2.0
#: Sessions the serving and fusion gates must hold resident at once.
MIN_RESIDENT = 8

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


@dataclasses.dataclass(frozen=True)
class Check:
    """One gated comparison: ``value op threshold`` must hold."""

    name: str
    value: object
    op: str
    threshold: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"check op must be one of {sorted(_OPS)}, got {self.op!r}")

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.threshold))


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def best_of(repeats, work):
    """Best wall time of ``repeats`` calls of ``work``, and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def _counted(original, label: str, calls: list):
    if isinstance(original, classmethod):
        return classmethod(_counted(original.__func__, label, calls))

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(label)
        return original(*args, **kwargs)

    return counted


@contextmanager
def counting_calls(*targets):
    """Record every call of each ``(class, method name)`` inside the block."""
    calls: list[str] = []
    originals = [(owner, name, owner.__dict__[name]) for owner, name in targets]
    for owner, name, original in originals:
        setattr(owner, name, _counted(original, f"{owner.__name__}.{name}", calls))
    try:
        yield calls
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def random_ops(graph, count: int, rng):
    """``count`` single-edge ops on ``graph``, each deleting a present edge
    or inserting an absent one with probability 1/2; also returns the edge
    set after them."""
    present = set(map(tuple, graph.edge_array().tolist()))
    ops = []
    while len(ops) < count:
        if present and rng.random() < 0.5:
            edge = list(present)[int(rng.integers(len(present)))]
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            u, v = int(rng.integers(graph.num_vertices)), int(rng.integers(graph.num_vertices))
            if u == v or (min(u, v), max(u, v)) in present:
                continue
            present.add((min(u, v), max(u, v)))
            ops.append(("+", u, v))
    return ops, present


def _graph_size(graph) -> dict:
    return {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges}


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def engine():
    """The vectorized engine against the per-edge reference loop.

    A 20k-vertex / ~160k-edge Barabási–Albert graph through
    :func:`repro.analysis.validation.per_edge_reference` and the batched
    engine: identical triangles and :class:`EventCounts`, and the engine
    at least ``MIN_ENGINE_SPEEDUP`` faster (best of 3 against one
    reference run).
    """
    graph = generators.barabasi_albert(20_000, 8, seed=0)
    config = AcceleratorConfig()
    accelerator = TCIMAccelerator(config)
    accelerator.run(graph)  # warm numpy / allocator before timing
    vectorized_s, vectorized = best_of(3, lambda: accelerator.run(graph))
    reference_s, (triangles, events, _) = best_of(
        1, lambda: per_edge_reference(graph, config)
    )
    checks = [
        Check("triangles == reference", vectorized.triangles == triangles, "==", True),
        Check(
            "EventCounts == reference",
            dataclasses.asdict(vectorized.events) == dataclasses.asdict(events),
            "==",
            True,
        ),
        Check(
            "speedup vs per-edge reference (x)",
            reference_s / vectorized_s,
            ">=",
            MIN_ENGINE_SPEEDUP,
        ),
    ]
    return checks, {}


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
#: Additive event counters a position partitioner must conserve.
CONSERVED_FIELDS = (
    "edges_processed",
    "and_operations",
    "dense_pair_operations",
    "index_lookups",
    "bitcount_operations",
)

#: ``(num_arrays, shard_by)`` of every priced run.
PARTITION_RUNS = [
    *((4, shard_by) for shard_by in ("edges", "rows", "degree")),
    *((num_arrays, "coloring") for num_arrays in (4, 16)),
]


def partitions():
    """Every multi-array partition is exact and conserves its events.

    A 20k-vertex BA graph priced across several arrays under every
    partitioner from the session's resident count plan, against
    ``num_arrays=1``:

    * every run's triangle count matches;
    * the position partitioners (``edges`` / ``rows`` / ``degree``)
      conserve the additive :data:`CONSERVED_FIELDS`;
    * every run's merged per-shard events equal its events.

    Then a 16-array coloring session fed a randomized 200-op
    insert/delete stream keeps ``count()`` equal to a plain session's
    after every op, and its closing ``simulate()`` equals a fresh
    session's on the final graph in every per-shard field.
    """
    graph = generators.barabasi_albert(20_000, 8, seed=42)
    baseline = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
    checks = []
    for num_arrays, shard_by in PARTITION_RUNS:
        with open_session(graph, num_arrays=num_arrays, shard_by=shard_by) as session:
            result = session.run()
        label = f"{num_arrays} arrays {shard_by}"
        checks.append(
            Check(
                f"{label}: triangles == 1 array",
                result.triangles == baseline.triangles,
                "==",
                True,
            )
        )
        if shard_by != "coloring":
            violated = [
                name
                for name in CONSERVED_FIELDS
                if getattr(result.events, name) != getattr(baseline.events, name)
            ]
            checks.append(
                Check(f"{label}: unconserved event fields", len(violated), "==", 0)
            )
        merged = EventCounts()
        for shard in result.shards:
            merged = merged + shard.events
        checks.append(
            Check(
                f"{label}: merged shard events == run events",
                dataclasses.asdict(merged) == dataclasses.asdict(result.events),
                "==",
                True,
            )
        )

    rng = np.random.default_rng(9)
    n = 2_000
    config = {"num_arrays": 16, "shard_by": "coloring"}
    edges = {
        tuple(sorted(map(int, e)))
        for e in generators.barabasi_albert(n, 6, seed=7).edge_array()
    }
    session = open_session(Graph(n, np.array(sorted(edges))), **config)
    plain = open_session(Graph(n, np.array(sorted(edges))))
    session.count()
    plain.count()
    mismatches = 0
    for _ in range(200):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in edges and rng.random() < 0.5:
            op = ("-", *edge)
            edges.remove(edge)
        elif edge not in edges:
            op = ("+", *edge)
            edges.add(edge)
        else:
            continue
        session.apply([op])
        plain.apply([op])
        mismatches += session.count() != plain.count()
    # count() answers from the delta joins' running total; simulate()
    # prices the shards of the patched structures and count plan.
    final = session.simulate()
    fresh = open_session(Graph(n, np.array(sorted(edges))), **config).simulate()
    checks += [
        Check("coloring stream: count mismatches vs plain", mismatches, "==", 0),
        Check(
            "coloring stream: closing simulate() shards == fresh session",
            [dataclasses.asdict(shard) for shard in final.result.shards]
            == [dataclasses.asdict(shard) for shard in fresh.result.shards],
            "==",
            True,
        ),
        Check(
            "coloring stream: closing simulate() triangles == plain count",
            final.triangles == plain.count(),
            "==",
            True,
        ),
    ]
    session.close()
    plain.close()
    return checks, {}


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
#: BA vertex counts whose one-edge apply medians are compared.
ONE_EDGE_SIZES = (4_000, 100_000)
ONE_EDGE_SAMPLES = 101


def _mixed_stream(graph, num_ops: int, seed: int):
    """A reproducible mixed insert/delete stream over ``graph``."""
    rng = np.random.default_rng(seed)
    pool = [tuple(edge) for edge in graph.edge_array().tolist()]
    present = set(pool)
    ops = []
    while len(ops) < num_ops:
        if rng.random() < 0.5 and pool:
            index = int(rng.integers(len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            edge = pool.pop()
            if edge not in present:
                continue
            present.discard(edge)
            ops.append(("-", *edge))
        else:
            n = graph.num_vertices
            u, v = int(rng.integers(n)), int(rng.integers(n))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            pool.append(key)
            ops.append(("+", u, v))
    return ops


#: Unread 50-op ``apply()`` calls before the first read whose plan work
#: the ``streaming`` gate counts: one call patches, more rebuild.
FIRST_READ_CALLS = (1, 2, 10, 40)
FIRST_READ_OPS = 50


def _first_read(graph, calls: int) -> tuple[dict, dict]:
    """The first ``simulate()`` after ``calls`` unread 50-op calls.

    Returns the plan compiles and patches it ran, and its time beside
    the same session's rebuild (``close()``, then ``simulate()``).
    """
    session = open_session(graph)
    session.simulate()
    ops = _mixed_stream(graph, FIRST_READ_OPS * calls, seed=13)
    for start in range(0, len(ops), FIRST_READ_OPS):
        session.apply(ops[start: start + FIRST_READ_OPS])
    with counting_calls(
        (joinplan, "patch_join_plan"), (joinplan, "build_join_plan")
    ) as plan_calls:
        start = time.perf_counter()
        session.simulate()
        first_s = time.perf_counter() - start
    session.close()
    start = time.perf_counter()
    session.simulate()
    rebuild_s = time.perf_counter() - start
    session.close()
    counts = {
        name: plan_calls.count(f"repro.core.plan.{name}")
        for name in ("patch_join_plan", "build_join_plan")
    }
    timing = {
        "first_read_ms": 1e3 * first_s,
        "rebuild_ms": 1e3 * rebuild_s,
        "ratio": first_s / rebuild_s if rebuild_s else None,
    }
    return counts, timing


def _one_edge_apply_ms(num_vertices: int) -> float:
    """Median wall time of a one-edge ``apply()`` on a resident BA graph."""
    graph = generators.barabasi_albert(num_vertices, 8, seed=42)
    session = open_session(graph)
    session.count()
    times = []
    for op in _mixed_stream(graph, ONE_EDGE_SAMPLES, seed=11):
        start = time.perf_counter()
        session.apply([op])
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def streaming():
    """Incremental streaming on the session fast path.

    A 20k-vertex / ~160k-edge BA graph resident in a 4-array
    ``degree``-sharded session takes a 1,000-op insert/delete stream in
    one ``apply()``:

    * its count equals a from-scratch sharded run on the final graph,
      and its post-stream run conserves that run's :class:`EventCounts`;
    * a ``num_arrays=1`` session over the same stream is bit-identical to
      the single-array engine;
    * each session runs the stream as at most ``MAX_SEGMENTS`` engine
      batches (a count gate that cannot pass on a fast machine by luck);
    * neither builds a whole-structure key array during ``apply()``;
    * the stream runs at least ``MIN_STREAMING_SPEEDUP`` faster than
      per-op full recounts (one recount timed as the mean of 3).

    On the same graph, a session that ran ``simulate()`` then takes
    each of :data:`FIRST_READ_CALLS` unread 50-op calls, and its next
    ``simulate()`` must patch the plan once and compile nothing after
    one call, and compile once and patch nothing after more (an apply
    drops the windows and plan no read folded since the previous call).

    The median one-edge ``apply()`` at 100k / 800k edges must stay
    within ``MAX_ONE_EDGE_GROWTH`` of the one at 4k / 32k: a splice
    rewrites only the rows it touches, so an apply's cost must not grow
    with the graph.  Each first read's time is recorded beside the same
    session's rebuild, ungated.
    """
    num_ops = 1_000
    sharded_config = AcceleratorConfig(num_arrays=4, shard_by="degree")
    graph = generators.barabasi_albert(20_000, 8, seed=42)
    ops = _mixed_stream(graph, num_ops, seed=7)

    session = open_session(graph, num_arrays=4, shard_by="degree")
    session.count()  # bootstrap the base count outside the timed region
    with counting_calls((SlicedMatrix, "global_keys")) as key_builds:
        start = time.perf_counter()
        update = session.apply(ops)
        incremental_s = time.perf_counter() - start
    final_graph = session.graph
    scratch = TCIMAccelerator(sharded_config).run(final_graph)
    # The maintained count, read before a full run could refresh it.
    sharded_count = session.count()
    resident = session.run()

    single = open_session(graph)
    single.count()
    with counting_calls((SlicedMatrix, "global_keys")) as single_key_builds:
        single_update = single.apply(ops)
    reference = TCIMAccelerator(AcceleratorConfig()).run(final_graph)
    single_run = single.run()

    start = time.perf_counter()
    for _ in range(3):
        TCIMAccelerator(sharded_config).run(final_graph)
    recount_s = (time.perf_counter() - start) / 3
    speedup = recount_s * num_ops / incremental_s if incremental_s else float("inf")
    one_edge_ms = {str(size): _one_edge_apply_ms(size) for size in ONE_EDGE_SIZES}
    small, large = (one_edge_ms[str(size)] for size in ONE_EDGE_SIZES)
    first_reads = {calls: _first_read(graph, calls) for calls in FIRST_READ_CALLS}

    checks = [
        Check(
            "sharded count == from-scratch sharded run",
            sharded_count == scratch.triangles,
            "==",
            True,
        ),
        Check(
            "sharded post-stream EventCounts == from-scratch",
            dataclasses.asdict(resident.events) == dataclasses.asdict(scratch.events),
            "==",
            True,
        ),
        Check("sharded session engine batches", update.segments, "<=", MAX_SEGMENTS),
        Check(
            "num_arrays=1 session engine batches",
            single_update.segments,
            "<=",
            MAX_SEGMENTS,
        ),
        Check(
            "global_keys calls in both sessions' apply()",
            len(key_builds) + len(single_key_builds),
            "<=",
            MAX_KEY_BUILDS,
        ),
        Check(
            "num_arrays=1 == single-array engine",
            single.count() == reference.triangles
            and dataclasses.asdict(single_run.events)
            == dataclasses.asdict(reference.events),
            "==",
            True,
        ),
        Check(
            "speedup vs per-op recounts (x)", speedup, ">=", MIN_STREAMING_SPEEDUP
        ),
        Check(
            "one-edge apply 100k / 4k vertices (x)",
            large / small,
            "<=",
            MAX_ONE_EDGE_GROWTH,
        ),
    ]
    for calls, (counts, _) in first_reads.items():
        label = f"first read after {calls} unread 50-op calls"
        checks += [
            Check(
                f"{label}: plan patches",
                counts["patch_join_plan"],
                "==",
                1 if calls == 1 else 0,
            ),
            Check(
                f"{label}: plan compiles",
                counts["build_join_plan"],
                "==",
                0 if calls == 1 else 1,
            ),
        ]
    recorded = {
        "streaming": {
            "num_ops": num_ops,
            "incremental_s": incremental_s,
            "ops_per_second": num_ops / incremental_s if incremental_s else None,
            "full_recount_s": recount_s,
            "speedup_vs_per_op_recounts": speedup,
        },
        "gates": {
            "streaming": {
                "one_edge_apply_ms": one_edge_ms,
                "first_read": {
                    str(calls): timing for calls, (_, timing) in first_reads.items()
                },
            }
        },
    }
    return checks, recorded


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
#: The analytics benchmark's graph and batch: Holme–Kim, 8k vertices.
PATCH_VERTICES = 8_000
PATCH_ATTACH = 8
PATCH_TRIAD_P = 0.5
PATCH_BATCH = 8
PLAN_REPEATS = 5


def _identical(a, b) -> bool:
    return (
        a.triangles == b.triangles
        and dataclasses.asdict(a.events) == dataclasses.asdict(b.events)
        and dataclasses.asdict(a.cache_stats) == dataclasses.asdict(b.cache_stats)
    )


def _plans_identical(a, b) -> bool:
    return a.num_edges == b.num_edges and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in (
            "row_positions", "col_positions", "trace_keys", "pair_counts", "bounds",
            "diagonal_pairs", "diagonal_masks",
        )
    )


def _slot_keys(sym, positions) -> np.ndarray:
    """The global slice key held in each slot ``positions`` of ``sym``."""
    positions = np.asarray(positions, dtype=np.int64)
    owners = np.searchsorted(sym.indptr, positions, side="right") - 1
    return owners * sym.slices_per_row + sym.slice_ids[positions]


def _plan_is_current(session) -> bool:
    """Whether the session's patched count plan equals, position for
    position, a compile over its own windows (slots depend on the
    structure's layout), and slice key for slice key a compile over a
    freshly sliced structure of its graph."""
    plan = session.join_plan
    windows, edges = session._residency.windows, session._residency.edges
    own = build_join_plan(*windows, *edges)
    graph = session.graph
    fresh_sym = SlicedMatrix.from_graph(graph, "symmetric")
    fresh = build_join_plan(*SliceWindow.pair(fresh_sym), *oriented_edges(graph, "upper"))
    same = _plans_identical(plan, own) and all(
        np.array_equal(getattr(own, name), getattr(fresh, name))
        for name in ("trace_keys", "pair_counts", "diagonal_pairs", "diagonal_masks")
    )
    return same and all(
        np.array_equal(
            _slot_keys(windows[0].sym, getattr(own, name)),
            _slot_keys(fresh_sym, getattr(fresh, name)),
        )
        for name in ("row_positions", "col_positions")
    )


def _plan_patch() -> dict:
    """Plan patch vs rebuild for one batch and its undo, exactness checked.

    A session with its count plan and triangle list resident applies
    ``PATCH_BATCH`` absent edges, then deletes them; after each its count
    plan must equal a rebuild and no fallback may fire.  Timing runs on
    the same windows count plan outside the session, so each side can
    be repeated on identical inputs: the session's splice, edge merge
    and window refresh once, then best of ``PLAN_REPEATS`` for
    ``patch_join_plan`` and for ``build_join_plan`` on the same
    post-batch windows, summed over the insert and the delete.
    """
    graph = generators.powerlaw_cluster(
        PATCH_VERTICES, PATCH_ATTACH, PATCH_TRIAD_P, seed=0
    )
    rng = np.random.default_rng(11)
    batch = set()
    while len(batch) < PATCH_BATCH:
        u, v = sorted(map(int, rng.integers(PATCH_VERTICES, size=2)))
        if u != v and not graph.has_edge(u, v):
            batch.add((u, v))
    delta = np.array(sorted(batch), dtype=np.int64)
    exact = True
    session = open_session(graph)
    session.support()
    for code in ("+", "-"):
        session.apply([(code, u, v) for u, v in batch])
        exact &= _plan_is_current(session)
        exact &= not any(session.fallback_counts.values())

    sym = SlicedMatrix.from_graph(graph, "symmetric")
    windows = SliceWindow.pair(sym)
    sources, destinations = oriented_edges(graph, "upper")
    plan = build_join_plan(*windows, sources, destinations)
    u, v = delta[:, 0], delta[:, 1]
    diagonal = u // sym.slice_bits == v // sym.slice_bits
    patch_s = rebuild_s = 0.0
    for insert in (True, False):
        mutate = incremental.set_bits if insert else incremental.clear_bits
        sym_delta = mutate(sym, np.concatenate([u, v]), np.concatenate([v, u]))
        sources, destinations, edge_delta = merge_oriented_edges(
            sources, destinations, delta, PATCH_VERTICES, insert
        )
        # The session's flush: refresh the endpoint rows' windows, and
        # name the rows whose windows may have moved.
        SliceWindow.refresh(windows, np.unique(delta))
        changed = np.concatenate([sym_delta.inserted_rows, sym_delta.removed_rows])
        moved = tuple(ends[diagonal | np.isin(ends, changed)] for ends in (u, v))
        seconds, patched = best_of(
            PLAN_REPEATS,
            lambda: patch_join_plan(
                plan, *windows, sources, destinations, edge_delta, sym_delta,
                moved=moved,
            ),
        )
        patch_s += seconds
        seconds, rebuilt = best_of(
            PLAN_REPEATS, lambda: build_join_plan(*windows, sources, destinations)
        )
        rebuild_s += seconds
        exact &= _plans_identical(patched, rebuilt)
        plan = patched
    return {
        "graph": _graph_size(graph),
        "plan_patch_s": patch_s,
        "plan_rebuild_s": rebuild_s,
        "plan_patch_speedup": rebuild_s / patch_s if patch_s else None,
        "exact": bool(exact),
    }


def plan():
    """Resident join plans make repeat queries near-free — exactly.

    Holds the 20k-vertex / ~160k-edge BA graph resident the way a
    session does (slice structures and oriented edges built once):

    * the run on the resident plan is bit-identical to
      ``kernels.execute_workload``'s plan-free join of the same plain
      sides under the run's capacity split (triangles, every
      :class:`EventCounts` field, cache statistics); a 4-array sharded
      run priced from the resident plan equals one priced from a
      transient plan; and the repeat query on the resident plan is at
      least ``MIN_PLAN_REUSE_SPEEDUP`` faster than one that compiles a
      transient plan (best of ``PLAN_REPEATS`` each);
    * after a randomized 120-op stream through a session, the patched
      plan equals a plan compiled from scratch, and the session's run
      equals a from-scratch accelerator run;
    * on the 8k-vertex Holme–Kim graph of the ``analytics`` benchmark,
      one 8-edge batch and its undo leave a session's count plan equal
      to a rebuild, and patching the windows count plan a session
      patches is at least ``MIN_PLAN_PATCH_SPEEDUP`` faster than
      rebuilding it.
    """
    graph = generators.barabasi_albert(20_000, 8, seed=0)
    start = time.perf_counter()
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    edge_arrays = oriented_edges(graph, "upper")
    build_s = time.perf_counter() - start
    accelerator = TCIMAccelerator(AcceleratorConfig())
    resident = dict(row_sliced=row, col_sliced=col, edge_arrays=edge_arrays)
    cold_s, cold = best_of(1, lambda: accelerator.run(graph, **resident))
    compile_s, join_plan = best_of(1, lambda: build_join_plan(row, col, *edge_arrays))
    planless_s, _ = best_of(PLAN_REPEATS, lambda: accelerator.run(graph, **resident))
    planned_s, planned = best_of(
        PLAN_REPEATS, lambda: accelerator.run(graph, **resident, join_plan=join_plan)
    )
    reuse_speedup = planless_s / planned_s if planned_s else float("inf")
    # The one plan-free path left, over the same sides and capacity split.
    plan_free = kernels.execute_workload(
        row, col, *edge_arrays, planned.column_cache_slices,
        accelerator.config.policy, accelerator.config.seed,
    )
    plan_free_exact = (
        plan_free.accumulator, plan_free.events, plan_free.cache_stats
    ) == (planned.triangles, planned.events, planned.cache_stats)
    # Before the sharded run prices from the plan and materialises its
    # per-edge bounds.
    plan_bytes = join_plan.nbytes

    sharded_accel = TCIMAccelerator(AcceleratorConfig(num_arrays=4, shard_by="degree"))
    sharded_plain = sharded_accel.run(graph, **resident)
    sharded_planned = sharded_accel.run(graph, **resident, join_plan=join_plan)

    session = open_session(graph)
    session.count()
    session.apply(random_ops(graph, 120, np.random.default_rng(7))[0])
    final = session.graph
    plan_equal = _plan_is_current(session)
    scratch = TCIMAccelerator(AcceleratorConfig()).run(final)
    session_exact = _identical(session.run(), scratch)
    patch = _plan_patch()

    checks = [
        Check("planned run == plan-free run", plan_free_exact, "==", True),
        Check(
            "plan reuse speedup (x)", reuse_speedup, ">=", MIN_PLAN_REUSE_SPEEDUP
        ),
        Check(
            "4-array sharded planned == plan-free",
            _identical(sharded_plain, sharded_planned),
            "==",
            True,
        ),
        Check("after 120 ops: patched plan == rebuild", bool(plan_equal), "==", True),
        Check("after 120 ops: session run == from-scratch", session_exact, "==", True),
        Check("count-plan patch == rebuild, no fallback", patch["exact"], "==", True),
        Check(
            "count-plan patch speedup (x)",
            patch["plan_patch_speedup"],
            ">=",
            MIN_PLAN_PATCH_SPEEDUP,
        ),
    ]
    model = default_pim_model()
    recorded = {
        "engine": {
            "graph": _graph_size(graph),
            "triangles": cold.triangles,
            "slice_build_s": build_s,
            "cold_query_s": cold_s,
            "plan_compile_s": compile_s,
            "repeat_query_planless_s": planless_s,
            "repeat_query_planned_s": planned_s,
            "plan_reuse_speedup": reuse_speedup,
            "plan_pairs": join_plan.num_pairs,
            "plan_bytes": plan_bytes,
            "plan_patch_s": patch["plan_patch_s"],
            "plan_rebuild_s": patch["plan_rebuild_s"],
            "plan_patch_speedup": patch["plan_patch_speedup"],
            "plan_patch_graph": patch["graph"],
            "modelled": {
                "query_latency_s": model.evaluate(cold.events).latency_s,
                "plan_compile_latency_s": model.evaluate_plan_compile(
                    cold.events.edges_processed, join_plan.num_pairs
                ).latency_s,
                "plan_reuse_latency_s": model.evaluate_plan_reuse(
                    cold.events
                ).latency_s,
            },
        }
    }
    return checks, recorded


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
WORKLOAD_REPEATS = 3
ANALYTICS_ROUNDS = 20
ANALYTICS_BATCH = 8


def _workload_problems(session, graph) -> list[str]:
    """Every session workload against its oracle; returns the divergences."""
    problems = []
    if session.support() != edge_support(graph):
        problems.append("support() diverges from edge_support oracle")
    if session.truss() != truss_decomposition(graph):
        problems.append("truss() diverges from truss_decomposition oracle")
    report = session.clustering()
    if not np.allclose(report.local, metrics.local_clustering(graph)):
        problems.append("clustering() local coefficients diverge")
    if not np.array_equal(
        report.triangles_per_vertex, metrics.triangles_per_vertex(graph)
    ):
        problems.append("clustering() per-vertex tallies diverge")
    if abs(report.transitivity - metrics.transitivity(graph)) > 1e-12:
        problems.append("clustering() transitivity diverges")
    rng = np.random.default_rng(5)
    for _ in range(10):
        u, v = rng.integers(0, graph.num_vertices, size=2).tolist()
        brute = len(
            set(graph.neighbors(u).tolist()) & set(graph.neighbors(v).tolist())
        )
        if session.common_neighbors(u, v) != brute:
            problems.append(f"common_neighbors({u}, {v}) diverges")
            break
    for problem in problems:
        print(f"workloads: {problem}")
    return problems


def workloads():
    """Every workload through the shared kernel path — exactly and fast.

    On an 8k-vertex BA graph:

    * ``support()`` / ``truss()`` / ``clustering()`` /
      ``common_neighbors()`` equal the pure-Python oracles with the plan
      on and off and 4-array sharded;
    * a repeat ``support()`` (witness pass over the resident count plan,
      tallies and map) is at least ``MIN_SUPPORT_SPEEDUP`` faster than
      ``edge_support``, and a cold ``truss()`` (witness pass, tallies,
      frontier peel and map) at least ``MIN_TRUSS_SPEEDUP`` faster than
      ``truss_decomposition`` (best of ``WORKLOAD_REPEATS`` each);
    * after a randomized 120-op stream the read round (``simulate()``,
      ``support()``, ``clustering()``, ``truss()``) rebuilds no
      ``Graph`` (counted before the oracle reads ``session.graph``),
      answers like a fresh session and the oracles, and fires no
      fallback;
    * over ``ANALYTICS_ROUNDS`` rounds of an ``ANALYTICS_BATCH``-edge
      ``apply()`` (random inserts, then their deletes) followed by
      ``support()``, ``clustering()`` and ``truss()``, which patch the
      triangle list and trussness, the median round is at least
      ``MIN_READ_AFTER_WRITE_SPEEDUP`` faster than the median
      from-scratch ``triangle_witnesses`` + ``peel_trussness`` of the
      same generations, and every round equals those passes.

    It also records resident vs oracle clustering for the trajectory.
    """
    graph = generators.barabasi_albert(8_000, 8, seed=0)
    checks = []
    for label, config in (
        ("1 array, plan", {"num_arrays": 1}),
        ("4 arrays, plan", {"num_arrays": 4}),
    ):
        with open_session(graph, **config) as session:
            problems = _workload_problems(session, graph)
        checks.append(Check(f"oracle divergences [{label}]", len(problems), "==", 0))

    session = open_session(graph)
    total_support = sum(session.support().values())  # warm: slices, plan, caches

    def rerun(work):
        # Drop only the memoised results, the triangle list included: the
        # timed call re-runs the witness pass against the resident count
        # plan, which is the quantity gated.
        def timed():
            session._residency.workloads.clear()
            return work()

        return timed

    oracle_s, oracle_map = best_of(WORKLOAD_REPEATS, lambda: edge_support(graph))
    resident_s, resident_map = best_of(WORKLOAD_REPEATS, rerun(session.support))
    cluster_s, _ = best_of(WORKLOAD_REPEATS, rerun(session.clustering))
    cluster_oracle_s, _ = best_of(1, lambda: metrics.local_clustering(graph))
    truss_oracle_s, truss_oracle = best_of(
        WORKLOAD_REPEATS, lambda: truss_decomposition(graph)
    )
    truss_s, truss_map = best_of(WORKLOAD_REPEATS, rerun(session.truss))
    support_speedup = oracle_s / resident_s if resident_s else float("inf")
    truss_speedup = truss_oracle_s / truss_s if truss_s else float("inf")
    checks += [
        Check("timed resident support == oracle", resident_map == oracle_map, "==", True),
        Check(
            "resident support() speedup (x)", support_speedup, ">=", MIN_SUPPORT_SPEEDUP
        ),
        Check("timed cold truss == oracle", truss_map == truss_oracle, "==", True),
        Check("cold truss() speedup (x)", truss_speedup, ">=", MIN_TRUSS_SPEEDUP),
    ]

    rng = np.random.default_rng(7)
    ops, present = random_ops(graph, 120, rng)
    session.apply(ops)
    # Count before anything reads session.graph: the oracle below does.
    with counting_calls((Graph, "from_parts"), (SlicedMatrix, "nonzeros")) as builds:
        session.simulate()
        session.support()
        session.clustering()
        session.truss()
    mutated = session.graph
    stream_problems = _workload_problems(session, mutated)
    with open_session(mutated) as fresh:
        support_fresh = session.support() == fresh.support()
        truss_fresh = session.truss() == fresh.truss()
    checks += [
        Check("after 120 ops: Graph rebuilds in the read round", len(builds), "==", 0),
        Check("after 120 ops: oracle divergences", len(stream_problems), "==", 0),
        Check("after 120 ops: patched support == fresh session", support_fresh, "==", True),
        Check("after 120 ops: patched truss == fresh session", truss_fresh, "==", True),
        Check(
            "after 120 ops: fallbacks fired",
            sum(session.fallback_counts.values()),
            "==",
            0,
        ),
    ]

    patched_s, scratch_s = [], []
    pending: list[tuple[int, int]] = []
    mismatched = 0
    for _ in range(ANALYTICS_ROUNDS):
        if pending:
            ops = [("-", *edge) for edge in pending]
            pending.clear()
        else:
            while len(pending) < ANALYTICS_BATCH:
                u, v = sorted(rng.integers(graph.num_vertices, size=2).tolist())
                if u != v and (u, v) not in present and (u, v) not in pending:
                    pending.append((u, v))
            ops = [("+", *edge) for edge in pending]
        start = time.perf_counter()
        session.apply(ops)
        support = session.support()
        session.clustering()
        trussness = session.truss()
        patched_s.append(time.perf_counter() - start)
        join_plan = session.join_plan  # flushed outside the clock
        start = time.perf_counter()
        listed = kernels.triangle_witnesses(
            *session._residency.windows, *session._residency.edges, plan=join_plan
        )
        supports = np.bincount(listed.reshape(-1), minlength=len(support))
        peeled = peel_trussness(supports, listed)
        scratch_s.append(time.perf_counter() - start)
        mismatched += not (
            np.array_equal(support.per_edge, supports)
            and np.array_equal(trussness.per_edge, peeled)
        )
    session.close()
    patched_median = float(np.median(patched_s))
    scratch_median = float(np.median(scratch_s))
    checks += [
        Check("read-after-write rounds differing from scratch", mismatched, "==", 0),
        Check(
            f"read-after-write speedup, median of {ANALYTICS_ROUNDS} rounds (x)",
            scratch_median / patched_median if patched_median else float("inf"),
            ">=",
            MIN_READ_AFTER_WRITE_SPEEDUP,
        ),
    ]

    # The witness pass ANDs exactly the count plan's pairs, so the count
    # run's events price every workload that reads the triangle list.
    events = TCIMAccelerator(AcceleratorConfig()).run(graph).events
    model = default_pim_model()
    rows = {
        "support": (resident_s, oracle_s, {"num_edges": graph.num_edges}),
        "truss": (truss_s, truss_oracle_s, {"num_edges": graph.num_edges}),
        "cluster": (cluster_s, cluster_oracle_s, {"num_vertices": graph.num_vertices}),
    }
    recorded = {
        "workloads": {
            "graph": _graph_size(graph),
            "total_support": int(total_support),
            "workloads": {
                kind: {
                    "resident_s": resident,
                    "oracle_s": oracle,
                    "speedup": oracle / resident if resident else None,
                    "modelled_latency_s": model.evaluate_workload(
                        events, kind, plan_reuse=True, **size
                    ).latency_s,
                }
                for kind, (resident, oracle, size) in rows.items()
            },
        },
        "gates": {
            "workloads": {
                "read_after_write_patched_ms": 1e3 * patched_median,
                "read_after_write_scratch_ms": 1e3 * scratch_median,
            }
        },
    }
    return checks, recorded


# ----------------------------------------------------------------------
# fusion
# ----------------------------------------------------------------------
FUSION_GRAPHS = 8
FUSION_VERTICES = 3_000
FUSION_CLIENTS = 16
FUSION_DEPTH = 8
FUSION_ROUNDS = 3
FUSION_BATCH_PAIRS = 8
#: Alternating serial / burst measurement rounds (the gate's sample).
AB_ROUNDS = 7


def _fusion_trace(steps: int, seed: int):
    """Reads across every probe and workload op, with barriered apply batches."""
    rng = random.Random(seed)
    trace = []
    for _ in range(steps):
        for index in range(FUSION_GRAPHS):
            u = rng.randrange(FUSION_VERTICES)
            v = rng.randrange(FUSION_VERTICES)
            pairs = [
                (rng.randrange(FUSION_VERTICES), rng.randrange(FUSION_VERTICES))
                for _ in range(9)
            ]
            trace.extend(
                [
                    ("count", index),
                    ("support", index),
                    ("truss", index),
                    ("cluster", index),
                    ("cn_pair", index, u, v),
                    ("cn_top", index, u, 5),
                    ("cn_many", index, pairs),
                ]
            )
        target = rng.randrange(FUSION_GRAPHS)
        edits = [
            ("+", rng.randrange(FUSION_VERTICES), rng.randrange(FUSION_VERTICES))
            for _ in range(3)
        ] + [("-", rng.randrange(FUSION_VERTICES), rng.randrange(FUSION_VERTICES))]
        trace.append(("apply", target, edits))
    return trace


async def _run_fusion_trace(service, graphs, trace, concurrent: bool) -> list:
    # Applies are barriered (all in-flight reads drain first) so both
    # runs observe identical graph generations per read; a batch's
    # atomicity against a concurrent apply is tested in tests/test_fusion.py.
    out = []
    tasks = []
    for op in trace:
        graph = graphs[op[1]]
        if op[0] == "count":
            call = service.count(graph)
        elif op[0] == "support":
            call = service.support(graph)
        elif op[0] == "truss":
            call = service.truss(graph, k=3)
        elif op[0] == "cluster":
            call = service.cluster(graph)
        elif op[0] == "cn_pair":
            call = service.common_neighbors(graph, op[2], op[3])
        elif op[0] == "cn_top":
            call = service.common_neighbors(graph, op[2], k=op[3])
        elif op[0] == "cn_many":
            call = service.common_neighbors_many(graph, op[2])
        else:
            out.extend(await asyncio.gather(*tasks))
            tasks = []
            report = await service.apply(graph, op[2])
            out.append((report.inserted, report.deleted, report.triangles))
            continue
        if concurrent:
            tasks.append(call)
        else:
            out.append(await call)
    out.extend(await asyncio.gather(*tasks))
    return out


async def _fusion_exactness(graphs) -> list[Check]:
    trace = _fusion_trace(steps=4, seed=20)
    async with open_service(max_sessions=FUSION_GRAPHS) as serial:
        serial_out = await _run_fusion_trace(serial, graphs, trace, concurrent=False)
        serial_events = {s.key: s.events for s in serial.report().sessions}
    async with open_service(max_sessions=FUSION_GRAPHS) as burst:
        burst_out = await _run_fusion_trace(burst, graphs, trace, concurrent=True)
        report = burst.report()
        burst_events = {s.key: s.events for s in report.sessions}
    return [
        Check(
            "trace replies == one-at-a-time replies", serial_out == burst_out, "==", True
        ),
        Check(
            "trace per-session EventCounts == one-at-a-time",
            serial_events == burst_events,
            "==",
            True,
        ),
        Check(
            "trace batched several probes at once", report.max_fused_batch > 1, "==", True
        ),
    ]


def _probe_work(seed: int):
    rng = np.random.default_rng(seed)
    return [
        [
            [
                [
                    tuple(map(int, pair))
                    for pair in rng.integers(
                        0, FUSION_VERTICES, (FUSION_BATCH_PAIRS, 2)
                    )
                ]
                for _ in range(FUSION_DEPTH)
            ]
            for _ in range(FUSION_ROUNDS)
        ]
        for _ in range(FUSION_CLIENTS)
    ]


async def _drive_probes(service, graphs, work, concurrent: bool) -> float:
    """Serve ``work``: 16 clients keeping 8 probes in flight each, or the
    same probes one at a time.  Returns the wall seconds."""

    async def client(index: int) -> None:
        for step, probes in enumerate(work[index]):
            calls = [
                (graphs[(index + step + slot) % FUSION_GRAPHS], pairs)
                for slot, pairs in enumerate(probes)
            ]
            if concurrent:
                await asyncio.gather(
                    *(service.common_neighbors_many(g, pairs) for g, pairs in calls)
                )
            else:
                for graph, pairs in calls:
                    await service.common_neighbors_many(graph, pairs)

    start = time.perf_counter()
    if concurrent:
        await asyncio.gather(*(client(index) for index in range(FUSION_CLIENTS)))
    else:
        for index in range(FUSION_CLIENTS):
            await client(index)
    return time.perf_counter() - start


async def _fusion_throughput(graphs):
    serial_s, burst_s, ratios = [], [], []
    async with open_service(max_sessions=FUSION_GRAPHS) as service:
        # Residency outside timing: the count plan and the symmetric
        # structure the probes join against.
        for graph in graphs:
            await service.count(graph)
            await service.common_neighbors(graph, 0, 1)
        for round_index in range(AB_ROUNDS):
            work = _probe_work(seed=77 + round_index)
            order = (False, True) if round_index % 2 == 0 else (True, False)
            seconds = {}
            for concurrent in order:
                seconds[concurrent] = await _drive_probes(
                    service, graphs, work, concurrent
                )
            serial_s.append(seconds[False])
            burst_s.append(seconds[True])
            ratios.append(seconds[False] / seconds[True])
        return serial_s, burst_s, ratios, service.report()


def fusion():
    """The serving tier's probe batching: bit-identical and worth it.

    Every common-neighbour probe parks until the end of its event-loop
    tick and drains in one batch with the others parked in that tick.

    * **Exactness.** A randomized trace of reads (count / support /
      truss / cluster / common-neighbor probes) with barriered ``apply``
      batches, served concurrently, gives replies and per-session
      :class:`EventCounts` equal to serving it one request at a time
      (where every probe drains alone), and the concurrent run did batch
      several probes at once.
    * **Throughput.** 16 concurrent clients keeping 8 cache-busting
      ``common_neighbors_many`` probes in flight each, over 8 resident
      sessions, clear at least ``MIN_FUSION_SPEEDUP`` the rate of the
      same probes served one in flight.  One service serves both for
      ``AB_ROUNDS`` alternating rounds (the same fresh probe set per
      round, the order flipped every round), and the gate is the median
      per-round ratio, so one slow phase of a shared host cannot decide
      it.  Its largest batch serves at least ``MIN_FUSED_BATCH`` probes,
      and every session stays resident.
    """
    graphs = [
        generators.barabasi_albert(FUSION_VERTICES, 6, seed=seed)
        for seed in range(FUSION_GRAPHS)
    ]
    checks = asyncio.run(_fusion_exactness(graphs))
    serial_s, burst_s, ratios, report = asyncio.run(_fusion_throughput(graphs))
    speedup = statistics.median(ratios)
    checks += [
        Check(
            f"burst over serial probes, median of {AB_ROUNDS} alternating rounds (x)",
            speedup,
            ">=",
            MIN_FUSION_SPEEDUP,
        ),
        Check("max_fused_batch", report.max_fused_batch, ">=", MIN_FUSED_BATCH),
        Check("peak resident sessions", report.pool.peak_resident, ">=", MIN_RESIDENT),
    ]
    probes = FUSION_CLIENTS * FUSION_ROUNDS * FUSION_DEPTH
    serial_median = statistics.median(serial_s)
    burst_median = statistics.median(burst_s)
    recorded = {
        "serving": {
            "probe_clients": FUSION_CLIENTS,
            "probe_depth": FUSION_DEPTH,
            "probe_requests": probes,
            "probe_pairs_each": FUSION_BATCH_PAIRS,
            "serial_probe_s": serial_median,
            "burst_probe_s": burst_median,
            "serial_probe_qps": probes / serial_median,
            "burst_probe_qps": probes / burst_median,
            "batching_speedup": speedup,
            "fused_batches": report.fused_batches,
            "fused_reads": report.fused_reads,
            "max_fused_batch": report.max_fused_batch,
            "kernel_launches": report.kernel_launches,
        },
        "gates": {"fusion": {"round_ratios": ratios}},
    }
    return checks, recorded


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
SPILL_THRESHOLD = 2**20  # 1 MiB
STORAGE_REPEATS = 3

_RSS_CHILD = r"""
import json, sys
from repro.api import open_session
from repro.graph import generators

def anon_kb():
    for line in open("/proc/self/status"):
        if line.startswith("RssAnon"):
            return int(line.split()[1])

kind, store_dir, threshold = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = generators.barabasi_albert(20_000, 8, seed=0)
before = anon_kb()
kw = {}
if kind == "memmap":
    kw = dict(storage_dir=store_dir, spill_threshold_bytes=threshold)
session = open_session(graph, **kw)
session.count()
session.support()
after = anon_kb()
detail = session.resident_bytes_detail()
print(json.dumps({"anon_delta_kb": after - before, "detail": detail}))
"""


def _rss_child(kind: str, store_dir: str) -> dict:
    """Anonymous-RSS growth of one session, measured in a subprocess so
    this process's allocator noise cannot contaminate it."""
    result = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, kind, store_dir, str(SPILL_THRESHOLD)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR)},
    )
    if result.returncode != 0:
        raise RuntimeError(f"{kind} child failed:\n{result.stderr}")
    return json.loads(result.stdout)


def _build_residency(session) -> None:
    """Force the structure, its windows and the plan resident, no engine
    query."""
    with session._lock:
        session._residency.count_inputs()


def storage():
    """The out-of-core tier is exact, warm, and actually spills.

    On the 20k-vertex BA graph, whose symmetric slice structure and
    count plan total ~8.4 MB:

    * a session whose slice payloads and plans live in disk-backed
      memmaps (1 MiB spill threshold) answers ``count`` / ``support`` /
      ``common_neighbors`` like the all-RAM session, on one array and
      4-array sharded;
    * hydrating a session from its snapshot is at least
      ``MIN_HYDRATE_SPEEDUP`` faster than establishing the same residency
      cold (slice the symmetric structure, derive its windows, compile
      the count plan; best of ``STORAGE_REPEATS`` each), and the
      hydrated session counts exactly;
    * the memmap session spills at least ``MIN_SPILL_MULTIPLE`` times the
      threshold, and its anonymous-RSS growth stays below the RAM
      session's by at least ``spilled / RSS_SPILL_DIVISOR``.
    """
    graph = generators.barabasi_albert(20_000, 8, seed=0)
    checks = []
    with tempfile.TemporaryDirectory(prefix="gates-storage-") as tmp:
        tmp_path = Path(tmp)
        ram = open_session(graph)
        expected = {
            "count": ram.count(),
            "support": ram.support(),
            "cn": ram.common_neighbors(0, k=8),
        }
        for extra in ({"num_arrays": 1}, {"num_arrays": 4, "shard_by": "degree"}):
            disk = open_session(
                graph,
                storage_dir=str(tmp_path / "spill"),
                spill_threshold_bytes=SPILL_THRESHOLD,
                **extra,
            )
            exact = (
                disk.count() == expected["count"]
                and disk.support() == expected["support"]
                and disk.common_neighbors(0, k=8) == expected["cn"]
            )
            label = ",".join(f"{k}={v}" for k, v in extra.items())
            checks.append(Check(f"memmap == RAM [{label}]", exact, "==", True))
            disk.close()

        snap_dir = tmp_path / "snap"
        start = time.perf_counter()
        ram.snapshot(snap_dir)  # also a page-cache warm-up for the reads
        snapshot_write_s = time.perf_counter() - start
        snapshot_bytes = snapshot_nbytes(snap_dir)
        plan_pairs = ram.join_plan.num_pairs
        cold_s = float("inf")
        for _ in range(STORAGE_REPEATS):
            cold = open_session(graph)
            start = time.perf_counter()
            _build_residency(cold)
            cold_s = min(cold_s, time.perf_counter() - start)
            cold.close()
        warm_s = float("inf")
        warm_count = None
        for _ in range(STORAGE_REPEATS):
            start = time.perf_counter()
            warm = open_session(snapshot=snap_dir)
            warm_s = min(warm_s, time.perf_counter() - start)
            assert warm._residency.plan is not None
            warm_count = warm.count()
            warm.close()
        hydrate_speedup = cold_s / warm_s if warm_s else float("inf")

        ram_child = _rss_child("ram", str(tmp_path / "rss-store"))
        mm_child = _rss_child("memmap", str(tmp_path / "rss-store"))
    spilled = mm_child["detail"]["spilled"]
    ram_anon = ram_child["anon_delta_kb"] * 1024
    mm_anon = mm_child["anon_delta_kb"] * 1024
    checks += [
        Check("hydrated count == RAM count", warm_count == expected["count"], "==", True),
        Check("warm hydrate speedup (x)", hydrate_speedup, ">=", MIN_HYDRATE_SPEEDUP),
        Check(
            "memmap spilled bytes",
            spilled,
            ">=",
            MIN_SPILL_MULTIPLE * SPILL_THRESHOLD,
        ),
        Check(
            "memmap anonymous RSS growth (B)",
            mm_anon,
            "<=",
            ram_anon - spilled // RSS_SPILL_DIVISOR,
        ),
    ]
    model = default_pim_model()
    recorded = {
        "storage": {
            "graph": _graph_size(graph),
            "snapshot_write_s": snapshot_write_s,
            "snapshot_bytes": snapshot_bytes,
            "cold_residency_s": cold_s,
            "warm_hydrate_s": warm_s,
            "hydrate_speedup": hydrate_speedup,
            "resident_bytes": mm_child["detail"]["total"],
            "spilled_bytes": spilled,
            "modelled": {
                "hydrate_latency_s": model.evaluate_hydrate(snapshot_bytes).latency_s,
                "cold_open_latency_s": model.evaluate_cold_open(
                    graph.num_edges, plan_pairs
                ).latency_s,
            },
        },
        "gates": {"storage": {"ram_anon_growth_bytes": ram_anon}},
    }
    return checks, recorded


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
SERVING_GRAPHS = 8
SERVING_CLIENTS_PER_GRAPH = 2
SERVING_BATCHES = 2
SERVING_BATCH_SIZE = 6


@functools.lru_cache(maxsize=64)
def _ba_graph(n: int, attach: int, seed: int):
    return generators.barabasi_albert(n, attach, seed=seed)


def _resolve_ba(remainder: str, spec: str):
    """``ba:<n>/<attach>/<seed>`` — memoised so both serving modes and the
    oracle replay share one base-graph build."""
    try:
        n, attach, seed = (int(part) for part in remainder.split("/"))
    except ValueError:
        raise ReproError(f"bad ba spec {spec!r}: expected ba:<n>/<attach>/<seed>") from None
    return _ba_graph(n, attach, seed)


def _client_ops(graph, client: int, seed: int):
    """One client's apply batches over a private vertex block of ``graph``.

    Client ``client`` (0-based within its graph) only touches vertex
    pairs inside its contiguous block, so ops from clients sharing a
    session commute — the final graph is interleaving-independent.
    """
    block = graph.num_vertices // SERVING_CLIENTS_PER_GRAPH
    lo = client * block
    hi = lo + block
    rng = np.random.default_rng(seed)
    present = {
        (u, v)
        for u, v in map(tuple, graph.edge_array().tolist())
        if lo <= u < hi and lo <= v < hi
    }
    pool = sorted(present)
    batches = []
    for _ in range(SERVING_BATCHES):
        batch = []
        while len(batch) < SERVING_BATCH_SIZE:
            if pool and rng.random() < 0.45:
                index = int(rng.integers(len(pool)))
                pool[index], pool[-1] = pool[-1], pool[index]
                edge = pool.pop()
                if edge not in present:
                    continue
                present.discard(edge)
                batch.append(("-", *edge))
            else:
                u = int(rng.integers(lo, hi))
                v = int(rng.integers(lo, hi))
                key = (min(u, v), max(u, v))
                if u == v or key in present:
                    continue
                present.add(key)
                pool.append(key)
                batch.append(("+", u, v))
        batches.append(batch)
    return batches


def _serving_trace(specs):
    """Per-client scripts plus the serial order.

    Each client's script is a closed loop per batch: ``count`` (warm hit
    after the first), ``apply`` the batch, ``count`` again, and a
    ``simulate`` on the last batch.  Consecutive clients sit on different
    graphs and the serial order interleaves them round-robin, so the
    serial baseline switches sessions on (almost) every request — the
    access pattern the resident pool is built for, and the worst case
    for one-session-at-a-time serving.
    """
    scripts = []
    for client in range(SERVING_CLIENTS_PER_GRAPH):
        for spec_index, spec in enumerate(specs):
            graph = _resolve_ba(spec.split(":", 1)[1], spec)
            batches = _client_ops(graph, client, seed=1000 * spec_index + client)
            requests = []
            for index, batch in enumerate(batches):
                requests.append(("count", None))
                requests.append(("apply", batch))
                requests.append(("count", None))
                if index == len(batches) - 1:
                    requests.append(("simulate", None))
            scripts.append({"spec": spec, "requests": requests, "ops": batches})
    order = []
    longest = max(len(script["requests"]) for script in scripts)
    for step in range(longest):
        for client_id, script in enumerate(scripts):
            if step < len(script["requests"]):
                order.append((client_id, step))
    return scripts, order


async def _serve_request(service: Service, spec: str, kind: str, payload):
    if kind == "count":
        return await service.count(spec)
    if kind == "simulate":
        return (await service.simulate(spec)).triangles
    return (await service.apply(spec, payload)).triangles


async def _serve_concurrent(specs, scripts):
    """All clients at once, each a closed loop awaiting every response."""

    async def client(script) -> None:
        for kind, payload in script["requests"]:
            await _serve_request(service, script["spec"], kind, payload)

    async with Service(max_sessions=SERVING_GRAPHS, record_journal=True) as service:
        start = time.perf_counter()
        await asyncio.gather(*(client(script) for script in scripts))
        elapsed = time.perf_counter() - start
        finals = {spec: await service.count(spec) for spec in specs}
        return finals, service.report(), elapsed


async def _serve_serial(specs, scripts, order):
    """The same trace through a pool of capacity 1, one request at a time
    in the round-robin order: every graph switch evicts and rebuilds
    residency, with mutated sessions written back."""
    async with Service(max_sessions=1, max_workers=1) as service:
        start = time.perf_counter()
        for client_id, step in order:
            script = scripts[client_id]
            await _serve_request(service, script["spec"], *script["requests"][step])
        elapsed = time.perf_counter() - start
        finals = {spec: await service.count(spec) for spec in specs}
        return finals, elapsed


def serving():
    """Multi-session serving: exact, and worth the resident pool.

    16 clients over 8 graphs (BA n=6,000, attach 6, from a ``ba:`` source
    scheme registered through :func:`repro.registry.register_source`)
    each run a closed loop of ``count`` / ``apply`` / ``simulate``
    requests; clients sharing a graph update disjoint vertex blocks, so
    every session's final state is interleaving-independent:

    * every final count equals a :class:`DynamicTriangleCounter` replay
      of that session's ops;
    * serial one-session-at-a-time serving of the same trace ends in the
      same counts;
    * the concurrent service holds ``MIN_RESIDENT`` sessions at once and
      clears at least ``MIN_SERVING_SPEEDUP`` the serial throughput (the
      cost the resident pool amortises: re-slicing and re-running a
      graph on every switch).
    """
    if "ba" not in registry.source_schemes():
        registry.register_source("ba", _resolve_ba)
    specs = [f"ba:6000/6/{seed}" for seed in range(SERVING_GRAPHS)]
    scripts, order = _serving_trace(specs)
    total_requests = sum(len(script["requests"]) for script in scripts)
    finals, report, concurrent_s = asyncio.run(_serve_concurrent(specs, scripts))
    oracle = {}
    for spec in specs:
        graph = _resolve_ba(spec.split(":", 1)[1], spec)
        counter = DynamicTriangleCounter(graph.num_vertices, graph)
        for script in scripts:
            if script["spec"] == spec:
                for batch in script["ops"]:
                    counter.apply_ops(batch)
        oracle[spec] = counter.triangles
    serial_finals, serial_s = asyncio.run(_serve_serial(specs, scripts, order))
    speedup = serial_s / concurrent_s if concurrent_s else float("inf")
    checks = [
        Check("peak resident sessions", report.pool.peak_resident, ">=", MIN_RESIDENT),
        Check("final counts == oracle replay", finals == oracle, "==", True),
        Check("serial replay final counts == concurrent", serial_finals == finals, "==", True),
        Check("speedup vs serial serving (x)", speedup, ">=", MIN_SERVING_SPEEDUP),
    ]
    recorded = {
        "serving": {
            "sessions": SERVING_GRAPHS,
            "reads": total_requests,
            "read_wall_s": concurrent_s,
            "queries_per_second": total_requests / concurrent_s,
            "coalesced": report.coalesced,
            "resident_bytes": report.resident_bytes,
            "plan_bytes": sum(s.plan_bytes for s in report.sessions),
        },
        "gates": {"serving": {"serial_queries_per_second": total_requests / serial_s}},
    }
    return checks, recorded


# ----------------------------------------------------------------------
# parallelism
# ----------------------------------------------------------------------
def parallelism():
    """Host time of multi-array sweeps next to their modelled latency.

    Records only.  Multi-array runs are priced from the count plan
    in-process, so each row times, for one fleet width, the resident
    re-sweep a ``simulate()`` runs (structures and join plan built once
    beforehand; the partition is computed per run, as a session's
    ``simulate()`` does) under degree-LPT and under coloring, next to
    the single-array resident sweep, which gives the same count (best of
    5 each).  The coloring shard count and balance come from the run's
    notes.  The ``modelled_*`` columns are the architecture model's
    critical path of the same runs (``measured_shard_report``): the
    modelled latency falls with width while the host time does not,
    because the arrays are a modelled organisation.  Every row records
    the host CPU count.
    """
    graph = generators.barabasi_albert(12_000, 8, seed=0)
    cpu_count = os.cpu_count()
    model = default_pim_model()
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    edge_arrays = oriented_edges(graph, "upper")
    join_plan = build_join_plan(row, col, *edge_arrays)
    resident = dict(row_sliced=row, col_sliced=col, edge_arrays=edge_arrays)
    single_s, baseline = best_of(
        5,
        lambda: TCIMAccelerator(AcceleratorConfig()).run(
            graph, **resident, join_plan=join_plan
        ),
    )

    def modelled(result):
        if not result.shards:
            return model.evaluate(result.events).latency_s
        return measured_shard_report(result, model).latency_s

    curve = []
    for num_arrays in (1, 4, 16, 32):
        degree = TCIMAccelerator(
            AcceleratorConfig(num_arrays=num_arrays, shard_by="degree")
        )
        degree_s, degree_run = best_of(
            5, lambda: degree.run(graph, **resident, join_plan=join_plan)
        )
        coloring = TCIMAccelerator(
            AcceleratorConfig(num_arrays=num_arrays, shard_by="coloring")
        )
        coloring_s, coloring_run = best_of(
            5, lambda: coloring.run(graph, **resident, join_plan=join_plan)
        )
        assert degree_run.triangles == coloring_run.triangles == baseline.triangles
        curve.append(
            {
                "arrays": num_arrays,
                "cpu_count": cpu_count,
                "coloring_shards": coloring_run.notes.get("num_shards", 1),
                "coloring_balance": coloring_run.notes.get("balance", 1.0),
                "single_array_sweep_s": single_s,
                "degree_lpt_sweep_s": degree_s,
                "coloring_sweep_s": coloring_s,
                "modelled_degree_lpt_latency_s": modelled(degree_run),
                "modelled_coloring_latency_s": modelled(coloring_run),
            }
        )
    at_16 = next(point for point in curve if point["arrays"] == 16)
    recorded = {
        "parallelism": {
            "graph": _graph_size(graph),
            "triangles": baseline.triangles,
            "cpu_count": cpu_count,
            "curve": curve,
            "degree_lpt_vs_single_at_16": at_16["degree_lpt_sweep_s"] / single_s,
            "coloring_vs_single_at_16": at_16["coloring_sweep_s"] / single_s,
        }
    }
    return [], recorded


# ----------------------------------------------------------------------
# code
# ----------------------------------------------------------------------
def code():
    """Lines of Python in ``src/`` and ``benchmarks/``, as ``wc -l`` counts.

    Records only: the size of the library and of its gates, tracked like
    any other metric so that a change which deletes a path shows it.
    """

    def lines(root: Path) -> int:
        return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))

    recorded = {
        "code": {
            "src_lines": lines(SRC_DIR),
            "benchmarks_lines": lines(Path(__file__).resolve().parent),
        }
    }
    return [], recorded


#: Every gate, in run order.
GATES = (
    engine,
    partitions,
    streaming,
    plan,
    workloads,
    fusion,
    storage,
    serving,
    parallelism,
    code,
)
