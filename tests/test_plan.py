"""Differential tests for resident join plans (:mod:`repro.core.plan`).

Three contracts, none negotiable:

* **Exactness** — pricing from a plan produces bit-identical triangle
  counts, :class:`EventCounts` and :class:`CacheStatistics` versus the
  plan-free join, across graph families, slice widths,
  cache pressure and shard layouts.
* **Coherence** — a plan (and the keys cache beneath it) can never be
  served against structures it was not compiled for: the in-place slice
  maintenance reports every structural change, ``structure_version``
  keys the staleness guard, and the incremental patch produces a plan
  array-equal to a from-scratch rebuild after every operation of a
  randomized stream.
* **Isolation** — concurrent readers during an apply stream never
  observe a half-patched plan (plans are immutable; patching swaps
  whole objects under the session lock).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.core import incremental
from repro.core import plan as joinplan
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.incremental import StructureDelta
from repro.core.kernels import execute_workload
from repro.core.plan import (
    JoinPlan,
    build_join_plan,
    merge_oriented_edges,
    patch_join_plan,
)
from repro.core.sharding import price_partition
from repro.core.slicing import SlicedMatrix, SliceWindow, expand_runs
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph


GRAPH_FAMILIES = {
    "ba": lambda: generators.barabasi_albert(150, 5, seed=1),
    "rmat": lambda: generators.rmat(8, 1200, seed=2),
    "road": lambda: generators.road_network(12, 12, seed=3),
    "powerlaw": lambda: generators.powerlaw_cluster(120, 4, 0.6, seed=5),
    "triangle-free": lambda: generators.complete_bipartite(9, 11),
    "empty": lambda: Graph(0),
    "isolated": lambda: Graph(9),
    "single-edge": lambda: Graph(2, [(0, 1)]),
}


def structures(graph, slice_bits=64):
    row = SlicedMatrix.from_graph(graph, "upper", slice_bits=slice_bits)
    col = SlicedMatrix.from_graph(graph, "lower", slice_bits=slice_bits)
    return row, col


def run_with_and_without_plan(graph, **config_kwargs):
    config = AcceleratorConfig(**config_kwargs)
    accelerator = TCIMAccelerator(config)
    plain = accelerator.run(graph)
    row, col = structures(graph, config.slice_bits)
    plan = build_join_plan(row, col, *oriented_edges(graph, "upper"))
    planned = accelerator.run(graph, row_sliced=row, col_sliced=col, join_plan=plan)
    return plain, planned


def price_and_join(row, col, edges, plan=None):
    """``(planned, plain)``: one array priced from ``plan`` (a transient
    one when ``None``) and the plan-free join of the same edge list under
    that array's capacity split."""
    config = AcceleratorConfig()
    planned = price_partition(config, row, col, edges, plan)
    (shard,) = planned.shards
    plain = execute_workload(
        row, col, *edges, shard.column_cache_slices, config.policy, config.seed
    )
    return planned, plain


def assert_identical(plain, planned):
    assert planned.triangles == plain.triangles
    assert dataclasses.asdict(planned.events) == dataclasses.asdict(plain.events)
    assert dataclasses.asdict(planned.cache_stats) == dataclasses.asdict(
        plain.cache_stats
    )


def assert_plans_equal(left: JoinPlan, right: JoinPlan):
    assert left.num_edges == right.num_edges
    for name in (
        "row_positions", "col_positions", "trace_keys", "pair_counts",
        "diagonal_pairs", "diagonal_masks",
    ):
        a = np.asarray(getattr(left, name), dtype=np.int64)
        b = np.asarray(getattr(right, name), dtype=np.int64)
        assert np.array_equal(a, b), name


def assert_plans_identical(patched: JoinPlan, rebuilt: JoinPlan):
    """Field by field, dtypes included (``assert_plans_equal`` widens)."""
    assert patched.num_edges == rebuilt.num_edges
    for name in (
        "row_positions", "col_positions", "trace_keys", "pair_counts", "bounds",
        "diagonal_pairs", "diagonal_masks",
    ):
        left, right = getattr(patched, name), getattr(rebuilt, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def assert_structures_equal(mutated: SlicedMatrix, fresh: SlicedMatrix):
    assert np.array_equal(mutated.indptr, fresh.indptr)
    assert np.array_equal(mutated.slice_ids, fresh.slice_ids)
    assert np.array_equal(mutated.data, fresh.data)


def assert_window_holds(window, fresh: SlicedMatrix):
    """A window holds exactly the slices of a standalone oriented
    structure: the same ids per row, the same bits on its side."""
    rows = np.arange(fresh.num_rows)
    starts, counts = window.row_slice_ranges(rows)
    assert np.array_equal(counts, fresh.row_valid_counts())
    positions = expand_runs(starts, counts)
    ids = window.slice_ids[positions]
    assert np.array_equal(ids, fresh.slice_ids)
    if isinstance(window, SliceWindow):
        masks = window.side_masks(np.repeat(rows, counts), ids)
        assert np.array_equal(window.data[positions] & masks, fresh.data)
    else:
        assert np.array_equal(window.data[positions], fresh.data)


class TestPlannedExecutionDifferential:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_default_config(self, family):
        assert_identical(*run_with_and_without_plan(GRAPH_FAMILIES[family]()))

    @pytest.mark.parametrize("family", ["ba", "powerlaw", "road"])
    def test_symmetric_orientation(self, family):
        # Engine-level joins of the symmetric structure with itself over
        # both directions of every edge (the delta join's and the pair
        # probes' layout): a plan over the two plain sides serves them
        # bit-identically, and they see each triangle six times.
        graph = GRAPH_FAMILIES[family]()
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        edges = oriented_edges(graph, "symmetric")
        plan = build_join_plan(sym, sym, *edges)
        planned, plain = price_and_join(sym, sym, edges, plan)
        triangles = TCIMAccelerator().run(graph).triangles
        assert plain.accumulator == planned.accumulator == 6 * triangles
        assert plain.events == planned.events
        assert dataclasses.asdict(plain.cache_stats) == dataclasses.asdict(
            planned.cache_stats
        )

    @pytest.mark.parametrize("slice_bits", [8, 64, 128])
    def test_slice_widths(self, slice_bits):
        # 8-bit slices exercise the per-byte conjunction fallback, 128-bit
        # the multi-word path.
        for family in ("ba", "road", "triangle-free"):
            assert_identical(
                *run_with_and_without_plan(
                    GRAPH_FAMILIES[family](), slice_bits=slice_bits
                )
            )

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("array_bytes", [512, 4096])
    def test_cache_pressure(self, policy, array_bytes):
        # A plan's trace classification must match a transient plan's
        # even when the trace's serial eviction suffix runs.
        plain, planned = run_with_and_without_plan(
            generators.powerlaw_cluster(150, 5, 0.7, seed=6),
            array_bytes=array_bytes,
            policy=policy,
            seed=9,
        )
        assert_identical(plain, planned)
        assert plain.cache_stats.exchanges > 0 or array_bytes > 512

    @pytest.mark.parametrize(
        "num_arrays,shard_by", [(3, "edges"), (4, "degree"), (2, "rows")]
    )
    def test_sharded(self, num_arrays, shard_by):
        assert_identical(
            *run_with_and_without_plan(
                generators.barabasi_albert(400, 5, seed=7),
                num_arrays=num_arrays,
                shard_by=shard_by,
            )
        )

    def test_session_level_equivalence(self):
        # A session runs on its resident plan; a standalone run compiles
        # a transient one.  Both price the same run.
        graph = generators.barabasi_albert(300, 4, seed=11)
        session = open_session(graph)
        resident = session.run()
        standalone = TCIMAccelerator(AcceleratorConfig()).run(graph)
        assert resident.triangles == standalone.triangles == session.count()
        assert dataclasses.asdict(resident.events) == dataclasses.asdict(
            standalone.events
        )
        assert dataclasses.asdict(resident.cache_stats) == dataclasses.asdict(
            standalone.cache_stats
        )
        assert session.join_plan is not None
        assert session.plan_resident_bytes() == session.join_plan.nbytes > 0

    def test_plan_edge_count_mismatch_rejected(self):
        graph = generators.barabasi_albert(200, 4, seed=1)
        row, col = structures(graph)
        sources, destinations = oriented_edges(graph, "upper")
        plan = build_join_plan(row, col, sources[:10], destinations[:10])
        with pytest.raises(ArchitectureError, match="edges"):
            price_and_join(row, col, (sources, destinations), plan)
        # A foreign plan is rejected whatever structures it joins.
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        sym_edges = oriented_edges(graph, "symmetric")
        with pytest.raises(ArchitectureError, match="edges"):
            price_and_join(
                sym, sym, sym_edges,
                build_join_plan(sym, sym, sym_edges[0][:6], sym_edges[1][:6]),
            )


class TestStructureVersionAudit:
    """Satellite bug audit: structure mutation vs derived artifacts.

    The keys cache *is* invalidated by the current mutators — these
    tests pin that down as a contract (versioned, not ad-hoc) and prove
    the hazard is real for any position-holding artifact: after a
    structural mutation the old plan's stored positions point at the
    wrong slices, so serving it without the ``structure_version`` guard
    would be silently wrong, not loudly broken.
    """

    def test_payload_only_mutation_keeps_version_and_positions(self):
        graph = generators.barabasi_albert(120, 4, seed=3)
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        version = sym.structure_version
        keys_before = sym.global_keys().copy()
        # Both endpoints already own valid slices covering each other's
        # column block iff the edge exists; pick a non-edge whose bit
        # lands in an existing slice: vertex pairs inside the same
        # 64-column block as an existing neighbour.
        u = int(np.argmax(np.diff(graph.csr[0])))  # highest-degree vertex
        neighbour = int(graph.neighbors(u)[0])
        candidate = None
        for v in range(
            (neighbour // 64) * 64, min((neighbour // 64 + 1) * 64, graph.num_vertices)
        ):
            if v != u and not graph.has_edge(u, v):
                candidate = v
                break
        assert candidate is not None
        delta = incremental.set_bit(sym, u, candidate)
        assert not delta.changed
        assert sym.structure_version == version
        assert np.array_equal(sym.global_keys(), keys_before)
        delta = incremental.clear_bit(sym, u, candidate)
        assert not delta.changed
        assert sym.structure_version == version

    def test_structural_mutation_bumps_version_and_keys_stay_exact(self):
        rng = np.random.default_rng(5)
        graph = generators.powerlaw_cluster(150, 4, 0.5, seed=2)
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        edges = set(map(tuple, graph.edge_array().tolist()))
        n = graph.num_vertices
        for _ in range(80):
            if edges and rng.random() < 0.5:
                edge = list(edges)[int(rng.integers(len(edges)))]
                edges.discard(edge)
                delta = incremental.clear_bits(
                    sym,
                    np.array([edge[0], edge[1]]),
                    np.array([edge[1], edge[0]]),
                )
            else:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (min(u, v), max(u, v)) in edges:
                    continue
                edges.add((min(u, v), max(u, v)))
                delta = incremental.set_bits(
                    sym, np.array([u, v]), np.array([v, u])
                )
            fresh = SlicedMatrix.from_graph(
                Graph(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)),
                "symmetric",
            )
            assert_structures_equal(sym, fresh)
            # The cached keys always equal a from-scratch derivation:
            # version-keyed invalidation never serves stale keys.
            assert np.array_equal(sym.global_keys(), fresh.global_keys())
            if delta.changed:
                assert delta.inserted_before.size or delta.removed_at.size

    def test_stale_plan_is_rejected_not_served(self):
        graph = generators.barabasi_albert(200, 4, seed=9)
        row, col = structures(graph)
        plan = build_join_plan(row, col, *oriented_edges(graph, "upper"))
        # Force a structural insert into the row structure: bit (0, v)
        # for a v in a column block row 0 does not yet cover.
        covered = set(row.row_slices(0)[0].tolist())
        block = next(
            k for k in range(row.slices_per_row) if k not in covered
        )
        delta = incremental.set_bit(row, 0, block * 64)
        assert delta.changed
        assert not plan.matches(row, col)
        with pytest.raises(ArchitectureError, match="stale join plan"):
            TCIMAccelerator().run(
                graph, row_sliced=row, col_sliced=col, join_plan=plan
            )

    def test_stale_positions_really_point_at_wrong_slices(self):
        # The hazard the guard exists for: after an insert at the front
        # of the structure every stored position is off by one, so a
        # version-blind consumer would gather the wrong payloads.
        graph = generators.barabasi_albert(200, 4, seed=9)
        row, col = structures(graph)
        sources, destinations = oriented_edges(graph, "upper")
        plan = build_join_plan(row, col, sources, destinations)
        first_owner = int(np.searchsorted(row.indptr, 1, side="right")) - 1
        covered = set(row.row_slices(first_owner)[0].tolist())
        block = next(
            k for k in range(row.slices_per_row) if k not in covered
        )
        incremental.set_bit(row, first_owner, block * 64)
        fresh = build_join_plan(row, col, sources, destinations)
        stale_rows = np.asarray(plan.row_positions, dtype=np.int64)
        fresh_rows = np.asarray(fresh.row_positions, dtype=np.int64)
        assert stale_rows.size == fresh_rows.size
        assert not np.array_equal(stale_rows, fresh_rows)


class TestPatchedPlanEqualsRebuild:
    def _reference(self, session):
        graph = session.graph
        row, col = SliceWindow.pair(SlicedMatrix.from_graph(graph, "symmetric"))
        return row, col, build_join_plan(row, col, *oriented_edges(graph, "upper"))

    def test_randomized_stream_per_op(self):
        rng = np.random.default_rng(17)
        graph = generators.powerlaw_cluster(200, 4, 0.5, seed=4)
        session = open_session(graph)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        session.count()
        present = set(map(tuple, graph.edge_array().tolist()))
        n = graph.num_vertices
        for step in range(60):
            if present and rng.random() < 0.5:
                edge = list(present)[int(rng.integers(len(present)))]
                present.discard(edge)
                op = ("-", *edge)
            else:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (min(u, v), max(u, v)) in present:
                    continue
                present.add((min(u, v), max(u, v)))
                op = ("+", u, v)
            session.apply([op])
            oracle.apply_ops([op])
            assert session.count() == oracle.triangles
            # join_plan flushes the pending patch; it must equal a plan
            # compiled from scratch on freshly sliced structures.
            patched = session.join_plan
            _, _, reference = self._reference(session)
            assert_plans_equal(patched, reference)
            for window, kind in zip(session._residency.windows, ("upper", "lower")):
                assert_window_holds(
                    window, SlicedMatrix.from_graph(session.graph, kind)
                )
            assert patched.matches(*session._residency.windows)

    def test_coalesced_batches_then_one_flush(self):
        graph = generators.barabasi_albert(250, 4, seed=6)
        session = open_session(graph)
        session.count()
        ops = (
            [("+", 0, v) for v in range(50, 70)]
            + [("-", *edge) for edge in sorted(map(tuple, graph.edge_array().tolist()))[:15]]
            + [("+", 1, v) for v in range(80, 90)]
        )
        report = session.apply(ops)
        # Net effect: one deletion batch, then one insertion batch.
        assert report.segments == 2
        patched = session.join_plan
        _, _, reference = self._reference(session)
        assert_plans_equal(patched, reference)
        # And the patched plan serves an exact full run.
        scratch = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        resident = session.run()
        assert resident.triangles == scratch.triangles
        assert dataclasses.asdict(resident.events) == dataclasses.asdict(
            scratch.events
        )

    @pytest.mark.parametrize("insert_first", [False, True])
    def test_payload_only_window_move(self, insert_first):
        # Row 5's diagonal slice (slice 0 of 64 bits) keeps the bit of
        # vertex 1 below it, so deleting (5, 9) is payload-only in the
        # symmetric structure, yet row 5's upper window loses slice 0 —
        # and with it edge (5, 70)'s pair on that slice.
        edges = [(1, 5), (5, 9), (5, 70), (9, 70), (9, 20)]
        graph = Graph(100, edges if not insert_first else edges[:1] + edges[2:])
        session = open_session(graph)
        session.count()
        version = session._residency.structure().structure_version
        op = ("-" if not insert_first else "+", 5, 9)
        session.apply([op])
        assert session._residency.structure().structure_version == version  # payload-only
        patched = session.join_plan
        assert_plans_equal(patched, self._reference(session)[2])
        assert patched.matches(*session._residency.windows)
        fresh = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        assert_identical(fresh, session.run())
        assert session.count() == fresh.triangles == (1 if insert_first else 0)

    def test_rolled_back_delete_keeps_the_plan_current(self):
        # Hub at the last vertex: the symmetric hub row overflows the
        # array in the delete's delta join, which rolls the removal back.
        n = 8194
        graph = Graph(n, [(i, n - 1) for i in range(n - 1)] + [(0, 1)])
        session = open_session(graph, array_bytes=800)
        session.count()
        plan = session.join_plan
        with pytest.raises(ArchitectureError, match="row region"):
            session.apply([("-", 0, n - 1)])
        assert session.join_plan is plan
        assert plan.matches(*session._residency.windows)
        assert session.run().triangles == 1
        assert session.join_plan is plan
        assert dict(session.fallback_counts) == dict.fromkeys(session.fallback_counts, 0)

    def test_insert_then_delete_roundtrip_restores_plan(self):
        graph = generators.barabasi_albert(200, 4, seed=8)
        session = open_session(graph)
        session.count()
        before = session.join_plan
        session.apply([("+", 0, 150), ("+", 3, 180)])
        session.join_plan  # folds the inserts, so the deletes patch too
        session.apply([("-", 0, 150), ("-", 3, 180)])
        after = session.join_plan
        assert_plans_equal(after, before)

    def test_sharded_session_after_stream_is_exact(self):
        graph = generators.barabasi_albert(400, 5, seed=10)
        session = open_session(graph, num_arrays=3, shard_by="degree")
        session.count()
        rng = np.random.default_rng(3)
        edges = sorted(map(tuple, graph.edge_array().tolist()))
        ops = [("-", *edges[int(rng.integers(len(edges)))]) for _ in range(10)]
        ops += [("+", int(rng.integers(400)), int(rng.integers(400)))
                for _ in range(20)]
        ops = [op for op in ops if op[1] != op[2]]
        session.apply(ops)
        scratch = TCIMAccelerator(
            AcceleratorConfig(num_arrays=3, shard_by="degree")
        ).run(session.graph)
        resident = session.run()
        assert resident.triangles == scratch.triangles
        assert dataclasses.asdict(resident.events) == dataclasses.asdict(
            scratch.events
        )

    def test_patch_failure_falls_back_to_rebuild(self, monkeypatch):
        graph = generators.barabasi_albert(200, 4, seed=12)
        session = open_session(graph)
        session.count()

        def boom(*args, **kwargs):
            raise RuntimeError("injected patch failure")

        monkeypatch.setattr(joinplan, "patch_join_plan", boom)
        before = dict(session.fallback_counts)
        session.apply([("+", 0, 150)])
        # The fallback dropped the caches; queries rebuild and stay exact.
        scratch = TCIMAccelerator(AcceleratorConfig()).run(session.graph)
        assert session.run().triangles == scratch.triangles
        # ...and it did not drop them silently: exactly one count.
        after = dict(session.fallback_counts)
        assert after.pop("flush_patch_error") == before.pop("flush_patch_error") + 1
        assert after == before
        monkeypatch.undo()
        assert_plans_equal(
            session.join_plan,
            self._reference(session)[2],
        )

    def test_read_after_write_stream_fires_no_fallback(self):
        graph = generators.powerlaw_cluster(300, 4, 0.5, seed=14)
        session = open_session(graph)
        session.count()
        session.support()  # the count plan resident, with a triangle list
        rng = np.random.default_rng(19)
        n = graph.num_vertices
        for _ in range(6):
            batch = []
            while len(batch) < 8:
                u, v = map(int, rng.integers(n, size=2))
                if u != v and not session.has_edge(u, v):
                    batch.append(("+", u, v))
            for ops in (batch, [("-", u, v) for _, u, v in batch]):
                session.apply(ops)
                session.run()
                session.support()
        assert dict(session.fallback_counts) == dict.fromkeys(
            session.fallback_counts, 0
        )
        assert set(session.fallback_counts) == {
            "flush_patch_error", "truss_repeel", "workload_patch_error", "full_sweep",
        }
        with pytest.raises(TypeError):
            session.fallback_counts["flush_patch_error"] = 1


@st.composite
def splice_cases(draw):
    """A small graph and one insert or delete batch."""
    n = draw(st.integers(2, 40))
    slice_bits = draw(st.sampled_from([8, 64]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = draw(st.sets(st.sampled_from(pairs), max_size=60))
    insert = draw(st.booleans())
    pool = sorted(set(pairs) - base) if insert else sorted(base)
    assume(pool)
    batch = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=12))
    return n, slice_bits, sorted(base), insert, sorted(batch)


def _windows_and_plan(n: int, slice_bits: int, edges):
    """The windows of one symmetric structure, the upper edge list and
    its count plan — a session's count run inputs."""
    graph = Graph(n, edges)
    sym = SlicedMatrix.from_graph(graph, "symmetric", slice_bits=slice_bits)
    windows = SliceWindow.pair(sym)
    sources, destinations = oriented_edges(graph, "upper")
    return sym, windows, sources, destinations, build_join_plan(
        *windows, sources, destinations
    )


class TestBlockSplicePatch:
    """``patch_join_plan`` over the windows of one symmetric structure
    equals ``build_join_plan`` on the new state."""

    @settings(max_examples=80, deadline=None)
    @given(splice_cases())
    # A vertex gains its first edge (2 and 5 are isolated before).
    @example((6, 64, [(0, 1)], True, [(2, 5)]))
    @example((6, 8, [(0, 1)], True, [(2, 5)]))
    # A vertex loses its last edge.
    @example((6, 64, [(0, 1), (2, 5)], False, [(2, 5)]))
    @example((6, 8, [(0, 1), (2, 5)], False, [(2, 5)]))
    # Payload-only insert: slice 0 of row 0 and of row 2 already exist.
    @example((10, 64, [(0, 1), (0, 3), (1, 2)], True, [(0, 2)]))
    # Edges at vertex 0 and vertex n - 1.
    @example((40, 8, [(0, 9), (5, 39)], True, [(0, 39), (0, 20)]))
    @example((40, 8, [(0, 39), (3, 9), (0, 5)], False, [(0, 39)]))
    # An empty plan gains edges; a plan loses every edge.
    @example((12, 8, [], True, [(1, 7), (3, 11)]))
    @example((12, 8, [(1, 7), (3, 11)], False, [(1, 7), (3, 11)]))
    def test_patch_equals_rebuild(self, case):
        n, slice_bits, base, insert, batch = case
        sym, windows, sources, destinations, plan = _windows_and_plan(
            n, slice_bits, base
        )
        delta_edges = np.array(batch, dtype=np.int64)
        u, v = delta_edges[:, 0], delta_edges[:, 1]
        mutate = incremental.set_bits if insert else incremental.clear_bits
        delta = mutate(sym, np.concatenate([u, v]), np.concatenate([v, u]))
        sources, destinations, edge_delta = merge_oriented_edges(
            sources, destinations, delta_edges, n, insert
        )
        # What the session derives after the splice: the endpoint rows'
        # windows, and the rows whose windows may have moved — a source
        # or destination row whose slice set changed, or whose edge lies
        # in its diagonal slice.
        SliceWindow.refresh(windows, np.unique(delta_edges))
        changed = np.concatenate([delta.inserted_rows, delta.removed_rows])
        diagonal = u // slice_bits == v // slice_bits
        moved = tuple(ends[diagonal | np.isin(ends, changed)] for ends in (u, v))
        patched = patch_join_plan(
            plan, *windows, sources, destinations, edge_delta, delta, moved=moved
        )
        assert_plans_identical(
            patched, build_join_plan(*windows, sources, destinations)
        )
        assert patched.matches(*windows)

    def test_misaligned_inputs_are_rejected(self):
        graph = generators.barabasi_albert(60, 3, seed=4)
        sym, windows, sources, destinations, plan = _windows_and_plan(
            60, 8, graph.edge_array()
        )
        # A column of row 0 outside its valid slices: a structural insert.
        covered = set(sym.row_slices(0)[0].tolist())
        v = next(v for v in range(1, 60) if v // 8 not in covered)
        delta = np.array([[0, v]], dtype=np.int64)
        new_src, new_dst, edge_delta = merge_oriented_edges(
            sources, destinations, delta, 60, True
        )
        unchanged = StructureDelta.unchanged()
        moved = (delta[:, 0], delta[:, 1])
        # The splice report names two insertions; the list grew by one.
        doubled = StructureDelta(
            np.repeat(edge_delta.inserted_before, 2),
            np.repeat(edge_delta.inserted_rows, 2),
            edge_delta.removed_at,
            edge_delta.removed_rows,
        )
        with pytest.raises(ArchitectureError, match="alignment"):
            patch_join_plan(
                plan, *windows, new_src, new_dst, doubled, unchanged, moved=moved
            )
        # The symmetric structure moved without a report.
        assert incremental.set_bits(sym, np.array([0, v]), np.array([v, 0])).changed
        with pytest.raises(ArchitectureError, match="alignment"):
            patch_join_plan(
                plan, *windows, new_src, new_dst, edge_delta, unchanged, moved=moved
            )


@st.composite
def splice_sequences(draw):
    """A small symmetric structure and a few insert or delete batches."""
    n = draw(st.integers(2, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = draw(st.sets(st.sampled_from(pairs), max_size=50))
    batches = draw(
        st.lists(
            st.tuples(st.booleans(), st.sets(st.sampled_from(pairs), max_size=8)),
            min_size=1, max_size=4,
        )
    )
    return n, draw(st.sampled_from([8, 64])), sorted(base), batches


class TestPlanPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(splice_sequences())
    def test_composed_splices_map_every_surviving_slice(self, case):
        n, bits, base, batches = case
        sym = SlicedMatrix.from_graph(Graph(n, base), "symmetric", slice_bits=bits)

        def slices():
            keys = sym.global_keys().tolist()
            return dict(zip(keys, range(len(keys))))

        before, present, deltas = slices(), set(base), []
        for insert, batch in batches:
            chosen = sorted(batch - present if insert else batch & present)
            if not chosen:
                continue
            u, v = np.array(chosen).T
            mutate = incremental.set_bits if insert else incremental.clear_bits
            deltas.append(mutate(sym, np.concatenate([u, v]), np.concatenate([v, u])))
            present = present | set(chosen) if insert else present - set(chosen)
        if not deltas:
            return
        after = slices()
        composed = incremental.compose_deltas(len(before), deltas)
        assert len(before) - composed.removed_at.size + composed.inserted_before.size == len(after)
        table = joinplan._position_map(len(before), composed, np.int64)
        gone = set(composed.removed_at.tolist())
        for key, old in before.items():
            if old not in gone:
                assert table[old] == after[key]
        fresh = composed.inserted_before + np.arange(composed.inserted_before.size)
        owners = np.searchsorted(sym.indptr, fresh, side="right") - 1
        assert np.array_equal(composed.inserted_rows, owners)

    def test_nbytes_counts_every_array_after_a_patch(self):
        graph = generators.barabasi_albert(120, 4, seed=2)
        session = open_session(graph)
        session.support()
        v = next(v for v in range(119, 0, -1) if not session.has_edge(0, v))
        session.apply([("+", 0, v)])
        plan = session.join_plan  # folds the batch in: a patched plan
        assert plan._bounds is not None  # a patched plan carries its bounds
        arrays = (
            plan.row_positions, plan.col_positions, plan.trace_keys,
            plan.pair_counts, plan.diagonal_pairs, plan.diagonal_masks, plan.bounds,
        )
        assert plan.nbytes == sum(array.nbytes for array in arrays)
        assert session.resident_bytes_detail()["plan"] == plan.nbytes

    def test_merge_oriented_edges_rejects_overlap_and_misses(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4)])
        sources, destinations = oriented_edges(graph, "upper")
        with pytest.raises(ArchitectureError, match="overlaps"):
            merge_oriented_edges(sources, destinations, np.array([[0, 1]]), 6, True)
        with pytest.raises(ArchitectureError, match="missing"):
            merge_oriented_edges(sources, destinations, np.array([[0, 5]]), 6, False)

    def test_empty_edge_list_plan(self):
        row, col = structures(Graph(4, [(0, 1)]))
        empty = np.empty(0, dtype=np.int64)
        plan = build_join_plan(row, col, empty, empty)
        assert plan.num_pairs == 0 and plan.num_edges == 0
        for result in price_and_join(row, col, (empty, empty), plan):
            assert result.accumulator == 0
            assert result.events.and_operations == 0
            assert result.cache_stats.accesses == 0

    def test_single_pair_plan_matches_plan_free(self):
        row, col = structures(Graph(4, [(0, 1)]))
        edges = (np.array([0], dtype=np.int64), np.array([1], dtype=np.int64))
        plan = build_join_plan(row, col, *edges)
        assert plan.num_pairs == 1  # slice 0 valid on both sides, AND = 0
        planned, plain = price_and_join(row, col, edges, plan)
        assert plain.accumulator == planned.accumulator == 0
        assert plain.events == planned.events
        assert dataclasses.asdict(plain.cache_stats) == dataclasses.asdict(
            planned.cache_stats
        )


class TestConcurrentReadsDuringApply:
    def test_readers_never_observe_half_patched_plan(self):
        graph = generators.barabasi_albert(400, 5, seed=13)
        session = open_session(graph)
        session.count()
        n = graph.num_vertices
        rng = np.random.default_rng(21)
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                with session.lock:
                    plan = session.join_plan
                    if plan is None:
                        continue
                    # Under the lock the plan must be exactly current for
                    # the resident structures and internally consistent.
                    if session._residency.windows is None:
                        continue
                    if not plan.matches(*session._residency.windows):
                        failures.append("stale plan observed")
                    if int(plan.pair_counts.sum()) != plan.num_pairs:
                        failures.append("inconsistent plan arrays")
                    run = session.run()
                    count = session.count()
                if run.triangles != count:
                    failures.append("run/count diverged")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        oracle = DynamicTriangleCounter(n, graph)
        try:
            present = set(map(tuple, graph.edge_array().tolist()))
            for _ in range(40):
                if present and rng.random() < 0.5:
                    edge = list(present)[int(rng.integers(len(present)))]
                    present.discard(edge)
                    op = ("-", *edge)
                else:
                    u, v = int(rng.integers(n)), int(rng.integers(n))
                    if u == v or (min(u, v), max(u, v)) in present:
                        continue
                    present.add((min(u, v), max(u, v)))
                    op = ("+", u, v)
                session.apply([op])
                oracle.apply_ops([op])
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[:5]
        assert session.count() == oracle.triangles
