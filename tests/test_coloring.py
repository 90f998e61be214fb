"""Properties of the coloring partitioner (communication-free color shards).

The coloring construction assigns every vertex one of ``C`` seeded hash
colors; shard ``{x <= y <= z}`` owns exactly the triangles whose vertex
color multiset is that triple.  Multi-array runs price those shards from
the count plan (:func:`repro.core.sharding.price_partition`).  The tests
here pin:

* **exact cover** — on randomized graphs every triangle is counted by
  exactly one shard (duplicate-free across color triples), so the
  merged count is bit-identical to unsharded;
* **pricing equals execution** — every priced :class:`ShardResult`
  field equals what executing each shard on structures holding only its
  own slices produces (``shard_reference.execute_coloring``),
  capacity errors included;
* **sessions** — a coloring session's ``simulate()`` after a randomized
  op stream equals a fresh session's on the final graph, and a snapshot
  of an earlier release that still records the retired per-shard
  contexts opens and answers.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from shard_reference import execute_coloring
from repro import open_session
from repro.core.accelerator import AcceleratorConfig, EventCounts, TCIMAccelerator
from repro.core.engine import oriented_edges
from repro.core.sharding import (
    assign_colors,
    color_triples,
    min_colors,
    num_color_shards,
    price_partition,
)
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.storage import snapshot as storage_snapshot


def _triangles_by_triple(graph: Graph, colors: np.ndarray) -> dict:
    """Oracle: enumerate triangles and bucket each by its color multiset."""
    n = graph.num_vertices
    adjacency = [set() for _ in range(n)]
    for u, v in graph.edge_array():
        u, v = int(u), int(v)
        adjacency[u].add(v)
        adjacency[v].add(u)
    buckets: dict[tuple[int, int, int], int] = {}
    for u in range(n):
        for v in adjacency[u]:
            if v <= u:
                continue
            for w in adjacency[u] & adjacency[v]:
                if w <= v:
                    continue
                triple = tuple(sorted((int(colors[u]), int(colors[v]), int(colors[w]))))
                buckets[triple] = buckets.get(triple, 0) + 1
    return buckets


def _coloring_run(graph: Graph, **config):
    return TCIMAccelerator(AcceleratorConfig(shard_by="coloring", **config)).run(graph)


def _simulation_fields(report) -> dict:
    """Every priced field of a ``simulate()`` report."""
    result = report.result
    return {
        "triangles": result.triangles,
        "events": dataclasses.asdict(result.events),
        "cache_stats": dataclasses.asdict(result.cache_stats),
        "row_region_slices": result.row_region_slices,
        "column_cache_slices": result.column_cache_slices,
        "notes": dict(result.notes),
        "shards": [dataclasses.asdict(shard) for shard in result.shards],
        "latency_s": report.perf.latency_s,
        "system_energy_j": report.perf.system_energy_j,
    }


class TestColorAssignment:
    def test_shard_count_table(self):
        # The quantisation advertised in the docs: num_arrays -> (C, shards).
        assert [
            (arrays, min_colors(arrays), num_color_shards(min_colors(arrays)))
            for arrays in (1, 4, 16, 32)
        ] == [(1, 1, 1), (4, 2, 4), (16, 4, 20), (32, 5, 35)]

    def test_triples_enumerate_every_multiset_once(self):
        for colors in (1, 2, 3, 5):
            triples = color_triples(colors)
            assert len(triples) == num_color_shards(colors)
            assert len(set(triples)) == len(triples)
            assert all(x <= y <= z for x, y, z in triples)
            expected = {
                tuple(sorted(t))
                for t in itertools.product(range(colors), repeat=3)
            }
            assert set(triples) == expected

    def test_assignment_is_deterministic_and_seeded(self):
        a = assign_colors(500, 4, seed=7)
        b = assign_colors(500, 4, seed=7)
        c = assign_colors(500, 4, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0 and a.max() < 4
        # Hash-based assignment keeps every class populated at this size.
        assert len(np.unique(a)) == 4


class TestExactCover:
    """Every triangle lands in exactly one shard, none twice, none lost."""

    def test_randomized_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(10, 80))
            m = int(rng.integers(n, 6 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            num_arrays = int(rng.choice([4, 16, 32]))
            result = _coloring_run(graph, num_arrays=num_arrays, seed=trial)
            colors = assign_colors(n, min_colors(num_arrays), trial)
            oracle = _triangles_by_triple(graph, colors)
            # Per-shard counts match the oracle bucket for that triple —
            # the shard counted its triangles and nobody else's.
            triples = color_triples(min_colors(num_arrays))
            for triple, shard in zip(triples, result.shards, strict=True):
                assert shard.accumulator == oracle.get(triple, 0), (trial, triple)
            assert result.triangles == sum(oracle.values())

    def test_every_shard_triple_is_unique(self):
        graph = generators.barabasi_albert(200, 5, seed=3)
        result = _coloring_run(graph, num_arrays=16)
        assert result.notes["colors"] == 4
        assert result.notes["num_shards"] == len(result.shards) == 20
        assert [shard.shard_id for shard in result.shards] == list(range(20))
        # Each oriented edge is a pivot in exactly one lane of each of
        # the C shards whose triple contains its color pair.
        assert sum(shard.edges for shard in result.shards) == 4 * graph.num_edges
        loads = [shard.edges for shard in result.shards]
        assert result.notes["balance"] == max(loads) / (sum(loads) / len(loads))
        assert result.notes["balance"] >= 1.0

    def test_one_color_degenerates_to_unsharded(self):
        graph = generators.powerlaw_cluster(150, 4, 0.5, seed=5)
        baseline = TCIMAccelerator().run(graph)
        config = AcceleratorConfig(num_arrays=1, shard_by="coloring")
        edge_arrays = oriented_edges(graph, "upper")
        outcome = price_partition(
            config,
            SlicedMatrix.from_graph(graph, "upper"),
            SlicedMatrix.from_graph(graph, "lower"),
            edge_arrays,
        )
        (shard,) = outcome.shards
        assert outcome.accumulator == baseline.triangles
        assert dataclasses.asdict(shard.events) == dataclasses.asdict(baseline.events)
        assert dataclasses.asdict(shard.cache_stats) == dataclasses.asdict(
            baseline.cache_stats
        )
        assert shard.row_region_slices == baseline.row_region_slices

    def test_events_conserved_across_shards(self):
        graph = generators.barabasi_albert(250, 6, seed=9)
        result = _coloring_run(graph, num_arrays=16)
        baseline = TCIMAccelerator().run(graph)
        assert result.triangles == baseline.triangles
        merged = EventCounts()
        for shard in result.shards:
            merged = merged + shard.events
        assert dataclasses.asdict(merged) == dataclasses.asdict(result.events)
        assert result.notes["communication_free"] is True
        assert result.notes["num_shards"] == 20


class TestPricingMatchesExecution:
    """Priced shards equal executed ones, field by field."""

    def test_randomized_configs(self):
        rng = np.random.default_rng(29)
        evicted = errors = 0
        for trial in range(40):
            n = int(rng.integers(10, 220))
            m = int(rng.integers(n, 8 * n))
            graph = Graph(n, rng.integers(0, n, size=(m, 2)))
            slice_bits = int(rng.choice([8, 16, 64, 128]))
            num_arrays = int(rng.choice([2, 4, 16, 32]))
            shards = num_color_shards(min_colors(num_arrays))
            # Per-array shares from 2 slices (capacity errors) through
            # evicting caches to the default 16 MB array.
            per_array = int(rng.choice([2, 4, 8, 24, 64, 0]))
            config = AcceleratorConfig(
                slice_bits=slice_bits,
                array_bytes=(
                    per_array * shards * slice_bits // 8
                    if per_array
                    else AcceleratorConfig().array_bytes
                ),
                policy=str(rng.choice(["lru", "fifo", "random"])),
                seed=trial,
                num_arrays=num_arrays,
                shard_by="coloring",
            )
            try:
                expected = execute_coloring(graph, config)
            except ArchitectureError as error:
                with pytest.raises(ArchitectureError) as raised:
                    TCIMAccelerator(config).run(graph)
                assert str(raised.value) == str(error), trial
                errors += 1
                continue
            result = TCIMAccelerator(config).run(graph)
            assert [dataclasses.asdict(s) for s in result.shards] == [
                dataclasses.asdict(s) for s in expected
            ], trial
            evicted += result.cache_stats.exchanges > 0
        assert evicted and errors

    def test_wide_color_masks(self):
        # 17 colors need 32-bit slice masks; one machine word per mask
        # caps pricing at 64 colors (45,760 shards).
        graph = generators.barabasi_albert(100, 3, seed=1)
        result = _coloring_run(graph, num_arrays=num_color_shards(17))
        assert result.notes["colors"] == 17
        assert result.triangles == TCIMAccelerator().run(graph).triangles
        with pytest.raises(ArchitectureError, match="at most 64 colors"):
            _coloring_run(graph, num_arrays=num_color_shards(64) + 1)


class TestIncrementalColoring:
    """After randomized op streams a coloring session prices like a
    fresh session on the final graph."""

    def test_session_stream_matches_plain_session(self):
        rng = np.random.default_rng(17)
        n = 60
        edges = {
            (int(u), int(v)) if u < v else (int(v), int(u))
            for u, v in rng.integers(0, n, size=(4 * n, 2))
            if u != v
        }
        config = {"num_arrays": 16, "shard_by": "coloring"}
        session = open_session(Graph(n, np.array(sorted(edges))), **config)
        plain = open_session(Graph(n, np.array(sorted(edges))))
        assert session.count() == plain.count()
        session.simulate()
        swept = 0

        for step in range(120):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
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
            if step % 20 == 19:
                assert session.count() == plain.count()
                fresh = open_session(Graph(n, np.array(sorted(edges))), **config)
                assert _simulation_fields(session.simulate()) == _simulation_fields(
                    fresh.simulate()
                ), step
                swept += 1

        assert session.count() == plain.count()
        # The stream patched the session's own count plan in place, and
        # every read of its maintained count swept it: the event totals
        # price one array only.
        assert session.join_plan is not None
        assert dict(session.fallback_counts) == {
            "flush_patch_error": 0, "truss_repeel": 0, "workload_patch_error": 0,
            "full_sweep": swept,
        }
        session.close()
        plain.close()


class TestSnapshots:
    def test_snapshot_with_retired_context_summary_opens(self, tmp_path):
        # Coloring snapshots of earlier releases carry no count plan and
        # a ``shard_contexts`` summary of the retired per-shard contexts.
        graph = generators.barabasi_albert(200, 5, seed=12)
        config = {"num_arrays": 4, "shard_by": "coloring"}
        with open_session(graph, **config) as session:
            expected = _simulation_fields(session.simulate())
            snap = storage_snapshot.read_snapshot(session.snapshot(tmp_path / "new"))
        meta, arrays = snap.meta, dict(snap.arrays)
        meta["plans"] = {}
        for name in [name for name in arrays if name.startswith("plan.")]:
            del arrays[name]
        meta["shard_contexts"] = {
            "colors": 2,
            "seed": 0,
            "num_shards": 4,
            "resident_bytes": 123456,
            "edges_per_shard": [shard["edges"] for shard in expected["shards"]],
        }
        target = storage_snapshot.write_snapshot(tmp_path / "earlier", meta, arrays)
        restored = open_session(snapshot=target)
        assert restored.count() == expected["triangles"]
        assert _simulation_fields(restored.simulate()) == expected
