"""Out-of-core storage tier: backing store, snapshots, paging.

Three invariants anchor everything here:

1. *Bit-identity* — a memmap-backed session is an implementation detail,
   so every query answer must equal the RAM session's, with the join
   plan on or off and across array sharding.
2. *Round-trip fidelity* — snapshot → restore reproduces the session's
   exact state (count, supports, generation, plans) after an arbitrary
   prefix of the mutation stream, including in a fresh process.
3. *Fail loudly* — a corrupted or truncated snapshot raises
   :class:`StorageError`; it never hydrates into wrong counts.
"""

from __future__ import annotations

import asyncio
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import open_session
from repro.arch.perf import default_pim_model
from repro.core.accelerator import AcceleratorConfig
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.engine import oriented_edges
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix
from repro.errors import ArchitectureError, GraphFormatError, ReproError, StorageError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import iter_edge_chunks, load_graph, read_edge_list
from repro.serve import open_service
from repro.serve.pool import SessionPool
from repro.storage import snapshot as storage_snapshot
from repro.storage.backing import BackingStore


def _graph(seed: int = 0, n: int = 200, m: int = 1200) -> Graph:
    return generators.erdos_renyi(n, m, seed=seed)


def _random_ops(graph: Graph, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    present = {tuple(edge) for edge in graph.edge_array().tolist()}
    pool = list(present)
    n = graph.num_vertices
    ops = []
    while len(ops) < count:
        if pool and rng.random() < 0.4:
            index = int(rng.integers(len(pool)))
            pool[index], pool[-1] = pool[-1], pool[index]
            u, v = pool.pop()
            if (u, v) not in present:
                continue
            present.discard((u, v))
            ops.append(("delete", u, v))
        else:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            present.add(key)
            pool.append(key)
            ops.append(("insert", *key))
    return ops


def _earlier_format_snapshot(session, path):
    """``session`` written in the layout of earlier releases: the graph
    (edge list and CSR), the upper row and lower column structures, the
    symmetric structure, a count plan over the row and column
    structures, and the older oriented and symmetric edge lists with a
    symmetric join plan."""
    graph = session.graph
    arrays = {"graph.edges": graph.edge_array()}
    arrays["graph.indptr"], arrays["graph.indices"] = graph.csr
    structures = {}
    for name, orientation in (("row", "upper"), ("col", "lower"), ("sym", "symmetric")):
        sliced = SlicedMatrix.from_graph(graph, orientation)
        structures[name] = {
            "num_rows": sliced.num_rows,
            "num_cols": sliced.num_cols,
            "slice_bits": sliced.slice_bits,
            "structure_version": 0,
        }
        for field in ("indptr", "slice_ids", "data"):
            arrays[f"{name}.{field}"] = getattr(sliced, field)
    row = SlicedMatrix.from_graph(graph, "upper")
    col = SlicedMatrix.from_graph(graph, "lower")
    sym = SlicedMatrix.from_graph(graph, "symmetric")
    plans = {}
    for name, plan in (
        ("plan", build_join_plan(row, col, *oriented_edges(graph, "upper"))),
        ("sym_plan", build_join_plan(sym, sym, *oriented_edges(graph, "symmetric"))),
    ):
        plans[name] = {
            "num_edges": plan.num_edges,
            "row_version": 0,
            "col_version": 0,
            "row_valid_slices": plan.row_positions.size and int(plan.row_positions.max()) + 1,
            "col_valid_slices": plan.col_positions.size and int(plan.col_positions.max()) + 1,
        }
        for field in ("row_positions", "col_positions", "trace_keys", "pair_counts"):
            arrays[f"{name}.{field}"] = getattr(plan, field)
    for name, orientation in (("edges", "upper"), ("sym_edges", "symmetric")):
        arrays[f"{name}.sources"], arrays[f"{name}.destinations"] = oriented_edges(
            graph, orientation
        )
    meta = {
        # Earlier configs also named the count orientation and the plan.
        "config": {
            **session.config.to_mapping(), "orientation": "upper", "use_plan": True,
        },
        "generation": session.generation,
        "triangles": session.count(),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "structures": structures,
        "plans": plans,
        "edge_lists": ["edges", "sym_edges"],
    }
    return storage_snapshot.write_snapshot(path, meta, arrays)


# ----------------------------------------------------------------------
# BackingStore
# ----------------------------------------------------------------------
class TestBackingStore:
    def test_ram_store_never_spills(self, tmp_path):
        store = BackingStore("ram")
        array = store.empty((100,), np.uint64)
        assert not isinstance(array, np.memmap)
        assert store.spilled_bytes == 0

    def test_memmap_spills_at_threshold(self, tmp_path):
        store = BackingStore("memmap", tmp_path, spill_threshold_bytes=800)
        small = store.empty((10,), np.uint64)  # 80 B: under threshold
        large = store.empty((200,), np.uint64)  # 1600 B: spilled
        assert not isinstance(small, np.memmap)
        assert isinstance(large, np.memmap)
        assert store.spilled_bytes == large.nbytes
        assert store.spilled_files == 1

    def test_adopt_copies_content(self, tmp_path):
        store = BackingStore("memmap", tmp_path, spill_threshold_bytes=0)
        source = np.arange(64, dtype=np.int64)
        adopted = store.adopt(source)
        assert isinstance(adopted, np.memmap)
        np.testing.assert_array_equal(np.asarray(adopted), source)
        # Already-spilled arrays pass through unchanged.
        assert store.adopt(adopted) is adopted

    def test_spill_files_reclaimed_on_release(self, tmp_path):
        store = BackingStore("memmap", tmp_path, spill_threshold_bytes=0)
        array = store.empty((512,), np.uint64)
        nbytes = array.nbytes
        assert store.spilled_bytes == nbytes
        del array
        import gc

        gc.collect()
        assert store.spilled_bytes == 0
        assert not list(Path(tmp_path).glob("spill-*.bin"))

    def test_close_unlinks_everything(self, tmp_path):
        store = BackingStore("memmap", tmp_path, spill_threshold_bytes=0)
        arrays = [store.empty((64,), np.uint64) for _ in range(3)]
        store.close()
        assert store.spilled_bytes == 0
        assert not list(Path(tmp_path).glob("spill-*.bin"))
        # Arrays keep their (now anonymous) contents usable.
        arrays[0][:] = 7
        assert int(arrays[0][0]) == 7

    def test_invalid_kind_and_missing_dir(self, tmp_path):
        with pytest.raises(StorageError):
            BackingStore("tape", tmp_path)
        with pytest.raises(StorageError):
            BackingStore("memmap", None)

    def test_from_config(self, tmp_path):
        ram = BackingStore.from_config(AcceleratorConfig())
        assert ram.kind == "ram"
        spilling = BackingStore.from_config(
            AcceleratorConfig(storage_dir=str(tmp_path), spill_threshold_bytes=0)
        )
        assert spilling.kind == "memmap"
        assert spilling.spill_threshold_bytes == 0


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfigFields:
    def test_defaults_off(self):
        config = AcceleratorConfig()
        assert config.storage_dir is None
        assert config.spill_threshold_bytes is None

    def test_coercion_round_trip(self, tmp_path):
        config = AcceleratorConfig.from_mapping(
            {"storage_dir": str(tmp_path), "spill_threshold_bytes": "4096"}
        )
        assert config.storage_dir == str(tmp_path)
        assert config.spill_threshold_bytes == 4096
        again = AcceleratorConfig.from_mapping(config.to_mapping())
        assert again == config

    @pytest.mark.parametrize("value", [None, "", "none", "None", "null"])
    def test_none_spellings(self, value):
        config = AcceleratorConfig.from_mapping(
            {"storage_dir": value, "spill_threshold_bytes": value}
        )
        assert config.storage_dir is None
        assert config.spill_threshold_bytes is None

    def test_bad_threshold_rejected(self):
        with pytest.raises(ArchitectureError):
            AcceleratorConfig.from_mapping({"spill_threshold_bytes": "many"})


# ----------------------------------------------------------------------
# Chunked plan compile
# ----------------------------------------------------------------------
class TestChunkedCompile:
    def test_chunked_equals_unchunked(self):
        graph = _graph(seed=3)
        session = open_session(graph)
        session.count()
        row, col = session._residency.windows
        sources, destinations = session._residency.edges
        reference = build_join_plan(row, col, sources, destinations)
        for chunk_edges in (1, 7, 100, len(sources) - 1, len(sources), 10**6):
            plan = build_join_plan(
                row, col, sources, destinations, chunk_edges=chunk_edges
            )
            np.testing.assert_array_equal(plan.row_positions, reference.row_positions)
            np.testing.assert_array_equal(plan.col_positions, reference.col_positions)
            np.testing.assert_array_equal(plan.trace_keys, reference.trace_keys)
            np.testing.assert_array_equal(plan.pair_counts, reference.pair_counts)
            np.testing.assert_array_equal(plan.diagonal_pairs, reference.diagonal_pairs)
            np.testing.assert_array_equal(plan.diagonal_masks, reference.diagonal_masks)
            assert plan.row_positions.dtype == reference.row_positions.dtype
            assert plan.trace_keys.dtype == reference.trace_keys.dtype

    def test_chunked_with_store_spills(self, tmp_path):
        graph = _graph(seed=4)
        session = open_session(graph)
        session.count()
        row, col = session._residency.windows
        sources, destinations = session._residency.edges
        store = BackingStore("memmap", tmp_path, spill_threshold_bytes=0)
        plan = build_join_plan(
            row, col, sources, destinations, chunk_edges=64, store=store
        )
        reference = build_join_plan(row, col, sources, destinations)
        np.testing.assert_array_equal(plan.row_positions, reference.row_positions)
        assert store.spilled_bytes > 0

    def test_bad_chunk_edges(self):
        graph = _graph(seed=5, n=30, m=60)
        session = open_session(graph)
        session.count()
        row, col = session._residency.windows
        sources, destinations = session._residency.edges
        with pytest.raises(ArchitectureError):
            build_join_plan(row, col, sources, destinations, chunk_edges=0)


# ----------------------------------------------------------------------
# Memmap sessions: bit-identity with RAM
# ----------------------------------------------------------------------
class TestMemmapSessions:
    @pytest.mark.parametrize("num_arrays", [1, 4])
    def test_bit_identical_queries(self, tmp_path, num_arrays):
        graph = _graph(seed=6)
        ram = open_session(graph, num_arrays=num_arrays)
        disk = open_session(
            graph,
            num_arrays=num_arrays,
            storage_dir=str(tmp_path),
            spill_threshold_bytes=0,
        )
        assert disk.count() == ram.count()
        assert disk.support() == ram.support()
        assert disk.common_neighbors(0, k=5) == ram.common_neighbors(0, k=5)
        assert disk.resident_bytes_detail()["spilled"] > 0

    def test_mutation_stream_stays_identical(self, tmp_path):
        graph = _graph(seed=7)
        ram = open_session(graph)
        disk = open_session(
            graph, storage_dir=str(tmp_path), spill_threshold_bytes=0
        )
        ops = _random_ops(graph, 60, seed=8)
        for start in range(0, 60, 15):
            batch = ops[start : start + 15]
            ram.apply(batch)
            disk.apply(batch)
            assert disk.count() == ram.count()
        assert disk.support() == ram.support()

    def test_splices_keep_structures_spilled(self, tmp_path):
        # A structural splice allocates through the session's store: the
        # symmetric payload and slice ids stay on disk across an apply and
        # the patch flush of the next priced run.
        graph = generators.barabasi_albert(4000, 6, seed=1)
        session = open_session(
            graph, storage_dir=str(tmp_path), spill_threshold_bytes=64 * 1024
        )
        session.simulate()
        session.common_neighbors(0, 1)  # builds the symmetric structure
        sym = session._residency.structure()
        assert isinstance(sym.data, np.memmap) and isinstance(sym.slice_ids, np.memmap)
        spilled = session.resident_bytes_detail()["spilled"]
        absent = [(0, v) for v in range(1, 4000) if not graph.has_edge(0, v)][:2]
        session.apply([("+", *edge) for edge in absent])
        session.simulate()
        assert session._residency.structure() is sym
        assert isinstance(sym.data, np.memmap) and isinstance(sym.slice_ids, np.memmap)
        assert session.resident_bytes_detail()["spilled"] >= spilled

    def test_close_leaves_only_the_edge_set_spilled(self, tmp_path):
        graph = generators.powerlaw_cluster(2_000, 4, 0.5, seed=3)
        session = open_session(graph, storage_dir=str(tmp_path), spill_threshold_bytes=0)
        session.simulate()
        session.support()
        session.clustering()
        session.truss()
        store = session._residency.store
        assert store.spilled_files > 0
        # The graph, a heap object, is the edge set: nothing stays spilled.
        session.close()
        assert store.spilled_files == 0
        absent = next(v for v in range(1, 2_000) if not graph.has_edge(0, v))
        session.apply([("+", 0, absent)])
        # After an apply the symmetric structure is the only edge set: its
        # two slot arrays stay spilled.
        session.close()
        sym = session._residency.sym
        slots = (sym.slice_ids, sym.data)
        assert all(isinstance(array, np.memmap) for array in slots)
        assert store.spilled_files == len(slots) == 2

    def test_resident_bytes_detail_structure(self, tmp_path):
        session = open_session(
            _graph(seed=9), storage_dir=str(tmp_path), spill_threshold_bytes=0
        )
        session.count()
        session.support()
        detail = session.resident_bytes_detail()
        parts = (
            "slices", "plan", "sym_plan", "edges", "graph", "workloads"
        )
        for key in (*parts, "spilled", "total"):
            assert key in detail
            assert detail[key] >= 0
        assert detail["workloads"] > 0  # support() cached its arrays
        assert detail["total"] == sum(detail[k] for k in parts)
        assert session.resident_bytes() == detail["total"]


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshotFormat:
    def test_write_read_round_trip(self, tmp_path):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.ones((4, 8), dtype=np.uint64),
        }
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {"hello": 1}, arrays
        )
        snap = storage_snapshot.read_snapshot(target)
        assert snap.meta == {"hello": 1}
        np.testing.assert_array_equal(snap.arrays["a"], arrays["a"])
        np.testing.assert_array_equal(snap.arrays["b"], arrays["b"])
        assert storage_snapshot.read_snapshot_meta(target) == {"hello": 1}
        assert storage_snapshot.snapshot_nbytes(target) == snap.nbytes

    def test_identical_arrays_share_segments(self, tmp_path):
        same = np.arange(1000, dtype=np.int64)
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"x": same, "y": same.copy()}
        )
        assert len(list(target.glob("seg-*.bin"))) == 1

    def test_overwrite_sweeps_stale_segments(self, tmp_path):
        target = tmp_path / "snap"
        storage_snapshot.write_snapshot(target, {}, {"a": np.arange(50)})
        storage_snapshot.write_snapshot(target, {}, {"a": np.arange(60)})
        snap = storage_snapshot.read_snapshot(target)
        assert len(list(target.glob("seg-*.bin"))) == 1
        np.testing.assert_array_equal(snap.arrays["a"], np.arange(60))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            storage_snapshot.read_snapshot(tmp_path / "nothing")

    def test_corrupt_manifest_json(self, tmp_path):
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"a": np.arange(10)}
        )
        (target / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError, match="JSON"):
            storage_snapshot.read_snapshot(target)

    def test_wrong_format_tag(self, tmp_path):
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"a": np.arange(10)}
        )
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="not a TCIM session snapshot"):
            storage_snapshot.read_snapshot(target)

    def test_unsupported_version(self, tmp_path):
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"a": np.arange(10)}
        )
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["version"] = 99
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unsupported version"):
            storage_snapshot.read_snapshot(target)

    def test_truncated_segment(self, tmp_path):
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"a": np.arange(1000, dtype=np.int64)}
        )
        segment = next(target.glob("seg-*.bin"))
        segment.write_bytes(segment.read_bytes()[:100])
        with pytest.raises(StorageError, match="truncated"):
            storage_snapshot.read_snapshot(target)

    def test_flipped_bytes_fail_hash_check(self, tmp_path):
        target = storage_snapshot.write_snapshot(
            tmp_path / "snap", {}, {"a": np.arange(1000, dtype=np.int64)}
        )
        segment = next(target.glob("seg-*.bin"))
        blob = bytearray(segment.read_bytes())
        blob[10] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="hash"):
            storage_snapshot.read_snapshot(target)
        # verify=False skips the hash (size still matches) — caller opts in.
        storage_snapshot.read_snapshot(target, verify=False)


class TestSessionSnapshots:
    def test_round_trip_preserves_everything(self, tmp_path):
        graph = _graph(seed=10)
        session = open_session(graph)
        baseline_count = session.count()
        baseline_support = session.support()
        target = session.snapshot(tmp_path / "snap")
        restored = open_session(snapshot=target)
        # Warm: residency is present before any query.
        assert restored._residency.windows is not None
        assert restored._residency.sym is not None
        assert restored._residency.edges is not None
        assert restored._residency.plan is not None
        assert restored.count() == baseline_count
        assert restored.support() == baseline_support
        assert restored.truss() == session.truss()
        assert restored.generation == 0

    @pytest.mark.parametrize("prefix", [0, 37, 120])
    def test_randomized_stream_prefix_round_trip(self, tmp_path, prefix):
        graph = _graph(seed=11)
        ops = _random_ops(graph, 120, seed=12)
        session = open_session(graph)
        session.count()
        if prefix:
            session.apply(ops[:prefix])
        target = session.snapshot(tmp_path / f"snap-{prefix}")
        restored = open_session(snapshot=target)
        assert restored.count() == session.count()
        assert restored.support() == session.support()
        assert restored.generation == session.generation
        # Differential check against the pure-Python oracle.
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        oracle.apply_ops([(op[0], op[1], op[2]) for op in ops[:prefix]])
        assert restored.count() == oracle.triangles
        # The restored (patched) plan must match a from-scratch rebuild.
        rebuilt = open_session(restored.graph)
        assert rebuilt.count() == restored.count()
        restored_plan = restored._residency.plan
        fresh_plan = build_join_plan(
            *rebuilt._residency.windows,
            rebuilt._residency.edges[0],
            rebuilt._residency.edges[1],
        )
        np.testing.assert_array_equal(
            np.sort(restored_plan.trace_keys), np.sort(fresh_plan.trace_keys)
        )
        np.testing.assert_array_equal(
            restored_plan.pair_counts.sum(), fresh_plan.pair_counts.sum()
        )

    def test_restore_into_memmap_store(self, tmp_path):
        graph = _graph(seed=13)
        session = open_session(graph)
        count = session.count()
        target = session.snapshot(tmp_path / "snap")
        restored = open_session(
            snapshot=target,
            storage_dir=str(tmp_path / "store"),
            spill_threshold_bytes=0,
        )
        assert restored.count() == count
        assert restored.resident_bytes_detail()["spilled"] > 0

    def test_fresh_process_restore(self, tmp_path):
        graph = _graph(seed=14)
        ops = _random_ops(graph, 40, seed=15)
        session = open_session(graph)
        session.count()
        session.apply(ops)
        expected = session.count()
        target = session.snapshot(tmp_path / "snap")
        script = (
            "from repro.api import open_session\n"
            f"session = open_session(snapshot={str(target)!r})\n"
            "assert session._residency.plan is not None\n"
            f"assert session.generation == {session.generation}\n"
            f"print(session.count())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.strip()) == expected

    def test_snapshot_and_source_are_exclusive(self, tmp_path):
        graph = _graph(seed=16, n=20, m=30)
        session = open_session(graph)
        target = session.snapshot(tmp_path / "snap")
        with pytest.raises(ReproError, match="not both"):
            open_session(graph, snapshot=target)
        with pytest.raises(ReproError, match="graph source or a snapshot"):
            open_session()

    def test_snapshot_with_retired_engine_key_reopens(self, tmp_path):
        # Snapshots written while the config had an ``engine`` field
        # carry it in their manifest; it never shaped the arrays, so
        # reopening drops it and hydrates warm as usual.
        session = open_session(_graph(seed=18))
        count = session.count()
        target = session.snapshot(tmp_path / "snap")
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["meta"]["config"]["engine"] = "legacy"
        (target / "manifest.json").write_text(json.dumps(manifest))
        restored = open_session(snapshot=target)
        assert restored._residency.plan is not None
        assert restored.count() == count
        assert "engine" not in restored.config.to_mapping()

    @pytest.mark.parametrize(
        "retired", [{"use_plan": False}, {"orientation": "upper"}],
        ids=["use_plan", "orientation"],
    )
    def test_retired_count_keys_hydrate_warm(
        self, tmp_path, monkeypatch, retired
    ):
        # Snapshots written while the config had the plan switch or the
        # count orientation carry the key; the plan switch never shaped
        # the arrays, and the upper orientation is the one layout, so
        # reopening drops the key and runs on the hydrated structures.
        session = open_session(_graph(seed=20))
        session.apply(_random_ops(session.graph, 20, seed=21))
        expected = session.simulate().to_mapping()
        target = session.snapshot(tmp_path / "snap")
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["meta"]["config"].update(retired)
        (target / "manifest.json").write_text(json.dumps(manifest))
        builds = []
        monkeypatch.setattr(
            SlicedMatrix, "from_graph", lambda *a, **k: builds.append("slices")
        )
        monkeypatch.setattr(
            "repro.core.plan.build_join_plan", lambda *a, **k: builds.append("plan")
        )
        restored = open_session(snapshot=target)
        assert restored._residency.sym is not None and restored._residency.plan is not None
        assert restored.simulate().to_mapping() == expected
        assert builds == []
        assert set(retired).isdisjoint(restored.config.to_mapping())

    def test_symmetric_snapshot_opens_from_its_edge_list(self, tmp_path):
        # Earlier releases could count over the symmetric orientation:
        # such a snapshot holds both directions of every edge and a plan
        # joining the symmetric structure with itself.  It opens from the
        # edge list alone and then answers like a fresh session.
        graph = _graph(seed=22)
        sym = SlicedMatrix.from_graph(graph, "symmetric")
        sources, destinations = oriented_edges(graph, "symmetric")
        plan = build_join_plan(sym, sym, sources, destinations)
        arrays = {
            "oriented.sources": sources.astype(np.int32),
            "oriented.destinations": destinations.astype(np.int32),
            "sym.indptr": sym.indptr,
            "sym.slice_ids": sym.slice_ids.astype(np.int32),
            "sym.data": sym.data,
            **{
                f"plan.{name}": getattr(plan, name)
                for name in (
                    "row_positions", "col_positions", "trace_keys",
                    "pair_counts", "diagonal_pairs", "diagonal_masks",
                )
            },
        }
        fresh = open_session(graph)
        meta = {
            "config": {
                **fresh.config.to_mapping(), "orientation": "symmetric",
                "use_plan": True,
            },
            "generation": 3,
            "triangles": fresh.count(),
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "structures": {
                "sym": {
                    "num_rows": sym.num_rows, "num_cols": sym.num_cols,
                    "slice_bits": sym.slice_bits, "structure_version": 0,
                },
            },
            "plans": {
                "plan": {"num_edges": plan.num_edges, "stamp": [[0, sym.num_valid_slices]]},
            },
        }
        written = storage_snapshot.write_snapshot(tmp_path / "written", meta, arrays)
        # A manifest edited to name the symmetric orientation opens the
        # same way, whatever its segments hold.
        edited = fresh.snapshot(tmp_path / "edited")
        manifest = json.loads((edited / "manifest.json").read_text())
        manifest["meta"]["config"]["orientation"] = "symmetric"
        (edited / "manifest.json").write_text(json.dumps(manifest))
        for target in (written, edited):
            restored = open_session(snapshot=target)
            assert restored._residency.sym is None and restored._residency.plan is None
            assert restored.num_edges == graph.num_edges
            assert "orientation" not in restored.config.to_mapping()
            assert restored.count() == fresh.count()
            assert restored.support() == fresh.support()
            assert restored.simulate().to_mapping() == fresh.simulate().to_mapping()
            assert restored.slice_stats() == fresh.slice_stats()
        assert open_session(snapshot=written).generation == 3

    def test_snapshot_with_retired_pool_keys_reopens(self, tmp_path, monkeypatch):
        # Snapshots written while the config had the worker-pool and
        # backing knobs carry both keys; neither shaped the arrays, so
        # reopening drops them and runs on the hydrated structures.
        session = open_session(_graph(seed=19))
        count = session.count()
        target = session.snapshot(tmp_path / "snap")
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["meta"]["config"].update(workers=2, backing="shm")
        (target / "manifest.json").write_text(json.dumps(manifest))
        builds = []
        monkeypatch.setattr(
            SlicedMatrix, "from_graph", lambda *a, **k: builds.append("slices")
        )
        monkeypatch.setattr(
            "repro.core.plan.build_join_plan", lambda *a, **k: builds.append("plan")
        )
        restored = open_session(snapshot=target)
        assert restored.count() == count
        assert restored.simulate().triangles == count
        assert builds == []
        mapping = restored.config.to_mapping()
        assert "workers" not in mapping and "backing" not in mapping

    def test_snapshot_writes_one_plan_and_no_edge_lists(self, tmp_path):
        # One structure, one plan and the session's oriented edge arrays:
        # no graph, row or column segments, and no retired edge lists.
        session = open_session(_graph(seed=20))
        session.support()
        target = session.snapshot(tmp_path / "snap")
        manifest = json.loads((target / "manifest.json").read_text())
        groups = {name.split(".")[0] for name in manifest["arrays"]}
        assert groups == {"oriented", "sym", "plan"}
        assert list(manifest["meta"]["plans"]) == ["plan"]
        assert list(manifest["meta"]["structures"]) == ["sym"]
        # Slice ids and edge endpoints are narrowed on disk only.
        for name in ("sym.slice_ids", "oriented.sources", "oriented.destinations"):
            assert np.dtype(manifest["arrays"][name]["dtype"]) == np.int32
        restored = open_session(snapshot=target)
        assert restored._residency.sym.slice_ids.dtype == np.int64
        assert restored._residency.edges[0].dtype == np.int64

    def test_first_apply_after_open_patches_the_hydrated_structures(self, tmp_path):
        # The snapshot carries the edge arrays, so an apply before any
        # read queues against the hydrated windows and plan instead of
        # dropping them.
        graph = _graph(seed=21)
        ops = _random_ops(graph, 30, seed=22)
        session = open_session(graph)
        session.count()
        restored = open_session(snapshot=session.snapshot(tmp_path / "snap"))
        restored.apply(ops)
        assert restored._residency.windows is not None and restored._residency.pending
        session.apply(ops)
        assert restored.count() == session.count()
        assert restored.support() == session.support()
        assert restored.truss() == session.truss()
        assert not any(restored.fallback_counts.values())

    def test_earlier_format_snapshot_opens_warm(self, tmp_path, monkeypatch):
        # Snapshots of earlier releases carry the graph, row and column
        # structures and a count plan over them, next to the symmetric
        # structure; older ones also the oriented and symmetric edge
        # lists and a symmetric join plan.  They open warm on the
        # symmetric structure, without a re-slice, and answer exactly
        # the same; only the count plan recompiles over the windows.
        graph = _graph(seed=23)
        session = open_session(graph)
        session.count()
        session.apply(_random_ops(graph, 40, seed=24))
        expected = (
            session.count(), session.support(), session.truss(),
            session.simulate().to_mapping(),
        )
        target = _earlier_format_snapshot(session, tmp_path / "earlier")
        builds = []
        monkeypatch.setattr(
            SlicedMatrix, "from_graph", lambda *a, **k: builds.append("slices")
        )
        restored = open_session(snapshot=target)
        assert restored._residency.sym is not None and restored._residency.plan is None
        got = (
            restored.count(), restored.support(), restored.truss(),
            restored.simulate().to_mapping(),
        )
        assert got == expected
        assert restored.generation == session.generation
        assert builds == []

    @pytest.mark.parametrize("change", [{"slice_bits": 8}])
    def test_reopen_under_another_layout_rebuilds(self, tmp_path, change):
        graph = _graph(seed=25)
        session = open_session(graph)
        session.apply(_random_ops(graph, 30, seed=26))
        target = session.snapshot(tmp_path / "snap")
        restored = open_session(snapshot=target, **change)
        assert restored._residency.sym is None and restored._residency.plan is None
        fresh = open_session(session.graph, **change)
        assert restored.count() == fresh.count() == session.count()
        assert restored.simulate().to_mapping() == fresh.simulate().to_mapping()
        assert restored.slice_stats() == fresh.slice_stats()

    def test_snapshot_segment_dropped(self, tmp_path):
        session = open_session(_graph(seed=17, n=40, m=80))
        session.count()
        target = session.snapshot(tmp_path / "snap")
        manifest = json.loads((target / "manifest.json").read_text())
        # Name an array the segment table doesn't carry.
        del manifest["arrays"]["sym.data"]
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            open_session(snapshot=target)


# ----------------------------------------------------------------------
# Pool paging
# ----------------------------------------------------------------------
class TestPoolPaging:
    def test_evict_writes_snapshot_and_hydrates_warm(self, tmp_path):
        graph = _graph(seed=18)
        pool = SessionPool(max_sessions=1, storage_dir=str(tmp_path))
        entry = pool.acquire(graph)
        count = entry.session.count()
        pool.release(entry)
        assert pool.evict(graph)
        assert pool.stats.snapshots_written == 1
        assert pool.stats.spilled_bytes > 0
        warm = pool.acquire(graph)
        assert pool.stats.hydrations == 1
        assert warm.session._residency.windows is not None  # no re-slice
        assert warm.session._residency.plan is not None  # no recompile
        assert warm.session.count() == count
        pool.release(warm)
        pool.close()
        assert pool.stats.spilled_bytes == 0
        assert not list((tmp_path / "pool").glob("*"))

    def test_mutations_survive_paging(self, tmp_path):
        graph = _graph(seed=19)
        pool = SessionPool(max_sessions=1, storage_dir=str(tmp_path))
        entry = pool.acquire(graph)
        entry.session.count()
        ops = _random_ops(graph, 30, seed=20)
        entry.session.apply(ops)
        mutated = entry.session.count()
        generation = entry.session.generation
        pool.release(entry)
        assert pool.evict(graph)
        warm = pool.acquire(graph)
        assert warm.session.count() == mutated
        assert warm.session.generation == generation
        pool.release(warm)
        pool.close()

    def test_no_storage_dir_means_no_paging(self, tmp_path):
        graph = _graph(seed=21, n=60, m=150)
        pool = SessionPool(max_sessions=1)
        entry = pool.acquire(graph)
        entry.session.count()
        pool.release(entry)
        assert pool.evict(graph)
        assert pool.stats.snapshots_written == 0
        again = pool.acquire(graph)
        assert pool.stats.hydrations == 0
        pool.release(again)
        pool.close()

    def test_re_evicted_sessions_leave_no_spill_files(self, tmp_path):
        """Alternating two graphs through one slot re-evicts sessions
        hydrated from eviction snapshots: the spill directory must not
        grow with evictions, and closing leaves it empty."""
        graphs = [_graph(seed=30 + i, n=80, m=200) for i in range(2)]
        spill = tmp_path / "spill"
        pool = SessionPool(1, storage_dir=str(tmp_path), spill_threshold_bytes=0)
        files = []
        for graph in graphs * 3:
            entry = pool.acquire(graph)
            entry.session.count()
            pool.release(entry)
            files.append(len(list(spill.glob("*"))))
        assert pool.stats.hydrations == 4
        assert files[2:] == [files[2]] * 4
        pool.close()
        assert not list(spill.glob("*"))

        async def serve():
            service = open_service(
                max_sessions=1, storage_dir=str(tmp_path), spill_threshold_bytes=0
            )
            for graph in graphs * 2:
                await service.count(graph)
            await service.close()
            assert not list(spill.glob("*"))  # the service is still referenced

        asyncio.run(serve())

    def test_lru_pressure_pages_out_and_back(self, tmp_path):
        graphs = [_graph(seed=22 + i, n=80, m=200) for i in range(3)]
        pool = SessionPool(max_sessions=2, storage_dir=str(tmp_path))
        counts = []
        for g in graphs:
            entry = pool.acquire(g)
            counts.append(entry.session.count())
            pool.release(entry)
        assert pool.stats.evictions >= 1
        assert pool.stats.snapshots_written >= 1
        # Re-admit the oldest (paged-out) graph: warm hydration.
        entry = pool.acquire(graphs[0])
        assert pool.stats.hydrations >= 1
        assert entry.session.count() == counts[0]
        pool.release(entry)
        pool.close()


# ----------------------------------------------------------------------
# Streaming edge-list reads
# ----------------------------------------------------------------------
class TestStreamingIO:
    def _edge_text(self, edges) -> str:
        return "# comment\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n"

    def test_chunks_cover_file_in_order(self):
        edges = [(i, i + 1) for i in range(100)]
        chunks = list(
            iter_edge_chunks(io.StringIO(self._edge_text(edges)), chunk_edges=7)
        )
        assert [len(c) for c in chunks[:-1]] == [7] * (100 // 7)
        merged = np.concatenate(chunks, axis=0)
        np.testing.assert_array_equal(merged, np.asarray(edges))

    def test_chunked_read_matches_monolithic(self, tmp_path):
        graph = _graph(seed=25, n=100, m=400)
        path = tmp_path / "g.txt"
        from repro.graph.io import write_edge_list

        write_edge_list(graph, path)
        small_chunks = read_edge_list(path, chunk_edges=13)
        one_chunk = read_edge_list(path, chunk_edges=10**9)
        np.testing.assert_array_equal(
            small_chunks.edge_array(), one_chunk.edge_array()
        )
        assert small_chunks.num_vertices == one_chunk.num_vertices

    def test_max_edges_guard(self):
        text = self._edge_text([(i, i + 1) for i in range(50)])
        assert read_edge_list(io.StringIO(text), max_edges=50).num_edges == 50
        with pytest.raises(GraphFormatError, match="max_edges"):
            read_edge_list(io.StringIO(text), max_edges=49, chunk_edges=10)

    def test_max_edges_through_load_graph(self, tmp_path):
        graph = _graph(seed=26, n=40, m=100)
        from repro.graph.io import write_edge_list, write_npz

        text_path = tmp_path / "g.txt"
        write_edge_list(graph, text_path)
        with pytest.raises(GraphFormatError, match="max_edges"):
            load_graph(text_path, max_edges=10)
        npz_path = tmp_path / "g.npz"
        write_npz(graph, npz_path)
        with pytest.raises(GraphFormatError, match="max_edges"):
            load_graph(npz_path, max_edges=10)
        assert load_graph(npz_path, max_edges=1000).num_edges == graph.num_edges

    def test_malformed_lines_still_raise(self):
        with pytest.raises(GraphFormatError, match="expected 'u v'"):
            read_edge_list(io.StringIO("1\n"))
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))
        with pytest.raises(GraphFormatError, match="chunk_edges"):
            list(iter_edge_chunks(io.StringIO("1 2\n"), chunk_edges=0))


# ----------------------------------------------------------------------
# Performance model
# ----------------------------------------------------------------------
class TestHydratePricing:
    def test_hydrate_beats_cold_open(self):
        model = default_pim_model()
        # A mid-size residency: 1e6 edges, 4e6 matched pairs, ~50 MB page.
        cold = model.evaluate_cold_open(1_000_000, 4_000_000)
        warm = model.evaluate_hydrate(50_000_000)
        assert warm.latency_s < cold.latency_s
        assert warm.system_energy_j < cold.system_energy_j

    def test_cold_open_is_slice_plus_compile(self):
        model = default_pim_model()
        cold = model.evaluate_cold_open(10_000, 40_000)
        compile_only = model.evaluate_plan_compile(10_000, 40_000)
        assert cold.latency_s > compile_only.latency_s
        assert cold.latency_breakdown_s["compile"] == pytest.approx(
            compile_only.latency_s
        )

    def test_negative_inputs_rejected(self):
        model = default_pim_model()
        with pytest.raises(ArchitectureError):
            model.evaluate_hydrate(-1)
        with pytest.raises(ArchitectureError):
            model.evaluate_cold_open(-1, 0)
