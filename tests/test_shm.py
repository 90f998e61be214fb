"""Shared-memory execution plane: segments, manifests, pool lifecycle.

Four invariant groups anchor the zero-copy plane:

1. *Segment fidelity* — arrays adopted into a ``kind="shm"``
   :class:`~repro.storage.backing.BackingStore` live in named segments
   whose attached views are bit-identical to the originals, and every
   segment is reclaimed on close (idempotently, in any order).
2. *Manifest round-trip* — a :class:`ShardContext` rebuilt from its
   segment-name manifest is bit-identical to the original: same slice
   structures, lane arrays, and compiled plans, sharing physical pages
   instead of copying bytes.
3. *Pool lifecycle* — :class:`ContextPool` closes idempotently, works
   as a context manager, and reclaims its executor and every shm
   segment when a worker dies mid-sweep (the sweep surfaces
   :class:`ArchitectureError`, never a hang or a leak).  Closing only
   unlinks segment names: the contexts stay readable, and a session
   whose pool crashed rebuilds it on the next query.
4. *Generation fence* — a delta published while sweeps are running is
   either fully visible or fully invisible to each sweep, and the
   post-delta sweep is bit-identical to a serial replay from scratch.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import TCIMSession, open_session
from repro.core.accelerator import AcceleratorConfig, TCIMAccelerator
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.sharding import (
    ContextPool,
    _context_from_manifest,
    _context_identity,
    _manifest_signature,
    _share_context,
    assign_colors,
    build_shard_contexts,
    execute_contexts,
    min_colors,
)
from repro.errors import ArchitectureError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.storage.backing import BackingStore, attach_segment


def _graph(seed: int = 0, n: int = 300, m: int = 1800) -> Graph:
    return generators.erdos_renyi(n, m, seed=seed)


def _shm_names() -> set:
    """Named POSIX shared-memory segments this platform exposes."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - no /dev/shm mount
        return set()


class TestShmBackingStore:
    def test_empty_allocates_named_segment(self):
        store = BackingStore("shm")
        try:
            array = store.empty((64, 3), np.uint64)
            name = store.segment_of(array)
            assert name is not None
            assert store.shared_segments == 1
            assert store.shared_bytes == array.nbytes
            array[:] = 7
            attached = attach_segment(name)
            try:
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=attached.buf)
                np.testing.assert_array_equal(view, array)
            finally:
                del view
                attached.close()
        finally:
            store.close()
        assert store.shared_segments == 0

    def test_adopt_copies_heap_arrays_and_is_idempotent(self):
        store = BackingStore("shm")
        try:
            heap = np.arange(128, dtype=np.int64)
            shared = store.adopt(heap)
            assert shared is not heap
            assert store.segment_of(shared) is not None
            np.testing.assert_array_equal(shared, heap)
            # Re-adopting an owned array is a no-op, not a second copy.
            assert store.adopt(shared) is shared
            assert store.shared_segments == 1
        finally:
            store.close()

    def test_empty_arrays_stay_inline(self):
        store = BackingStore("shm")
        try:
            empty = store.adopt(np.empty(0, dtype=np.uint64))
            assert store.segment_of(empty) is None
            assert store.shared_segments == 0
        finally:
            store.close()

    def test_close_is_idempotent(self):
        store = BackingStore("shm")
        store.adopt(np.ones(32, dtype=np.uint64))
        store.close()
        store.close()
        assert store.shared_segments == 0
        assert store.shared_bytes == 0

    def test_from_config_routes_backing(self):
        config = AcceleratorConfig(backing="shm")
        store = BackingStore.from_config(config)
        try:
            assert store.kind == "shm"
        finally:
            store.close()

    def test_config_rejects_unknown_backing(self):
        with pytest.raises(Exception):
            AcceleratorConfig(backing="florp")


class TestManifestRoundTrip:
    def test_context_rebuild_is_bit_identical(self):
        graph = _graph(seed=3)
        contexts = build_shard_contexts(graph, "upper", 4)
        store = BackingStore("shm")
        segments: dict = {}
        try:
            for context in contexts:
                manifest = _share_context(context, store)
                rebuilt = _context_from_manifest(manifest, segments, set())
                assert rebuilt.shard_id == context.shard_id
                assert rebuilt.triple == context.triple
                np.testing.assert_array_equal(
                    rebuilt.row_sliced.to_dense(), context.row_sliced.to_dense()
                )
                assert (
                    rebuilt.row_sliced.structure_version
                    == context.row_sliced.structure_version
                )
                for lane, original in zip(rebuilt.lanes, context.lanes):
                    np.testing.assert_array_equal(lane.sources, original.sources)
                    np.testing.assert_array_equal(
                        lane.destinations, original.destinations
                    )
                    np.testing.assert_array_equal(
                        lane.col_sliced.to_dense(), original.col_sliced.to_dense()
                    )
                    if original.join_plan is not None:
                        np.testing.assert_array_equal(
                            lane.join_plan.trace_keys, original.join_plan.trace_keys
                        )
                        assert (
                            lane.join_plan.row_version
                            == original.join_plan.row_version
                        )
        finally:
            for segment in segments.values():
                segment.close()
            store.close()

    def test_rebuild_shares_pages_not_bytes(self):
        graph = _graph(seed=5)
        context = build_shard_contexts(graph, "upper", 4)[0]
        store = BackingStore("shm")
        segments: dict = {}
        try:
            manifest = _share_context(context, store)
            rebuilt = _context_from_manifest(manifest, segments, set())
            # A payload write through the owner is visible in the rebuilt
            # view with no republish: same physical pages.
            context.row_sliced.data[0, 0] ^= np.uint64(1)
            assert rebuilt.row_sliced.data[0, 0] == context.row_sliced.data[0, 0]
        finally:
            del rebuilt
            for segment in segments.values():
                segment.close()
            store.close()

    def test_signature_and_identity_track_structure_only(self):
        graph = _graph(seed=7)
        context = build_shard_contexts(graph, "upper", 4)[0]
        store = BackingStore("shm")
        try:
            manifest = _share_context(context, store)
            signature = _manifest_signature(manifest)
            identity = _context_identity(context)
            # In-place payload writes change neither fingerprint.
            context.row_sliced.data[0, 0] ^= np.uint64(1)
            assert _manifest_signature(_share_context(context, store)) == signature
            assert _context_identity(context) == identity
            # A reallocation changes both.
            context.row_sliced.data = context.row_sliced.data.copy()
            assert _context_identity(context) != identity
            assert _manifest_signature(_share_context(context, store)) != signature
        finally:
            store.close()


class TestContextPoolLifecycle:
    def _pool(self, graph, num_arrays=4, workers=2):
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", num_arrays)
        return ContextPool(contexts, capacity, "lru", 0, workers=workers)

    def test_close_is_idempotent(self):
        pool = self._pool(_graph())
        pool.run()
        assert pool.shared_segments > 0
        pool.close()
        assert pool.closed
        assert pool.shared_segments == 0
        pool.close()
        assert pool.closed

    def test_context_manager_reclaims(self):
        with self._pool(_graph()) as pool:
            outcome = pool.run()
        assert pool.closed
        assert pool.shared_segments == 0
        assert outcome.accumulator >= 0

    def test_run_and_publish_after_close_raise(self):
        pool = self._pool(_graph())
        pool.close()
        with pytest.raises(ArchitectureError):
            pool.run()
        with pytest.raises(ArchitectureError):
            pool.publish()

    def test_rejects_bad_arguments(self):
        graph = _graph()
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 4)
        with pytest.raises(ArchitectureError):
            ContextPool([], capacity, "lru", 0, workers=2)
        with pytest.raises(ArchitectureError):
            ContextPool(contexts, capacity, "lru", 0, workers=0)
        with pytest.raises(ArchitectureError, match="per array"):
            ContextPool(contexts, 4, "lru", 0, workers=2)

    def test_worker_crash_mid_sweep_reclaims(self):
        pool = self._pool(_graph())
        pool.run()  # spawn the workers before killing one
        pool._executor.submit(os._exit, 1)
        with pytest.raises(ArchitectureError, match="reclaimed"):
            # The dead worker may need a few dispatches to surface.
            for _ in range(10):
                pool.run()
                time.sleep(0.05)
        assert pool.closed
        assert pool.shared_segments == 0
        pool.close()  # still idempotent after crash reclamation

    def test_pool_matches_serial(self):
        graph = _graph(seed=11)
        capacity = AcceleratorConfig().capacity_slices
        serial = execute_contexts(
            build_shard_contexts(graph, "upper", 4), capacity, "lru", 0
        )
        with self._pool(graph) as pool:
            for use_plan in (True, False):
                outcome = pool.run(use_plan=use_plan)
                assert outcome.accumulator == serial.accumulator

    def test_contexts_reusable_after_close(self):
        # Closing a pool unlinks its segment names but must leave the
        # adopted context arrays mapped: they are the caller's contexts.
        # The reuse runs in a subprocess so that reading unmapped pages
        # (a segfault) fails this test instead of killing the test run.
        script = textwrap.dedent(
            """
            from repro.core.accelerator import AcceleratorConfig
            from repro.core.sharding import (
                ContextPool, build_shard_contexts, execute_contexts,
            )
            from repro.graph import generators

            graph = generators.barabasi_albert(2000, 6, seed=42)
            capacity = AcceleratorConfig().capacity_slices
            contexts = build_shard_contexts(graph, "upper", 16)
            counts = []
            for _ in range(2):
                with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
                    counts.append(pool.run().accumulator)
                counts.append(execute_contexts(contexts, capacity, "lru", 0).accumulator)
                counts.append(
                    execute_contexts(contexts, capacity, "lru", 0, workers=2).accumulator
                )
            print(*counts)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            },
        )
        assert result.returncode == 0, (result.returncode, result.stderr[-2000:])
        counts = [int(value) for value in result.stdout.split()]
        expected = TCIMAccelerator().run(
            generators.barabasi_albert(2000, 6, seed=42)
        ).triangles
        assert counts == [expected] * 6


class TestGenerationFence:
    def _delta(self, graph, count, seed):
        rng = np.random.default_rng(seed)
        present = {tuple(sorted(map(int, e))) for e in graph.edge_array()}
        inserts = []
        while len(inserts) < count:
            u, v = int(rng.integers(graph.num_vertices)), int(
                rng.integers(graph.num_vertices)
            )
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                continue
            present.add(edge)
            inserts.append(edge)
        return np.array(inserts, dtype=np.int64), sorted(present)

    def test_published_delta_matches_serial_replay(self):
        graph = _graph(seed=13)
        capacity = AcceleratorConfig().capacity_slices
        colors = assign_colors(graph.num_vertices, min_colors(4), 0)
        batch, post_edges = self._delta(graph, 12, seed=4)
        contexts = build_shard_contexts(graph, "upper", 4)
        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            pre = pool.run().accumulator

            def mutate():
                for context in pool._contexts:
                    context.apply_delta(batch, colors, True)

            pool.publish(mutate)
            post = pool.run().accumulator
        post_graph = Graph(graph.num_vertices, np.array(post_edges, dtype=np.int64))
        replay = execute_contexts(
            build_shard_contexts(post_graph, "upper", 4), capacity, "lru", 0
        )
        oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(post_graph)
        assert post == replay.accumulator == oracle.triangles
        assert pre != post  # the delta actually moved the count

    def test_concurrent_publish_is_all_or_nothing(self):
        graph = _graph(seed=17)
        capacity = AcceleratorConfig().capacity_slices
        colors = assign_colors(graph.num_vertices, min_colors(4), 0)
        batch, post_edges = self._delta(graph, 12, seed=9)
        contexts = build_shard_contexts(graph, "upper", 4)
        post_graph = Graph(graph.num_vertices, np.array(post_edges, dtype=np.int64))
        pre_oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(graph)
        post_oracle = TCIMAccelerator(AcceleratorConfig(num_arrays=1)).run(post_graph)
        assert pre_oracle.triangles != post_oracle.triangles

        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            assert pool.run().accumulator == pre_oracle.triangles
            published = threading.Event()

            def publish_mid_sweeps():
                time.sleep(0.01)
                pool.publish(
                    lambda: [
                        context.apply_delta(batch, colors, True)
                        for context in pool._contexts
                    ]
                )
                published.set()

            publisher = threading.Thread(target=publish_mid_sweeps)
            publisher.start()
            seen = []
            while not published.is_set() or len(seen) < 3:
                seen.append(pool.run().accumulator)
                if len(seen) > 200:  # pragma: no cover - watchdog
                    break
            publisher.join()
            final = pool.run().accumulator
        # Every sweep observed the delta fully or not at all — never a
        # torn intermediate — and the fenced state is bit-identical to
        # the serial replay of the post-delta graph.
        assert set(seen) <= {pre_oracle.triangles, post_oracle.triangles}
        assert final == post_oracle.triangles

    def test_payload_only_publish_keeps_versions(self):
        graph = _graph(seed=19)
        capacity = AcceleratorConfig().capacity_slices
        contexts = build_shard_contexts(graph, "upper", 4)
        with ContextPool(contexts, capacity, "lru", 0, workers=2) as pool:
            baseline = pool.run().accumulator
            versions = dict(pool._versions)
            pool.publish()  # fence with no structural change
            assert pool._versions == versions
            assert pool.generation == 1
            assert pool.run().accumulator == baseline


class TestSessionShm:
    def test_shm_session_matches_plain(self):
        graph = _graph(seed=23)
        plain = TCIMSession(graph)
        shm = TCIMSession(
            Graph(graph.num_vertices, graph.edge_array().copy()),
            AcceleratorConfig(
                num_arrays=4, shard_by="coloring", workers=2, backing="shm"
            ),
        )
        try:
            assert shm.count() == plain.count()
            rng = np.random.default_rng(2)
            present = {tuple(sorted(map(int, e))) for e in graph.edge_array()}
            for _ in range(30):
                u, v = int(rng.integers(graph.num_vertices)), int(
                    rng.integers(graph.num_vertices)
                )
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
                op = ("-", *edge) if edge in present else ("+", *edge)
                present.symmetric_difference_update({edge})
                plain.apply([op])
                shm.apply([op])
                assert shm.count() == plain.count()
            # A full engine re-run sweeps the resident zero-copy pool.
            assert shm.simulate().result.triangles == plain.count()
            detail = shm.resident_bytes_detail()
            assert detail["shared"] > 0
        finally:
            shm.close()
            plain.close()

    def test_session_close_reclaims_pool_segments(self):
        graph = _graph(seed=29)
        session = open_session(
            graph,
            num_arrays=4,
            shard_by="coloring",
            workers=2,
            backing="shm",
        )
        session.count()
        session.simulate()
        pool = session._context_pool
        assert pool is not None and not pool.closed
        session.close()
        assert pool.closed
        assert pool.shared_segments == 0

    def test_session_recovers_from_worker_crash(self):
        graph = generators.barabasi_albert(1000, 6, seed=42)
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        before = _shm_names()
        session = open_session(
            graph, num_arrays=16, shard_by="coloring", workers=2, backing="shm"
        )

        def full_run() -> int:
            session._run = None  # drop the cached result: sweep the pool
            return session.run().triangles

        try:
            assert full_run() == oracle.triangles
            crashed = session._context_pool
            crashed._executor.submit(os._exit, 1)
            with pytest.raises(ArchitectureError, match="worker died"):
                # The dead worker may need a few dispatches to surface.
                for _ in range(10):
                    full_run()
                    time.sleep(0.05)
            assert crashed.closed
            # The next query rebuilds the pool over the same contexts.
            assert full_run() == oracle.triangles
            assert session._context_pool is not crashed
            present = {tuple(map(int, e)) for e in graph.edge_array()}
            rng = np.random.default_rng(5)
            ops = []
            while len(ops) < 12:
                u, v = sorted(map(int, rng.integers(graph.num_vertices, size=2)))
                if u != v and (u, v) not in present:
                    present.add((u, v))
                    ops.append(("+", u, v))
            ops += [("-", *edge) for edge in sorted(present)[:6]]
            oracle.apply_ops(ops)
            assert session.apply(ops).triangles == oracle.triangles
            assert full_run() == oracle.triangles
            assert session.simulate().result.triangles == oracle.triangles
        finally:
            session.close()
        gc.collect()
        assert _shm_names() <= before

