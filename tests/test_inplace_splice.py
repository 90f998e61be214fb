"""In-place splices: buffers with spare rows, failure safety, touch counts.

:meth:`SlicedMatrix.insert_slices` / :meth:`~SlicedMatrix.remove_slices`
shift slices inside buffers that keep spare rows, so an apply moves
bytes in place instead of allocating two arrays per splice.  These
tests pin:

* spliced structures equal a from-scratch build on their live prefix,
  on the heap and in memmap spill files, and a splice that fits keeps
  its buffers;
* a failing backing store or a failing delta join leaves the session
  equal to a :class:`DynamicTriangleCounter` that applied exactly the
  committed operations (a delete never allocates; a rolled-back delete
  re-inserts into the room it freed);
* an apply reads only what it touches: neither ``apply()`` nor
  ``common_neighbors_many()`` builds a whole-structure key array
  (``global_keys`` / ``owner_rows``) once the count is resident;
* ``resident_bytes_detail()`` counts the spare rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import open_session
from repro.core import incremental
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.slicing import SPARE_ROOM_DIVISOR, SlicedMatrix
from repro.errors import ArchitectureError, StorageError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.storage.backing import BackingStore
from test_net_apply import _assert_same_structure
from test_workloads import CONFIG_IDS, CONFIGS, TMP_STORE


def _absent_pairs(graph, count: int, rng) -> list[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    n = graph.num_vertices
    while len(pairs) < count:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and not graph.has_edge(u, v):
            pairs.add((u, v))
    return sorted(pairs)


class TestSliceBuffers:
    @pytest.mark.parametrize("backing", ["ram", "memmap"])
    def test_splices_match_rebuild(self, backing, tmp_path):
        rng = np.random.default_rng(3)
        n = 300
        store = (
            BackingStore("memmap", tmp_path, spill_threshold_bytes=1)
            if backing == "memmap"
            else None
        )
        dense = np.zeros((n, n), dtype=bool)
        dense[rng.integers(0, n, 900), rng.integers(0, n, 900)] = True
        sliced = SlicedMatrix.from_nonzeros(*np.nonzero(dense), n, n, store=store)
        for step in range(40):
            rows, cols = rng.integers(0, n, 25), rng.integers(0, n, 25)
            if step % 2:
                incremental.clear_bits(sliced, rows, cols)
                dense[rows, cols] = False
            else:
                incremental.set_bits(sliced, rows, cols, store=store)
                dense[rows, cols] = True
            _assert_same_structure(
                SlicedMatrix.from_nonzeros(*np.nonzero(dense), n, n), sliced
            )
            ids_buffer, data_buffer = sliced.buffers
            assert sliced.slice_ids.base is ids_buffer or sliced.slice_ids is ids_buffer
            if store is not None:
                assert isinstance(data_buffer, np.memmap)
                assert isinstance(sliced.data, np.memmap)

    def test_room_grows_once_then_shifts_in_place(self):
        graph = generators.barabasi_albert(400, 4, seed=1)
        sliced = SlicedMatrix.from_graph(graph, "symmetric")
        size = sliced.num_valid_slices
        assert sliced.buffers[1].shape[0] == size  # built without room
        rng = np.random.default_rng(2)
        pairs = np.array(_absent_pairs(graph, 30, rng))
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        delta = incremental.set_bits(sliced, rows, cols)
        added = delta.inserted_before.size
        room = size + added + max(added, size // SPARE_ROOM_DIVISOR)
        buffers = sliced.buffers
        assert buffers[0].shape[0] == buffers[1].shape[0] == room
        # A clear frees rows in place; re-setting the bits fits in them.
        incremental.clear_bits(sliced, rows, cols)
        incremental.set_bits(sliced, rows, cols)
        assert sliced.buffers[0] is buffers[0] and sliced.buffers[1] is buffers[1]
        expected = SlicedMatrix.from_graph(
            Graph(
                graph.num_vertices,
                np.concatenate([graph.edge_array(), pairs]).tolist(),
            ),
            "symmetric",
        )
        _assert_same_structure(expected, sliced)


class TestFailureInjection:
    """A failing store or join never corrupts the session."""

    def _session(self, tmp_path):
        graph = generators.barabasi_albert(500, 4, seed=8)
        session = open_session(
            graph, storage_dir=str(tmp_path), spill_threshold_bytes=1
        )
        session.count()
        session.common_neighbors(0, 1)  # builds the spilled symmetric structure
        assert isinstance(session._residency.sym.data, np.memmap)
        return graph, session

    def _assert_matches_oracle(self, session, graph, committed, probes):
        oracle = DynamicTriangleCounter(graph.num_vertices, graph)
        oracle.apply_ops(committed)
        assert session.num_edges == oracle.num_edges
        assert session.count() == oracle.triangles
        for u, v in probes:
            assert session.has_edge(u, v) == oracle.has_edge(u, v)
        _assert_same_structure(
            SlicedMatrix.from_graph(oracle.to_graph(), "symmetric"), session._residency.structure()
        )

    @staticmethod
    def _failing_store(monkeypatch):
        def refuse(self, shape, dtype):
            raise StorageError("injected: spill file allocation failed")

        monkeypatch.setattr(BackingStore, "empty", refuse)

    def test_store_failure_during_delete_batch(self, tmp_path, monkeypatch):
        graph, session = self._session(tmp_path)
        edges = [tuple(map(int, e)) for e in graph.edge_array()[::40][:20]]
        deletes = [("-", u, v) for u, v in edges]
        self._failing_store(monkeypatch)
        session.apply(deletes)  # a delete never allocates
        self._assert_matches_oracle(session, graph, deletes, edges)
        monkeypatch.undo()
        inserts = [("+", u, v) for u, v in edges]
        report = session.apply(inserts)
        assert report.inserted == len(edges)
        self._assert_matches_oracle(session, graph, deletes + inserts, edges)
        assert session.run().triangles == session.count()

    def test_store_failure_growing_the_room(self, tmp_path, monkeypatch):
        graph, session = self._session(tmp_path)
        pairs = _absent_pairs(graph, 20, np.random.default_rng(4))
        inserts = [("+", u, v) for u, v in pairs]
        self._failing_store(monkeypatch)
        with pytest.raises(StorageError, match="injected") as failure:
            session.apply(inserts)
        assert failure.value.applied_operations == []
        self._assert_matches_oracle(session, graph, [], pairs)
        monkeypatch.undo()
        session.apply(inserts)
        self._assert_matches_oracle(session, graph, inserts, pairs)
        assert session.run().triangles == session.count()

    def test_join_failure_after_delete_splice(self, tmp_path, monkeypatch):
        graph, session = self._session(tmp_path)
        pairs = _absent_pairs(graph, 20, np.random.default_rng(5))
        inserts = [("+", u, v) for u, v in pairs]
        session.apply(inserts)  # grows the room
        buffers = session._residency.sym.buffers
        edges = [tuple(map(int, e)) for e in graph.edge_array()[::30][:20]]
        deletes = [("-", u, v) for u, v in edges]

        def capacity_error(*args, **kwargs):
            raise ArchitectureError("injected: delta join exceeds the row region")

        # The rollback re-inserts into the room the delete freed: with
        # the store refusing every allocation it must still succeed.
        self._failing_store(monkeypatch)
        monkeypatch.setattr(incremental, "symmetric_delta", capacity_error)
        with pytest.raises(ArchitectureError, match="injected") as failure:
            session.apply(deletes)
        assert failure.value.applied_operations == []
        sym = session._residency.sym
        assert sym.buffers[0] is buffers[0] and sym.buffers[1] is buffers[1]
        self._assert_matches_oracle(session, graph, inserts, edges + pairs)
        monkeypatch.undo()
        session.apply(deletes)
        self._assert_matches_oracle(session, graph, inserts + deletes, edges + pairs)
        assert session.run().triangles == session.count()


@pytest.fixture(scope="module")
def ba4k():
    return generators.barabasi_albert(4000, 4, seed=6)


class TestApplyReadsOnlyWhatItTouches:
    """Counts, not timings: small joins build no whole-structure keys."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_no_whole_structure_keys(self, config, ba4k, tmp_path, monkeypatch):
        if config.get("storage_dir") == TMP_STORE:
            config = {**config, "storage_dir": str(tmp_path)}
        graph = ba4k
        # Key space 4000 x 63 = 252k: a 50-op delta join's candidates stay
        # far below the dense table's key_space // 16 threshold.
        assert graph.num_vertices * ((graph.num_vertices + 63) // 64) == 252_000
        rng = np.random.default_rng(9)
        session = open_session(graph, **config)
        session.count()
        calls = []
        for name in ("global_keys", "owner_rows"):
            real = getattr(SlicedMatrix, name)

            def counted(self, _real=real, _name=name):
                calls.append(_name)
                return _real(self)

            monkeypatch.setattr(SlicedMatrix, name, counted)
        edges = graph.edge_array()
        for _ in range(3):
            deletes = edges[rng.choice(edges.shape[0], 25, replace=False)]
            ops = [("-", int(u), int(v)) for u, v in deletes]
            ops += [("+", u, v) for u, v in _absent_pairs(graph, 25, rng)]
            session.apply(ops)
        session.apply([("+", u, v) for u, v in _absent_pairs(graph, 3, rng)], record=True)
        session.common_neighbors_many([(0, 1), (2, 3), (10, 400)])
        assert calls == []
        # The room exists now: an insert that fits keeps both buffers.
        sym = session._residency.sym
        buffers = sym.buffers
        assert buffers[1].shape[0] > sym.num_valid_slices + 10
        session.apply([("+", u, v) for u, v in _absent_pairs(graph, 5, rng)])
        assert sym.buffers[0] is buffers[0] and sym.buffers[1] is buffers[1]
        assert calls == []


class TestResidentBytesCountsRoom:
    def test_each_held_array_counts_once(self):
        # A fresh session's oriented edge arrays are views of its graph:
        # they count under ``graph``, which holds the edge list and the
        # CSR, and not again under ``edges``.
        graph = generators.barabasi_albert(600, 5, seed=3)
        session = open_session(graph)
        session.run()
        detail = session.resident_bytes_detail()
        indptr, indices = graph.csr
        held = graph.edge_array().nbytes + indptr.nbytes + indices.nbytes
        assert detail["graph"] == held
        sources, destinations = session._residency.edges
        own = sum(
            array.nbytes for array in (sources, destinations)
            if not any(np.shares_memory(array, part) for part in (graph.edge_array(), indices))
        )
        assert detail["edges"] == own
        assert detail["total"] == sum(
            value for key, value in detail.items() if key not in ("spilled", "total")
        )

    @pytest.mark.parametrize("backing", ["ram", "memmap"])
    def test_spare_rows_are_resident(self, backing, tmp_path):
        graph = generators.barabasi_albert(600, 5, seed=3)
        options = (
            {"storage_dir": str(tmp_path), "spill_threshold_bytes": 64}
            if backing == "memmap"
            else {}
        )
        session = open_session(graph, **options)
        session.simulate()
        pairs = _absent_pairs(graph, 40, np.random.default_rng(1))
        session.apply([("+", u, v) for u, v in pairs])
        session.simulate()  # folds the batch into the windows and the plan
        detail = session.resident_bytes_detail()
        structures = [session._residency.sym]
        live = sum(
            s.data.nbytes + s.slice_ids.nbytes + s.indptr.nbytes for s in structures
        )
        held = sum(
            sum(b.nbytes for b in s.buffers) + s.indptr.nbytes for s in structures
        )
        windows = sum(window.offsets.nbytes for window in session._residency.windows)
        # The priced read keeps the count run's event totals beside them.
        totals = session._residency.totals.nbytes
        assert held > live
        assert detail["slices"] == held + windows + totals
        assert detail["total"] == sum(
            value for key, value in detail.items() if key not in ("spilled", "total")
        )
        assert detail["total"] == session.resident_bytes()
        assert detail["spilled"] <= detail["total"]
        if backing == "memmap":
            assert detail["spilled"] > 0
            assert all(isinstance(s.buffers[1], np.memmap) for s in structures)
