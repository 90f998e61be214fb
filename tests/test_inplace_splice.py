"""Slotted splices: room in every row, failure safety, touch counts.

:meth:`SlicedMatrix.insert_slices` / :meth:`~SlicedMatrix.remove_slices`
rewrite only the slots of the rows they touch; a row without room
re-spreads the whole structure once, with room in every row.  These
tests pin:

* after every splice, on 8- and 64-bit slices, on the heap and in memmap
  spill files, a compact copy equals a from-scratch build, every free
  slot is zero, ``indptr`` ascends with every row's count inside its
  slots, and the reported moves map every surviving slice to its new
  slot (a hypothesis property that exhausts the room);
* a splice that fits leaves every untouched row's slots and bytes
  alone, and keeps the slot arrays;
* a failing backing store or a failing delta join leaves the session
  equal to a :class:`DynamicTriangleCounter` that applied exactly the
  committed operations (a delete never allocates; a rolled-back delete
  re-inserts into the slots it freed, positions and version exactly as
  before; a failed re-spread moves nothing and keeps the plan current);
* an apply reads only what it touches: neither ``apply()`` nor
  ``common_neighbors_many()`` builds a whole-structure key array
  (``global_keys`` / ``owner_rows``) once the count is resident;
* ``resident_bytes_detail()`` counts the room, and a snapshot of a
  structure with room hydrates compact with its plan remapped.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.core import incremental
from repro.core.dynamic import DynamicTriangleCounter
from repro.core.plan import build_join_plan
from repro.core.slicing import SlicedMatrix, SliceWindow, expand_runs
from repro.errors import ArchitectureError, StorageError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.storage.backing import BackingStore
from test_net_apply import _assert_plan_current, _assert_same_structure
from test_plan import assert_plans_identical
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
            if store is not None:
                assert isinstance(sliced.data, np.memmap)
                assert isinstance(sliced.slice_ids, np.memmap)

    def test_room_grows_once_then_shifts_in_place(self):
        graph = generators.barabasi_albert(400, 4, seed=1)
        sliced = SlicedMatrix.from_graph(graph, "symmetric")
        size = sliced.num_valid_slices
        # Built without room.
        assert sliced.data.shape[0] == size
        assert np.array_equal(sliced.counts, np.diff(sliced.indptr))
        rng = np.random.default_rng(2)
        pairs = np.array(_absent_pairs(graph, 30, rng))
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        delta = incremental.set_bits(sliced, rows, cols)
        # The first structural insert re-spreads: every row gets
        # ``2 + count // 8`` free slots past its valid ones.
        counts = sliced.counts
        assert np.array_equal(np.diff(sliced.indptr), counts + 2 + counts // 8)
        assert sliced.num_valid_slices == size + delta.inserted_before.size
        ids, data = sliced.slice_ids, sliced.data
        slots = (sliced.indptr.copy(), ids.copy(), data.copy())
        # A clear frees slots in place; re-setting the bits fits in them,
        # at the very slots they held.
        incremental.clear_bits(sliced, rows, cols)
        incremental.set_bits(sliced, rows, cols)
        assert sliced.slice_ids is ids and sliced.data is data
        for now, then in zip((sliced.indptr, ids, data), slots):
            assert np.array_equal(now, then)
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
        plan = session.join_plan
        sym = session._residency.sym
        ids, data, indptr = sym.slice_ids, sym.data, sym.indptr.copy()
        pairs = _absent_pairs(graph, 20, np.random.default_rng(4))
        inserts = [("+", u, v) for u, v in pairs]
        edges = [tuple(map(int, e)) for e in graph.edge_array()[::50][:10]]
        deletes = [("-", u, v) for u, v in edges]
        # The delete batch commits; the insert batch after it needs a
        # re-spread (the structure is compact), whose allocation fails
        # before any slot moves.
        self._failing_store(monkeypatch)
        with pytest.raises(StorageError, match="injected") as failure:
            session.apply(deletes + inserts)
        assert failure.value.applied_operations == deletes
        # The failed re-spread moved nothing: the same slot arrays and
        # slot bounds, holding the structure the delete batch left.
        assert sym.slice_ids is ids and sym.data is data
        assert np.array_equal(sym.indptr, indptr)
        self._assert_matches_oracle(session, graph, deletes, pairs + edges)
        # The plan stayed resident with the committed batch queued, and
        # folds it in by one exact patch.
        assert session._residency.plan is plan and len(session._residency.pending) == 1
        monkeypatch.undo()
        _assert_plan_current(session)
        assert dict(session.fallback_counts) == dict.fromkeys(session.fallback_counts, 0)
        session.apply(inserts)
        self._assert_matches_oracle(session, graph, deletes + inserts, pairs + edges)
        _assert_plan_current(session)
        assert session.run().triangles == session.count()

    def test_join_failure_after_delete_splice(self, tmp_path, monkeypatch):
        graph, session = self._session(tmp_path)
        pairs = _absent_pairs(graph, 20, np.random.default_rng(5))
        inserts = [("+", u, v) for u, v in pairs]
        session.apply(inserts)  # re-spreads: every row has room
        sym = session._residency.sym
        version = sym.structure_version
        slots = [array.copy() for array in (sym.indptr, sym.counts, sym.slice_ids, sym.data)]
        ids, data = sym.slice_ids, sym.data
        edges = [tuple(map(int, e)) for e in graph.edge_array()[::30][:20]]
        deletes = [("-", u, v) for u, v in edges]

        def capacity_error(*args, **kwargs):
            raise ArchitectureError("injected: delta join exceeds the row region")

        # The rollback re-inserts into the slots the delete freed: with
        # the store refusing every allocation it must still succeed, and
        # every slice is back in its slot at the same version.
        self._failing_store(monkeypatch)
        monkeypatch.setattr(incremental, "symmetric_delta", capacity_error)
        with pytest.raises(ArchitectureError, match="injected") as failure:
            session.apply(deletes)
        assert failure.value.applied_operations == []
        assert sym.slice_ids is ids and sym.data is data
        assert sym.structure_version == version
        for now, then in zip((sym.indptr, sym.counts, sym.slice_ids, sym.data), slots):
            assert np.array_equal(now, then)
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
        # The room exists now: an insert whose rows have room keeps both
        # slot arrays.
        sym = session._residency.sym
        ids, data = sym.slice_ids, sym.data
        assert data.shape[0] > sym.num_valid_slices + 10
        free = np.diff(sym.indptr) - sym.counts
        pairs = [
            (u, v) for u, v in _absent_pairs(graph, 40, rng) if min(free[u], free[v]) >= 2
        ][:5]
        assert len(pairs) == 5
        session.apply([("+", u, v) for u, v in pairs])
        assert sym.slice_ids is ids and sym.data is data
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
        width = structures[0].data.itemsize * structures[0].data.shape[1]
        live = sum(
            s.num_valid_slices * (width + s.slice_ids.itemsize) + s.indptr.nbytes
            for s in structures
        )
        # The room and the per-row counts are resident too.
        held = sum(
            s.data.nbytes + s.slice_ids.nbytes + s.indptr.nbytes + s.counts.nbytes
            for s in structures
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
            assert all(isinstance(s.data, np.memmap) for s in structures)


@st.composite
def splice_streams(draw):
    """A small graph and a stream of insert or delete batches; batches
    at one vertex fill its row faster than the room grows."""
    n = draw(st.integers(2, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    hub = draw(st.integers(0, n - 1))
    at_hub = [pair for pair in pairs if hub in pair]
    base = draw(st.sets(st.sampled_from(pairs), max_size=40))
    batches = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.sets(st.sampled_from(pairs), max_size=6)
                | st.sets(st.sampled_from(at_hub), max_size=12),
            ),
            min_size=1, max_size=12,
        )
    )
    return n, draw(st.sampled_from([8, 64])), sorted(base), batches


def _slots_by_key(sliced: SlicedMatrix) -> dict:
    return dict(zip(sliced.global_keys().tolist(), sliced.valid_positions().tolist()))


class TestSlottedSplices:
    @pytest.mark.parametrize("backing", ["ram", "memmap"])
    @settings(max_examples=60, deadline=None)
    @given(case=splice_streams())
    def test_every_splice_keeps_the_slot_invariants(self, backing, case):
        n, bits, base, batches = case
        with tempfile.TemporaryDirectory() as directory:
            store = (
                BackingStore("memmap", directory, spill_threshold_bytes=1)
                if backing == "memmap" else None
            )
            sliced = SlicedMatrix.from_graph(
                Graph(n, base), "symmetric", slice_bits=bits, store=store
            )
            present = set(base)
            for insert, batch in batches:
                chosen = sorted(batch - present if insert else batch & present)
                if not chosen:
                    continue
                u, v = np.array(chosen).T
                before, slots = _slots_by_key(sliced), sliced.data.shape[0]
                old_indptr = sliced.indptr.copy()
                if insert:
                    delta = incremental.set_bits(
                        sliced, np.concatenate([u, v]), np.concatenate([v, u]), store=store
                    )
                    present |= set(chosen)
                else:
                    delta = incremental.clear_bits(
                        sliced, np.concatenate([u, v]), np.concatenate([v, u])
                    )
                    present -= set(chosen)
                if sliced.data.shape[0] != slots:
                    event("re-spread")
                # A compact copy equals a rebuild; free slots are zero and
                # every count fits its row's slots.
                _assert_same_structure(
                    sliced,
                    SlicedMatrix.from_graph(
                        Graph(n, sorted(present)), "symmetric", slice_bits=bits
                    ),
                )
                assert (np.diff(sliced.indptr) >= 0).all()
                if store is not None and sliced.data.size:
                    assert isinstance(sliced.data, np.memmap)
                # The report moves every surviving slice to its new slot
                # and names the removed and inserted ones by slot and row.
                after = _slots_by_key(sliced)
                table = {}
                if delta.moved_from is not None:
                    table = dict(zip(delta.moved_from.tolist(), delta.moved_to.tolist()))
                for key, old in before.items():
                    if key in after:
                        assert table.get(old, old) == after[key]
                gone = [old for key, old in before.items() if key not in after]
                assert sorted(delta.removed_at.tolist()) == sorted(gone)
                fresh = [at for key, at in after.items() if key not in before]
                assert sorted(delta.inserted_before.tolist()) == sorted(fresh)
                for at, rows, indptr in (
                    (delta.removed_at, delta.removed_rows, old_indptr),
                    (delta.inserted_before, delta.inserted_rows, sliced.indptr),
                ):
                    assert np.array_equal(np.searchsorted(indptr, at, side="right") - 1, rows)

    def test_room_runs_out_and_re_spreads_again(self):
        sliced = SlicedMatrix.from_graph(Graph(64, [(0, 1)]), "symmetric", slice_bits=8)
        spreads = 0
        for v in range(2, 64):
            slots = sliced.data.shape[0]
            incremental.set_bits(sliced, np.array([0, v]), np.array([v, 0]))
            spreads += sliced.data.shape[0] != slots
        # Row 0 grows from 1 to 8 slices: the first insert re-spreads
        # the compact structure, and its room runs out more than once.
        assert spreads >= 3
        edges = [(0, v) for v in range(1, 64)]
        _assert_same_structure(
            sliced, SlicedMatrix.from_graph(Graph(64, edges), "symmetric", slice_bits=8)
        )

    @settings(max_examples=40, deadline=None)
    @given(case=splice_streams())
    def test_a_splice_that_fits_touches_only_its_rows(self, case):
        n, bits, base, batches = case
        sliced = SlicedMatrix.from_graph(Graph(n, base), "symmetric", slice_bits=bits)
        present = set(base)
        for insert, batch in batches:
            chosen = sorted(batch - present if insert else batch & present)
            if not chosen:
                continue
            u, v = np.array(chosen).T
            rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
            ids, data = sliced.slice_ids, sliced.data
            copies = [array.copy() for array in (sliced.indptr, sliced.counts, ids, data)]
            if insert:
                incremental.set_bits(sliced, rows, cols)
                present |= set(chosen)
            else:
                incremental.clear_bits(sliced, rows, cols)
                present -= set(chosen)
            if sliced.data is not data:
                assert insert  # only an insert re-spreads
                continue
            assert sliced.slice_ids is ids
            indptr, counts, old_ids, old_data = copies
            assert np.array_equal(sliced.indptr, indptr)
            untouched = np.setdiff1d(np.arange(n), rows)
            assert np.array_equal(sliced.counts[untouched], counts[untouched])
            starts, stops = indptr[untouched], indptr[untouched + 1]
            slots = expand_runs(starts, stops - starts)
            assert np.array_equal(ids[slots], old_ids[slots])
            assert np.array_equal(data[slots], old_data[slots])


class TestSnapshotWithRoom:
    def test_hydrated_plan_equals_a_compile_over_the_hydrated_structure(self, tmp_path):
        graph = generators.barabasi_albert(600, 5, seed=4)
        session = open_session(graph)
        session.count()
        pairs = _absent_pairs(graph, 30, np.random.default_rng(6))
        session.apply([("+", u, v) for u, v in pairs])
        session.apply([("-", *pairs[0]), ("-", *pairs[1])])
        sym = session._residency.sym
        assert sym.data.shape[0] > sym.num_valid_slices  # holds room
        path = tmp_path / "room.snap"
        session.snapshot(path)
        reopened = open_session(snapshot=path)
        hydrated = reopened._residency.sym
        # Written compact: the built layout, the same slices.
        assert hydrated.data.shape[0] == hydrated.num_valid_slices
        _assert_same_structure(hydrated, sym)
        plan = reopened._residency.plan
        assert plan is not None and plan.matches(*reopened._residency.windows)
        assert_plans_identical(
            plan, build_join_plan(*SliceWindow.pair(hydrated), *reopened._residency.edges)
        )
        assert reopened.count() == session.count()
        assert reopened.run() == session.run()
