"""The session's residency: one resident edge set and what derives from it.

TCIM's controller (Fig. 4) keeps one sliced graph resident and rewrites
only the slices an update touches.  :class:`Residency` is that state
behind :class:`repro.api.TCIMSession`: the edge set (the opened
:class:`Graph` until the first committed batch, then the symmetric
:class:`SlicedMatrix` every batch splices in place), what derives from
it (the structure's two :class:`SliceWindow` sides, the upper-triangular
edge list with its sorted keys, the count plan with its queued batches,
the count run's :class:`EventTotals`, and the workload cache), and the
fallback counters.  :meth:`Residency.fold` moves the derived state past
each committed batch, :meth:`Residency.start_call` is the lifecycle
rule every ``apply()`` runs first, and :meth:`Residency.keep` does every
drop; the readers fold the queued batches in and build whatever is
missing.  Callers hold the session's lock.
"""

from __future__ import annotations

import numpy as np

from repro.core import incremental
from repro.core import kernels
from repro.core import plan as joinplan
from repro.core.engine import oriented_edges
from repro.core.slicing import SlicedMatrix, SliceWindow, expand_runs
from repro.errors import ArchitectureError, StorageError
from repro.graph.edgemap import EdgeMap
from repro.graph.graph import Graph, _run_heads

__all__ = ["FALLBACKS", "EventTotals", "Residency"]

#: Edge-window size of chunked plan compiles on memmap-backed sessions.
#: 64k edges keeps the compile's transient heap in the tens of MB even
#: on dense pair distributions, while large enough that the per-window
#: merge-join overhead stays negligible.
_PLAN_CHUNK_EDGES = 65_536

#: The silent fallbacks :attr:`Residency.fallbacks` counts: each is a
#: place where an optimisation gives up and drops resident caches for a
#: lazy rebuild (or, for ``truss_repeel``, recomputes eagerly, and for
#: ``full_sweep``, prices a read by the full sweep) instead of failing
#: the request.
FALLBACKS = ("flush_patch_error", "truss_repeel", "workload_patch_error", "full_sweep")

#: The count plan's arrays, as snapshot segments ``plan.<name>``.
_PLAN_ARRAYS = (
    "row_positions",
    "col_positions",
    "trace_keys",
    "pair_counts",
    "diagonal_pairs",
    "diagonal_masks",
)


class EventTotals:
    """The count plan's event totals, kept per column.

    Every event a single-array count run prices follows from which slice
    pairs the plan matches, never from their bits: its AND and bit-count
    operations are the plan's pairs, and on an eviction-free column cache
    its column-slice writes are the distinct column-slice keys of its
    trace (every other access hits).  ``pairs[v]`` and ``distinct[v]``
    count the pairs and the distinct keys of the edges into column ``v``
    (a key is ``v * slices per row + slice id``, so no two columns share
    one); a fold rewrites the columns it can change.
    """

    __slots__ = ("pairs", "distinct")

    def __init__(self, pairs: np.ndarray, distinct: np.ndarray) -> None:
        self.pairs, self.distinct = pairs, distinct

    @classmethod
    def from_plan(cls, plan, destinations: np.ndarray, num_columns: int, slices_per_row: int):
        """The totals of a current count plan over the edge list whose
        destinations are ``destinations``: one sort of its trace keys
        (hash-free, unlike ``np.unique``) for the distinct ones."""
        heads = _run_heads(np.sort(plan.trace_keys))
        pairs = np.bincount(destinations, weights=plan.pair_counts, minlength=num_columns)
        return cls(
            pairs.astype(np.int64),
            np.bincount(heads // slices_per_row, minlength=num_columns),
        )

    @property
    def num_pairs(self) -> int:
        return int(self.pairs.sum())

    @property
    def num_distinct(self) -> int:
        return int(self.distinct.sum())

    @property
    def nbytes(self) -> int:
        return self.pairs.nbytes + self.distinct.nbytes


class Residency:
    """One session's resident edge set and the state derived from it.

    Callers read the fields and move them only through the methods.  A
    reader taking ``count`` calls it for the session's triangle total
    when it builds the triangle list.
    """

    def __init__(self, graph: Graph, slice_bits: int, store) -> None:
        self.num_vertices = graph.num_vertices
        self.slice_bits = slice_bits
        #: The :class:`~repro.storage.backing.BackingStore` of large arrays.
        self.store = store
        #: The opened graph, or one rebuilt from ``sym`` after a commit.
        self.graph: Graph | None = graph
        self.sym: SlicedMatrix | None = None
        #: The ``(upper, lower)`` windows of ``sym``.
        self.windows: tuple[SliceWindow, SliceWindow] | None = None
        #: ``(sources, destinations)``, the upper edge list in CSR order:
        #: the plan's edges, and edge i of every workload array.
        self.edges: tuple[np.ndarray, np.ndarray] | None = None
        #: The edge list's ascending ``u * n + v`` keys, built on first
        #: use and spliced with the list (see :meth:`edge_keys`).
        self.keys: np.ndarray | None = None
        self.plan = None
        #: ``(delta_edges, edge_splice, sym_splice)`` of each committed
        #: batch not yet folded into the plan (and, while no totals are
        #: kept, the windows).
        self.pending: list[tuple] = []
        #: The count run's :class:`EventTotals`, moved by every fold.
        self.totals: EventTotals | None = None
        #: Whether a priced read ran since the last :meth:`start_call`.
        self.totals_read = False
        #: The generation's workload results, every array non-writeable.
        self.workloads: dict = {}
        #: Whether a workload read ran since the last :meth:`start_call`.
        self.workloads_read = False
        self.fallbacks = dict.fromkeys(FALLBACKS, 0)

    # ------------------------------------------------------------------
    # The edge set
    # ------------------------------------------------------------------
    def structure(self) -> SlicedMatrix:
        """The symmetric slice structure, sliced from the graph if missing."""
        if self.sym is None:
            self.sym = SlicedMatrix.from_graph(
                self.graph, "symmetric", slice_bits=self.slice_bits, store=self.store
            )
        return self.sym

    def as_graph(self) -> Graph:
        """The current graph, reassembled from the symmetric structure's
        bits (already in CSR order) after a commit."""
        if self.graph is None:
            rows, cols = self.sym.nonzeros()
            n = self.num_vertices
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
            upper = rows < cols
            edges = np.stack([rows[upper], cols[upper]], axis=1)
            self.graph = Graph.from_parts(n, edges, indptr, cols)
        return self.graph

    def has_edge(self, u: int, v: int) -> bool:
        """Membership of ``{u, v}`` in the edge set (in-range vertices)."""
        if self.graph is not None:
            return bool(self.graph.has_edge(u, v))
        return bool(incremental.test_bits(self.sym, [u], [v])[0])

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """The upper-triangular edge list, derived once — views of the
        graph's edge list when one is held, else read off the symmetric
        structure's bits — and then spliced by every :meth:`fold`."""
        if self.edges is None:
            if self.graph is not None:
                self.edges = oriented_edges(self.graph, "upper")
            else:
                rows, cols = self.structure().nonzeros()
                forward = rows < cols
                self.edges = rows[forward], cols[forward]
        return self.edges

    def edge_keys(self) -> np.ndarray:
        """The edge list's ascending ``u * n + v`` keys, built once and
        then spliced with the list by every :meth:`fold`."""
        if self.keys is None:
            sources, destinations = self.edge_list()
            self.keys = sources * np.int64(self.num_vertices) + destinations
        return self.keys

    # ------------------------------------------------------------------
    # The count run's inputs
    # ------------------------------------------------------------------
    def slice_windows(self) -> tuple[SliceWindow, SliceWindow]:
        """The current ``(upper, lower)`` windows: the queued batches
        folded in, and the windows and the edge list built if missing."""
        self.flush()
        if self.windows is None:
            self.windows = SliceWindow.pair(self.structure())
        self.edge_list()
        return self.windows

    def priced_windows(self) -> tuple[SliceWindow, SliceWindow]:
        """:meth:`slice_windows` for a priced read (``simulate``, ``run``,
        ``slice_stats``), which marks the windows and the totals read;
        kept totals imply current windows, so no queued plan batch folds."""
        self.totals_read = True
        if self.totals is not None:
            return self.windows
        return self.slice_windows()

    def event_totals(self) -> EventTotals:
        """The count run's :class:`EventTotals`, built from the current
        plan when missing (:meth:`count_inputs`) and then moved by every
        :meth:`fold`; marks them read."""
        self.totals_read = True
        if self.totals is None:
            windows, (_, destinations), plan = self.count_inputs()
            self.totals = EventTotals.from_plan(
                plan, destinations, self.num_vertices, windows[1].slices_per_row
            )
        return self.totals

    def count_inputs(self) -> tuple:
        """``(windows, edges, plan)`` of a count run, all current.

        The plan compiles once (memmap stores through bounded edge
        windows) and is then patched by :meth:`flush`; a stale one would
        be a bug, so it is rebuilt rather than served wrong.
        """
        windows = self.slice_windows()
        if self.plan is not None and not self.plan.matches(*windows):
            self.plan = None
        if self.plan is None:
            self.plan = joinplan.build_join_plan(
                *windows, *self.edges,
                chunk_edges=_PLAN_CHUNK_EDGES if self.store.kind == "memmap" else None,
                store=self.store,
            )
        return windows, self.edges, self.plan

    def flush(self) -> None:
        """Fold the queued batches into the windows and the count plan.

        The windows of the batches' endpoint rows re-derive, and one
        :func:`~repro.core.plan.patch_join_plan` carries the plan's kept
        pairs through the composed edge and symmetric splices and
        re-joins the batches' cut edges.  A failure drops the windows
        and the plan (``flush_patch_error``): patching is an
        optimisation, not a source of truth.
        """
        if not self.pending:
            return
        pending, self.pending = self.pending, []
        try:
            delta_edges = np.concatenate([batch[0] for batch in pending])
            # Rows whose symmetric slice set changed.
            changed = np.concatenate(
                [rows for *_, splice in pending
                 for rows in (splice.inserted_rows, splice.removed_rows)]
            )
            SliceWindow.refresh(self.windows, np.unique(delta_edges))
            # Only a delta edge's source row can gain or lose upper
            # slices, and its destination row lower ones: when that row's
            # slice set changed, or when the edge lies in its diagonal
            # slice, which may enter or leave the window on a
            # payload-only update.
            u, v = delta_edges[:, 0], delta_edges[:, 1]
            diagonal = u // self.slice_bits == v // self.slice_bits
            moved = tuple(ends[diagonal | np.isin(ends, changed)] for ends in (u, v))
            plan = self.plan
            if plan is not None:
                self.plan = joinplan.patch_join_plan(
                    plan,
                    *self.windows,
                    *self.edges,
                    incremental.compose_deltas(
                        plan.num_edges, [batch[1] for batch in pending]
                    ),
                    incremental.compose_deltas(
                        plan.payload_rows, [batch[2] for batch in pending]
                    ),
                    moved=moved,
                    store=self.store,
                )
        except Exception:
            self.fallbacks["flush_patch_error"] += 1
            self.keep(workloads=True)

    # ------------------------------------------------------------------
    # Workload reads: one triangle list per generation
    # ------------------------------------------------------------------
    def triangle_list(self, count) -> np.ndarray:
        """Every triangle once, as ``(t, 3)`` forward-edge ids: one
        :func:`~repro.core.kernels.triangle_witnesses` pass over the count
        run's inputs, or the list a fold patched."""

        def build():
            expected = count()
            windows, edges, plan = self.count_inputs()
            listed = kernels.triangle_witnesses(
                *windows, *edges, plan=plan, store=self.store
            )
            if len(listed) != expected:
                raise ArchitectureError(
                    f"the witness pass lists {len(listed)} triangles but the "
                    f"session counts {expected}; the resident state is "
                    f"inconsistent"
                )
            return listed

        return self._cached("triangles", build)

    def support_map(self, count) -> EdgeMap:
        """Supports: one ``np.bincount`` over the triangle list's edge ids."""

        def build():
            listed = self.triangle_list(count)
            sources, destinations = self.edge_list()
            supports = np.bincount(listed.reshape(-1), minlength=sources.size)
            return EdgeMap(
                sources, destinations, supports, self.num_vertices, self.keys
            )

        return self._cached("support", build)

    def truss_map(self, count) -> EdgeMap:
        """Trussness: :func:`~repro.analysis.truss.peel_trussness` of the
        triangle list from its supports, or the values a fold updated."""
        from repro.analysis.truss import peel_trussness

        def build():
            support = self.support_map(count)
            trussness = peel_trussness(support.per_edge, self.triangle_list(count))
            return EdgeMap(
                support.sources, support.destinations, trussness, self.num_vertices,
                self.keys,
            )

        return self._cached("truss", build)

    def clustering(self, count, report):
        """The clustering report ``report(tallies, degrees, triangles)``
        over the cached vertex tallies — one ``np.bincount`` over the
        triangle list's corners and one over the edge list — and the
        list's length."""

        def tallies():
            listed = self.triangle_list(count)
            sources, destinations = self.edge_list()
            n = self.num_vertices
            return _frozen(
                np.bincount(_corners(listed, sources, destinations), minlength=n),
                np.bincount(np.concatenate([sources, destinations]), minlength=n),
            )

        return self._cached("clustering", lambda: report(
            *self._cached("tallies", tallies), len(self.triangle_list(count))
        ))

    def _cached(self, name: str, build):
        """Workload result ``name``, built once per generation; marks the
        cache read for the lifecycle rule."""
        self.workloads_read = True
        cached = self.workloads.get(name)
        if cached is None:
            cached = self.workloads[name] = build()
        return cached

    # ------------------------------------------------------------------
    # The fold and the lifecycle rule
    # ------------------------------------------------------------------
    def fold(self, delta_edges: np.ndarray, insert: bool, splice, triangles: int) -> None:
        """Move the derived state past one committed batch.

        ``delta_edges`` are the batch's canonical edges, ``splice`` the
        :class:`~repro.core.incremental.StructureDelta` of the symmetric
        structure (now the edge set) and ``triangles`` the session's
        count after the batch.  A kept edge list is spliced once
        (:func:`~repro.core.plan.merge_oriented_edges`), with its keys,
        which maps every old edge id to its new one.  Kept totals refresh
        the windows of the batch's endpoint rows and move
        (:meth:`_move_totals`); a kept plan, and kept windows without
        totals, queue the batch for :meth:`flush`.  Through the splice, a
        kept triangle
        list drops the rows that hold a deleted edge or appends the
        triangles the inserted edges close (read off the symmetric
        structure; row order may differ from a witness pass, and every
        reader is order-free), and must then hold ``triangles`` rows.
        The tallies move by the corners of those triangles and the
        degrees by the batch's endpoints; trussness is updated locally
        (:func:`~repro.analysis.truss.trussness_after_deletes` /
        :func:`~repro.analysis.truss.trussness_after_inserts`) and past
        their cap re-peeled (``truss_repeel``).  The other workload
        results go.  A failed splice drops all derived state, failed
        totals the windows, plan and totals (both ``flush_patch_error``),
        a failed patch the workload cache (``workload_patch_error``).
        """
        self.graph = None
        old_edges = self.edges
        if old_edges is None:
            # Nothing derived outlives the edge list (see start_call).
            self.keep()
            return
        try:
            old_keys = self.edge_keys()
            *edges, edge_splice = joinplan.merge_oriented_edges(
                *old_edges, delta_edges, self.num_vertices, insert, keys=old_keys
            )
            if insert:
                delta_keys = np.sort(
                    delta_edges[:, 0] * np.int64(self.num_vertices) + delta_edges[:, 1]
                )
                keys = np.insert(old_keys, edge_splice.inserted_before, delta_keys)
            else:
                keys = np.delete(old_keys, edge_splice.removed_at)
        except Exception:
            self.fallbacks["flush_patch_error"] += 1
            self.keep()
            return
        self.edges, self.keys = tuple(edges), keys
        if self.totals is not None:
            try:
                SliceWindow.refresh(self.windows, np.unique(delta_edges))
                self._move_totals(delta_edges)
            except Exception:
                self.fallbacks["flush_patch_error"] += 1
                self.keep(workloads=True)
        if self.windows is not None and (self.plan is not None or self.totals is None):
            self.pending.append((delta_edges, edge_splice, splice))
        cache, self.workloads = self.workloads, {}
        if "triangles" not in cache:
            return
        from repro.analysis import truss as truss_module

        try:
            sources, destinations = edges
            listed = cache["triangles"]
            count = old_edges[0].size
            table = joinplan._position_map(count, edge_splice, np.int64)
            if insert:
                # Delta edges are sorted: fresh[i] is delta edge i's new id.
                spliced = edge_splice.inserted_before
                fresh = spliced + np.arange(spliced.size)
                which, f, g = self._edge_triangles(keys, *delta_edges.T)
                # A triangle with two or three batch edges is found once
                # per edge.  Sorted ids are (e_ab, e_ac, e_bc) of a < b < c,
                # list rows (e_ac, e_ab, e_bc).
                ids = np.sort(np.stack([fresh[which], f, g], axis=1), axis=1)
                created = np.unique(ids, axis=0)[:, [1, 0, 2]]
                gone = np.empty(0, dtype=np.int64)
            else:
                spliced = edge_splice.removed_at
                removed = np.zeros(count, dtype=bool)
                removed[spliced] = True
                gone = np.unique(np.flatnonzero(removed[listed.reshape(-1)]) // 3)
                destroyed = listed[gone]
                created = np.empty((0, 3), dtype=np.int64)
            patched = self.store.empty(
                (len(listed) - gone.size + len(created), 3), np.int64
            )
            # The surviving rows, remapped block by block between destroyed ones.
            start = filled = 0
            for stop in [*gone.tolist(), len(listed)]:
                np.take(
                    table, listed[start:stop],
                    out=patched[filled: filled + stop - start],
                )
                filled, start = filled + stop - start, stop + 1
            patched[filled:] = created
            if len(patched) != triangles:
                raise ArchitectureError(
                    f"the patched list holds {len(patched)} triangles but the "
                    f"session counts {triangles}"
                )
            workloads = {"triangles": patched}
            if "tallies" in cache:
                sign = 1 if insert else -1
                tallies, degrees = (array.copy() for array in cache["tallies"])
                np.add.at(degrees, delta_edges.reshape(-1), sign)
                corners = (
                    _corners(created, sources, destinations) if insert
                    else _corners(destroyed, *old_edges)
                )
                np.add.at(tallies, corners, sign)
                workloads["tallies"] = _frozen(tallies, degrees)
            if "truss" in cache:
                old = cache["truss"].per_edge

                def triangles_of(ids):
                    return self._edge_triangles(keys, sources[ids], destinations[ids])

                if insert:
                    values = np.insert(old, spliced, 2)
                    closing = fresh[np.isin(fresh, created)]
                    trussness = truss_module.trussness_after_inserts(
                        values, closing, triangles_of
                    ) if closing.size else values
                else:
                    values = np.delete(old, spliced)
                    seeds = table[destroyed[~removed[destroyed]]]
                    trussness = truss_module.trussness_after_deletes(
                        values, seeds, triangles_of
                    ) if seeds.size else values
                if trussness is None:
                    self.fallbacks["truss_repeel"] += 1
                    trussness = truss_module.peel_trussness(
                        np.bincount(patched.reshape(-1), minlength=sources.size),
                        patched,
                    )
                workloads["truss"] = EdgeMap(
                    sources, destinations, trussness, self.num_vertices, keys
                )
        except Exception:
            self.fallbacks["workload_patch_error"] += 1
            return
        self.workloads = workloads

    def _move_totals(self, delta_edges: np.ndarray) -> None:
        """Move the kept totals past a committed batch, over the current
        windows.

        Only a delta edge's source gains or loses upper slices, and only
        its destination lower ones, so the columns whose pairs can change
        are the batch's destinations and the upper neighbours of its
        sources (one key-range search each).  Every edge into those
        columns — their in-neighbours, read off the lower windows' bits —
        re-joins: each slice of the column's lower window is a pair when
        the source's upper window holds it, one ``np.isin`` of ``(source,
        slice id)`` keys against the sources' upper windows.
        """
        upper, lower = self.windows
        sym = self.sym
        n = np.int64(self.num_vertices)
        starts = np.unique(delta_edges[:, 0]) * n
        lo = np.searchsorted(self.keys, starts)
        hi = np.searchsorted(self.keys, starts + n)
        neighbours = self.edges[1][expand_runs(lo, hi - lo)]
        columns = np.unique(np.concatenate([delta_edges[:, 1], neighbours]))
        first, counts = lower.row_slice_ranges(columns)
        positions = expand_runs(first, counts)
        owner = np.repeat(np.arange(columns.size, dtype=np.int64), counts)
        slot, sources = sym.decode(sym.slice_ids[positions], sym.data[positions])
        into = owner[slot]
        below = sources < columns[into]
        sources, into = sources[below], into[below]
        per_row = np.int64(sym.slices_per_row)
        rows, row_of = np.unique(sources, return_inverse=True)
        first_row, row_counts = upper.row_slice_ranges(rows)
        held = (
            np.repeat(np.arange(rows.size, dtype=np.int64), row_counts) * per_row
            + sym.slice_ids[expand_runs(first_row, row_counts)]
        )
        # One probe per (edge, slice of its column's lower window).
        width = counts[into]
        probes = sym.slice_ids[expand_runs(first[into], width)]
        hit = np.isin(np.repeat(row_of, width) * per_row + probes, held)
        keys = np.repeat(into, width)[hit] * per_row + probes[hit]
        totals = self.totals
        totals.pairs[columns] = np.bincount(keys // per_row, minlength=columns.size)
        totals.distinct[columns] = np.bincount(
            _run_heads(np.sort(keys)) // per_row, minlength=columns.size
        )

    def _edge_triangles(self, keys: np.ndarray, u: np.ndarray, v: np.ndarray):
        """``(which, f, g)``: every triangle ``{u[i], v[i], w}`` of the
        symmetric structure, as ``i`` and the ids of its edges
        ``{u[i], w}`` and ``{v[i], w}`` among the forward edges whose
        ascending ``u * n + v`` keys are ``keys``."""
        which, witnesses = kernels.pair_witnesses(self.sym, u, v)
        n = np.int64(self.num_vertices)
        return (
            which,
            _edge_ids(keys, n, u[which], witnesses),
            _edge_ids(keys, n, v[which], witnesses),
        )

    def start_call(self) -> None:
        """The lifecycle rule, run as ``apply()`` starts: the plan stays
        only if a read folded the batches the previous call queued (or it
        queued none), the totals only if a priced read ran since that
        call, the windows while either stays, the workload cache only if
        a workload read ran since that call, and the edge list while the
        windows or the cache stay.  The queue never holds more than one
        call's batches."""
        self.keep(
            plan=not self.pending, totals=self.totals_read, workloads=self.workloads_read
        )
        self.totals_read = self.workloads_read = False

    def keep(
        self, *, plan: bool = False, totals: bool = False, workloads: bool = False
    ) -> None:
        """Drop the derived state not kept, for a lazy rebuild from the
        symmetric structure: the count plan with its queued batches unless
        ``plan``, the event totals unless ``totals``, the windows once
        neither stays, the workload cache unless ``workloads``, and the
        edge list with its keys once neither the windows nor the cache
        stay."""
        if not totals:
            self.totals = None
        if not plan:
            self.plan = None
            self.pending = []
            if self.totals is None:
                self.windows = None
        if not workloads:
            self.workloads = {}
        if self.windows is None and not self.workloads:
            self.edges = self.keys = None

    def close(self) -> None:
        """Drop all derived state and keep one edge set: the graph when
        one is held, else the symmetric structure (after a commit or a
        snapshot open).  The maintained count is the session's."""
        self.keep()
        if self.graph is not None:
            self.sym = None

    # ------------------------------------------------------------------
    # Snapshots and footprint
    # ------------------------------------------------------------------
    def snapshot_tables(self) -> tuple[dict, dict, dict]:
        """``(arrays, structures, plans)`` a snapshot persists.

        The edge list is always included (derived when not resident); the
        symmetric structure with its windows' offsets and the plan only
        when resident, and the manifest's ``structures`` / ``plans``
        tables record what is present so hydration restores exactly the
        warmth that was serialised.  Slice ids and edge endpoints are
        written as int32 where they fit.
        """
        sources, destinations = self.edge_list()
        arrays: dict[str, np.ndarray] = {
            "oriented.sources": _narrow(sources, self.num_vertices),
            "oriented.destinations": _narrow(destinations, self.num_vertices),
        }
        structures: dict[str, dict] = {}
        sym = self.sym
        if sym is not None:
            structures["sym"] = {
                "num_rows": sym.num_rows,
                "num_cols": sym.num_cols,
                "slice_bits": sym.slice_bits,
                "structure_version": sym.structure_version,
            }
            arrays["sym.indptr"] = sym.indptr
            arrays["sym.slice_ids"] = _narrow(sym.slice_ids, sym.slices_per_row)
            arrays["sym.data"] = sym.data
            for side in self.windows or ():
                arrays[f"sym.{side.side}"] = side.offsets
        plans: dict[str, dict] = {}
        plan = self.plan
        if plan is not None:
            plans["plan"] = {
                "num_edges": plan.num_edges,
                "stamp": [list(entry) for entry in plan.stamp],
            }
            for name in _PLAN_ARRAYS:
                arrays[f"plan.{name}"] = getattr(plan, name)
        return arrays, structures, plans

    def adopt(self, meta: dict, arrays: dict, store) -> int:
        """Adopt a snapshot's state and the store its segments hydrated
        into; returns the edge count.

        The edge list comes from the ``oriented.*`` segments (or, in
        snapshots of earlier releases, the graph the session opened on).
        The symmetric structure and the compiled count plan carry over
        only when they were built for this layout: the same slice width,
        and the upper-triangular edge list (earlier releases could also
        write a ``"symmetric"`` orientation, whose edge list holds both
        directions of every edge and whose plan joins the structure with
        itself).  Otherwise only a graph built from the edge list is
        kept and the rest rebuilds lazily.  Snapshots of earlier releases
        also carry ``graph.*``, ``row.*``, ``col.*``, ``edges.*``,
        ``sym_edges.*`` and ``sym_plan.*`` segments, a plan over the
        retired row and column structures and a summary of the retired
        coloring contexts; they were verified and are ignored.
        """
        self.store = store
        saved = meta.get("config", {})
        same_layout = (
            saved.get("slice_bits") == self.slice_bits
            and saved.get("orientation", "upper") == "upper"
        )

        def take(name: str) -> np.ndarray:
            try:
                return arrays[name]
            except KeyError:
                raise StorageError(
                    f"snapshot manifest names array {name!r} but the segment "
                    f"table has no such entry"
                ) from None

        info = meta.get("structures", {}).get("sym") if same_layout else None
        if "oriented.sources" in arrays:
            edges = tuple(
                take(f"oriented.{name}").astype(np.int64)
                for name in ("sources", "destinations")
            )
            if info is None:
                sources, destinations = edges
                forward = sources < destinations
                self.graph = Graph(
                    self.num_vertices,
                    np.stack([sources[forward], destinations[forward]], axis=1),
                )
                return self.graph.num_edges
            # The symmetric structure is the edge set; a graph rebuilds
            # from it on demand, as after a commit.
            self.graph = None
            self.edges = edges
        num_edges = (
            self.graph.num_edges if self.graph is not None
            else int(meta.get("num_edges", 0))
        )
        if info is None:
            return num_edges
        sym = SlicedMatrix(
            int(info["num_rows"]),
            int(info["num_cols"]),
            int(info["slice_bits"]),
            take("sym.indptr"),
            store.adopt(take("sym.slice_ids").astype(np.int64)),
            store.adopt(take("sym.data")),
        )
        sym.structure_version = int(info["structure_version"])
        self.sym = sym
        if "sym.upper" in arrays:
            self.windows = tuple(
                SliceWindow(sym, side, take(f"sym.{side}")) for side in ("upper", "lower")
            )
        else:
            self.windows = SliceWindow.pair(sym)
        info = meta.get("plans", {}).get("plan")
        if info is None or "stamp" not in info:
            return num_edges
        plan = joinplan.JoinPlan(
            **{name: store.adopt(take(f"plan.{name}")) for name in _PLAN_ARRAYS},
            num_edges=int(info["num_edges"]),
            stamp=tuple(tuple(int(v) for v in entry) for entry in info["stamp"]),
        )
        # Defensive: a hand-assembled snapshot could pair a plan with
        # structures it was not compiled for — rebuild, never serve.
        if plan.matches(*self.windows) and plan.num_edges == self.edge_list()[0].size:
            self.plan = plan
        return num_edges

    def resident_bytes(self) -> dict:
        """The byte groups of ``TCIMSession.resident_bytes_detail()``,
        each array counted once, under the first group that holds it (the
        maps' edge arrays are the edge list, and the clustering report's
        tallies the cached ones)."""
        graph, sym, cache = self.graph, self.sym, self.workloads
        report = cache.get("clustering")
        graph_bytes, slices, edges, workloads = _held_bytes(
            (graph.edge_array(), *graph.csr) if graph is not None else (),
            (*sym.buffers, sym.indptr) if sym is not None else (),
            (*(self.edges or ()), *([self.keys] if self.keys is not None else ())),
            [
                *([cache["triangles"]] if "triangles" in cache else ()),
                *cache.get("tallies", ()),
                *(cache[name].per_edge for name in ("support", "truss") if name in cache),
                *((report.local, report.triangles_per_vertex) if report else ()),
            ],
        )
        slices += sum(side.offsets.nbytes for side in self.windows or ())
        if self.totals is not None:
            slices += self.totals.nbytes
        plan = self.plan.nbytes if self.plan is not None else 0
        return {
            "slices": slices,
            "plan": plan,
            "sym_plan": 0,
            "edges": edges,
            "graph": graph_bytes,
            "workloads": workloads,
            "spilled": self.store.spilled_bytes,
            "total": slices + plan + edges + graph_bytes + workloads,
        }


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each made non-writeable."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _corners(listed: np.ndarray, sources: np.ndarray, destinations: np.ndarray):
    """The three vertices of every triangle row ``(e_uv, e_uw, e_wv)`` of
    ``listed``, over the forward edges ``(sources, destinations)``."""
    return np.concatenate(
        [sources[listed[:, 0]], destinations[listed[:, 0]], destinations[listed[:, 1]]]
    )


def _edge_ids(keys: np.ndarray, n, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ids of the edges ``{a[i], b[i]}`` among the forward edges whose
    ascending ``u * n + v`` keys are ``keys``; raises if one is absent."""
    wanted = np.minimum(a, b) * n + np.maximum(a, b)
    found = np.searchsorted(keys, wanted)
    if wanted.size and (
        int(found.max()) >= keys.size or bool((keys[found] != wanted).any())
    ):
        raise ArchitectureError("a witness bit names a missing edge")
    return found


def _narrow(array: np.ndarray, bound: int) -> np.ndarray:
    """``array`` as int32 when its values stay below ``bound`` (a vertex
    count or slices per row), for the snapshot's smaller segments."""
    if bound <= np.iinfo(np.int32).max:
        return array.astype(np.int32, copy=False)
    return array


def _held_bytes(*groups) -> list[int]:
    """Bytes of each group of arrays, counting every array's memory
    once — a view as the array that owns it — under the first group
    that holds it."""
    seen: set[int] = set()
    totals = []
    for arrays in groups:
        totals.append(0)
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            if id(array) not in seen:
                seen.add(id(array))
                totals[-1] += array.nbytes
    return totals
