"""Sparsity-aware data slicing (paper Section IV-B).

Rows and columns of the adjacency matrix are cut into ``|S|``-bit slices
(the paper uses ``|S| = 64``).  A slice is **valid** iff it contains at
least one non-zero.  Only valid slices are stored, and only *valid slice
pairs* — positions where both the row slice ``R_i S_k`` and the column
slice ``C_j S_k`` are valid — are ever loaded into the computational array
and ANDed.  On the paper's large sparse graphs this eliminates 99.99 % of
the slice-pair work (Table IV) and compresses each graph to at most a few
tens of MB (Table III).

The compressed format stores, per valid slice, a 4-byte index plus
``|S|/8`` bytes of payload, i.e. ``N_VS x (|S|/8 + 4)`` bytes overall —
exactly the paper's memory-requirement formula.

:class:`SlicedMatrix` is a CSR-like container of valid slices, built fully
vectorised so million-edge graphs compress in well under a second.  Each
row owns a run of *slots*, and its valid slices fill the leading ones;
the rest are free room.  A built or hydrated structure is compact (no
room).  The streaming splices (:meth:`SlicedMatrix.insert_slices`,
:meth:`SlicedMatrix.remove_slices`) rewrite only the slots of the rows
they touch, so an update costs ``O(touched rows)``, not ``O(N_VS)``,
like TCIM writing only the slices an edge touches.  An insert into a
row without room re-spreads the whole structure once, with room for
every row.

The row slices and column slices of the upper-triangular matrix (paper
Fig. 4) are both read out of one symmetric structure:
:class:`SliceWindow` exposes each row's upper (successor) or lower
(predecessor) slices as a window of that row's symmetric slices, so a
resident graph is held once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SlicingError
from repro.graph import bitops
from repro.graph.graph import Graph

__all__ = [
    "SlicedMatrix",
    "SliceWindow",
    "SliceStatistics",
    "slice_statistics",
    "valid_pair_positions",
    "expand_runs",
    "bit_range_masks",
    "INDEX_BYTES",
]

#: Bytes used to store each valid-slice index in the compressed format
#: ("we use an integer (four Bytes) to store each valid slice index").
INDEX_BYTES = 4

_ORIENTATIONS = ("symmetric", "upper", "lower")


class SlicedMatrix:
    """Valid slices of a 0/1 matrix, stored row-major in slots.

    Attributes
    ----------
    slice_bits:
        ``|S|`` — bits per slice.  Must be a positive multiple of 8.
    indptr:
        ``(num_rows + 1,)``, ascending — row ``r`` owns the slots
        ``[indptr[r], indptr[r + 1])`` of the slot arrays.
    counts:
        ``(num_rows,)`` — how many leading slots of each row hold its
        valid slices; the row's other slots are free room.
    slice_ids:
        ``(slots,)`` — the slice index ``k`` (``0 <= k < slices_per_row``)
        of the valid slice in each slot, ascending within a row; 0 in a
        free slot.
    data:
        ``(slots, slice_bits // 8)`` uint8 — packed payload, little-endian
        bit order (bit ``t`` of slice ``k`` is column ``k * |S| + t``);
        all zero in a free slot, so a reader of every slot sees no bit
        and no slice past slice 0 there.

    A built or hydrated structure is compact (``counts`` is
    ``np.diff(indptr)``); its first structural insert re-spreads it with
    room in every row.  Readers bound a row by ``counts``, never by
    ``indptr[r + 1]``.  A splice rewrites slots in place (a re-spread
    replaces the slot arrays), so an array taken from a structure before
    a splice may change under its holder.
    """

    __slots__ = (
        "num_rows",
        "num_cols",
        "slice_bits",
        "indptr",
        "counts",
        "slice_ids",
        "data",
        "structure_version",
        "_num_valid",
    )

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        slice_bits: int,
        indptr: np.ndarray,
        slice_ids: np.ndarray,
        data: np.ndarray,
    ) -> None:
        _check_slice_bits(slice_bits)
        if num_rows < 0 or num_cols < 0:
            raise SlicingError(f"negative matrix shape ({num_rows}, {num_cols})")
        if indptr.shape != (num_rows + 1,):
            raise SlicingError(
                f"indptr must have shape ({num_rows + 1},), got {indptr.shape}"
            )
        if data.ndim != 2 or data.shape[1] != slice_bits // 8:
            raise SlicingError(
                f"data must have shape (N_VS, {slice_bits // 8}), got {data.shape}"
            )
        if slice_ids.shape[0] != data.shape[0]:
            raise SlicingError(
                f"slice_ids ({slice_ids.shape[0]}) and data ({data.shape[0]}) disagree"
            )
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.slice_bits = int(slice_bits)
        self.indptr = indptr
        self.slice_ids = slice_ids
        self.data = data
        # Built and hydrated structures are compact; the first insert
        # that needs room re-spreads them.
        self.counts = np.diff(indptr)
        self._num_valid = int(self.counts.sum())
        #: Monotone counter of *structural* changes: bumped whenever the
        #: set of valid slices changes (a slice inserted or dropped) or a
        #: valid slice changes slot, so positions into
        #: :attr:`slice_ids`/:attr:`data` from before the bump are
        #: invalid.  Payload-only mutation (setting/clearing
        #: bits inside an existing slice) does not bump it — positions
        #: stay valid.  Derived artifacts (a
        #: :class:`repro.core.plan.JoinPlan`) key their coherence on
        #: this counter.
        self.structure_version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_nonzeros(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        num_rows: int,
        num_cols: int,
        slice_bits: int = 64,
        store=None,
    ) -> "SlicedMatrix":
        """Build from parallel arrays of non-zero coordinates.

        ``store`` (a :class:`repro.storage.backing.BackingStore`) decides
        where the slot arrays live: a ``memmap`` store spills ``data``
        and ``slice_ids`` to disk once each crosses the spill threshold.
        The per-row arrays (``indptr``, ``counts``) stay on heap — they
        are hot and small relative to the payload.
        """
        _check_slice_bits(slice_bits)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise SlicingError(
                f"rows/cols must be matching 1-D arrays, got {rows.shape} vs {cols.shape}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= num_rows:
                raise SlicingError("row coordinate out of range")
            if cols.min() < 0 or cols.max() >= num_cols:
                raise SlicingError("column coordinate out of range")
        slices_per_row = _slices_per_row(num_cols, slice_bits)
        slice_of = cols // slice_bits
        keys = rows * np.int64(slices_per_row) + slice_of
        if keys.size and bool((keys[1:] >= keys[:-1]).all()):
            # Already sorted (e.g. nonzeros straight off the lexicographic
            # edge list): skip the argsort, the dominant cost at scale.
            keys_sorted = keys
            cols_sorted = cols
        else:
            order = np.argsort(keys, kind="stable")
            keys_sorted = keys[order]
            cols_sorted = cols[order]
        # ``keys_sorted`` is sorted, so uniques are the group heads — a
        # boundary scan beats a hash-based np.unique on large graphs.
        if keys_sorted.size:
            head = np.empty(keys_sorted.size, dtype=bool)
            head[0] = True
            np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=head[1:])
            unique_keys = keys_sorted[head]
            ordinal = np.cumsum(head) - 1
        else:
            unique_keys = keys_sorted
            ordinal = np.empty(0, dtype=np.int64)
        bits = np.zeros((unique_keys.size, slice_bits), dtype=bool)
        bits[ordinal, cols_sorted % slice_bits] = True
        data = (
            np.packbits(bits, axis=1, bitorder="little")
            if unique_keys.size
            else np.zeros((0, slice_bits // 8), dtype=np.uint8)
        )
        slice_ids = (unique_keys % slices_per_row).astype(np.int64)
        owner_rows = (unique_keys // slices_per_row).astype(np.int64)
        counts = np.bincount(owner_rows, minlength=num_rows)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if store is not None:
            data = store.adopt(data)
            slice_ids = store.adopt(slice_ids)
        return cls(num_rows, num_cols, slice_bits, indptr, slice_ids, data)

    @classmethod
    def from_graph(
        cls, graph: Graph, orientation: str = "upper", slice_bits: int = 64,
        store=None,
    ) -> "SlicedMatrix":
        """Slice the (oriented) adjacency matrix of ``graph``.

        ``orientation="upper"`` slices rows of the DAG-oriented matrix
        (successors); ``"lower"`` slices its transpose (predecessors) —
        which is exactly the *column* structure of the upper matrix, since
        column ``j`` of ``A`` is row ``j`` of ``A^T``.

        ``store`` is forwarded to :meth:`from_nonzeros`: with a ``memmap``
        backing store, large slice payloads land on disk.
        """
        if orientation not in _ORIENTATIONS:
            raise SlicingError(f"unknown orientation {orientation!r}")
        n = graph.num_vertices
        # Expand the (sorted-neighbour) CSR rather than the edge list: the
        # resulting nonzeros arrive ordered by (row, col) for *every*
        # orientation, so from_nonzeros skips its argsort.
        indptr, indices = graph.csr
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if orientation == "upper":
            keep = owners < indices
            rows, cols = owners[keep], indices[keep]
        elif orientation == "lower":
            keep = owners > indices
            rows, cols = owners[keep], indices[keep]
        else:
            rows, cols = owners, indices
        return cls.from_nonzeros(rows, cols, n, n, slice_bits=slice_bits, store=store)

    @classmethod
    def from_dense(cls, dense: np.ndarray, slice_bits: int = 64) -> "SlicedMatrix":
        """Slice a dense 0/1 matrix (test helper)."""
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise SlicingError(f"expected a 2-D matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_nonzeros(
            rows, cols, dense.shape[0], dense.shape[1], slice_bits=slice_bits
        )

    def mark_structure_changed(self) -> None:
        """Record a structural mutation: bump the version.

        The one place every mutator (:meth:`insert_slices`,
        :meth:`remove_slices`) calls after inserting or deleting valid
        slices.  Centralising it here is what keeps any resident
        :class:`~repro.core.plan.JoinPlan` coherent — the regression
        suite in ``tests/test_plan.py`` mutates structures every way the
        incremental path can and asserts plans stay exact.
        """
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Splices (the streaming path of repro.core.incremental)
    # ------------------------------------------------------------------
    def insert_slices(
        self,
        before: np.ndarray,
        rows: np.ndarray,
        slice_ids: np.ndarray,
        payloads: np.ndarray,
        store=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Splice new valid slices into their rows' slots.

        ``before`` holds each new slice's insertion slot, where
        :meth:`find_slices` reports it missing, aligned with its owning
        ``rows``, its ``slice_ids`` and ``payloads`` and sorted by row,
        then slice id; several slices may share a slot.  In each touched
        row the valid slices from its first insertion slot on move right
        inside the row's slots and the new ones land between them; no
        other row is read or written.  When a touched row lacks the room,
        the whole structure re-spreads once instead (:meth:`_respread`),
        allocating through ``store`` (a
        :class:`repro.storage.backing.BackingStore`, so a spilled
        structure stays spilled; ``None`` allocates on the heap) before
        any byte moves, so a failed allocation leaves the structure as
        it was.

        Returns ``(landed, moved_from, moved_to)``: the slot of each new
        slice, and the old and new slot of every stored slice that moved
        (after a re-spread, of every stored slice).
        """
        added = int(before.size)
        if not added:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        rows = np.asarray(rows, dtype=np.int64)
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        touched = rows[heads]
        per_row = np.diff(heads, append=added)
        counts = self.counts[touched] + per_row
        spread = None
        if bool((counts > self.indptr[touched + 1] - self.indptr[touched]).any()):
            spread = self._respread(rows, store)
            before = before + spread[2][rows]
        # The stored tails, from each row's first insertion slot on, each
        # move past the row's new slices at or before it; each new slice
        # lands past the earlier new slices of its row.
        start = before[heads]
        lengths = self.indptr[touched] + self.counts[touched] - start
        tails = expand_runs(start, lengths)
        scale = np.int64(self.data.shape[0] + 1)
        shift = np.searchsorted(
            rows * scale + before,
            np.repeat(touched, lengths) * scale + tails,
            side="right",
        ) - np.repeat(heads, lengths)
        moved_to = tails + shift
        landed = before + np.arange(added) - np.repeat(heads, per_row)
        ids, data = self.slice_ids, _slot_items(self.data)
        # Each right-hand side is a gathered copy, so no slot is read
        # after it is overwritten.
        ids[moved_to] = ids[tails]
        data[moved_to] = data[tails]
        ids[landed] = slice_ids
        data[landed] = _slot_items(payloads)
        self.counts[touched] = counts
        self._num_valid += added
        self.mark_structure_changed()
        if spread is None:
            return landed, tails, moved_to
        # The tails moved twice: re-laid, then past the new slices.
        positions, targets, _ = spread
        targets[np.searchsorted(targets, tails)] = moved_to
        return landed, positions, targets

    def _respread(self, rows: np.ndarray, store):
        """Re-lay every row's valid slices with room for the new slices
        of ``rows`` and more: each row gets ``2 + count // 8`` free slots
        past its ``count`` valid slices (new ones included), ~12.5 % over
        ``N_VS`` plus two slots a row.

        Both slot arrays are allocated through ``store`` before any byte
        moves.  Returns ``(positions, targets, offsets)``: every valid
        slice's old and new slot, and each row's first-slot shift.
        """
        counts = self.counts + np.bincount(rows, minlength=self.num_rows)
        indptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(counts + 2 + counts // 8, out=indptr[1:])
        slots = int(indptr[-1])
        new_ids = _alloc(store, slots, self.slice_ids.dtype)
        new_data = _alloc(store, (slots, self.data.shape[1]), self.data.dtype)
        new_ids.fill(0)
        new_data.fill(0)
        offsets = indptr[:-1] - self.indptr[:-1]
        positions = self.valid_positions()
        targets = positions + np.repeat(offsets, self.counts)
        new_ids[targets] = self.slice_ids[positions]
        _slot_items(new_data)[targets] = _slot_items(self.data)[positions]
        self.indptr, self.slice_ids, self.data = indptr, new_ids, new_data
        return positions, targets, offsets

    def remove_slices(
        self, positions: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop the valid slices at sorted, unique slot ``positions``.

        ``rows`` are their owning rows.  In each touched row the kept
        slices after its first removed one move left inside the row's
        slots, and the freed slots at the end of its valid run are zeroed
        as room for later inserts; nothing is allocated, and no other row
        is read or written.  Returns ``(moved_from, moved_to)``, the old
        and new slot of every kept slice that moved.
        """
        removed = int(positions.size)
        if not removed:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows = np.asarray(rows, dtype=np.int64)
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        touched = rows[heads]
        per_row = np.diff(heads, append=removed)
        start = positions[heads]
        end = self.indptr[touched] + self.counts[touched]
        tails = expand_runs(start, end - start)
        # Removed slices of the row before each tail slot.
        before = np.searchsorted(positions, tails)
        kept = positions[np.minimum(before, removed - 1)] != tails
        moved_from = tails[kept]
        moved_to = moved_from - (before - np.repeat(heads, end - start))[kept]
        ids, data = self.slice_ids, _slot_items(self.data)
        ids[moved_to] = ids[moved_from]
        data[moved_to] = data[moved_from]
        freed = expand_runs(end - per_row, per_row)
        ids[freed] = 0
        data[freed] = 0
        self.counts[touched] -= per_row
        self._num_valid -= removed
        self.mark_structure_changed()
        return moved_from, moved_to

    def compacted(self, store=None) -> "SlicedMatrix":
        """A copy of the valid slices without room — the layout
        :meth:`from_nonzeros` builds — at the same ``structure_version``;
        its slice ``i`` comes from slot ``valid_positions()[i]``.
        ``store`` allocates the payload, as in :meth:`insert_slices`."""
        positions = self.valid_positions()
        indptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        data = _alloc(store, (positions.size, self.data.shape[1]), self.data.dtype)
        np.take(self.data, positions, axis=0, out=data)
        copy = SlicedMatrix(
            self.num_rows, self.num_cols, self.slice_bits, indptr,
            self.slice_ids[positions], data,
        )
        copy.structure_version = self.structure_version
        return copy

    # ------------------------------------------------------------------
    # Size / statistics (Table III & IV quantities)
    # ------------------------------------------------------------------
    @property
    def num_valid_slices(self) -> int:
        """``N_VS`` — total number of valid slices."""
        return self._num_valid

    @property
    def slices_per_row(self) -> int:
        """``ceil(num_cols / |S|)``."""
        return _slices_per_row(self.num_cols, self.slice_bits)

    @property
    def total_slices(self) -> int:
        """Total slice positions (valid or not): ``num_rows * slices_per_row``."""
        return self.num_rows * self.slices_per_row

    @property
    def valid_fraction(self) -> float:
        """Fraction of slice positions that are valid (Table IV / 100)."""
        return self.num_valid_slices / self.total_slices if self.total_slices else 0.0

    @property
    def data_bytes(self) -> int:
        """Payload size: ``N_VS x |S| / 8`` bytes (Table III quantity)."""
        return self.num_valid_slices * (self.slice_bits // 8)

    @property
    def index_bytes(self) -> int:
        """Index size: ``N_VS x 4`` bytes."""
        return self.num_valid_slices * INDEX_BYTES

    @property
    def compressed_bytes(self) -> int:
        """Overall compressed size ``N_VS x (|S|/8 + 4)`` bytes (Section IV-B)."""
        return self.data_bytes + self.index_bytes

    def nnz(self) -> int:
        """Number of non-zeros represented."""
        return bitops.popcount(self.data)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def row_slices(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(slice_ids, data)`` views for one row (both read-only)."""
        if not 0 <= row < self.num_rows:
            raise SlicingError(f"row {row} out of range [0, {self.num_rows})")
        lo = int(self.indptr[row])
        hi = lo + int(self.counts[row])
        ids = self.slice_ids[lo:hi]
        payload = self.data[lo:hi]
        ids.flags.writeable = False
        payload.flags.writeable = False
        return ids, payload

    def valid_positions(self) -> np.ndarray:
        """Slot of every valid slice, row-major (every slot when compact)."""
        if self._num_valid == self.data.shape[0]:
            return np.arange(self._num_valid, dtype=np.int64)
        return expand_runs(self.indptr[:-1], self.counts)

    def owner_rows(self) -> np.ndarray:
        """Owning row of every valid slice, aligned with
        :meth:`valid_positions`.

        Batch accessor for the vectorized engine: together with the
        slices' ids it identifies each valid slice globally without
        per-row Python calls.
        """
        return np.repeat(np.arange(self.num_rows, dtype=np.int64), self.counts)

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every set bit, in row-major order.

        The inverse of :meth:`from_nonzeros`.  Only bytes holding a set
        bit are unpacked, so the cost follows the non-zero count rather
        than ``N_VS x |S|``; a free slot holds none.
        """
        slot, cols = self.decode(self.slice_ids, self.data)
        owners = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
        )
        return owners[slot], cols

    def row_columns(self, rows: np.ndarray) -> np.ndarray:
        """Columns of the set bits of ``rows``, row by row, ascending
        within each row — a neighbour list read off only those rows."""
        starts, counts = self.row_slice_ranges(rows)
        positions = expand_runs(starts, counts)
        return self.decode(self.slice_ids[positions], self.data[positions])[1]

    def decode(
        self, slice_ids: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, col)`` of every set bit of the given slices of this
        structure's width, ``slot`` indexing the passed arrays."""
        width = self.slice_bits // 8
        flat = data.reshape(-1)
        hot = np.flatnonzero(flat)
        which, bit = np.nonzero(
            np.unpackbits(flat[hot][:, None], axis=1, bitorder="little")
        )
        byte = hot[which]
        slot = byte // width
        return slot, slice_ids[slot] * self.slice_bits + (byte % width) * 8 + bit

    def global_keys(self) -> np.ndarray:
        """``row * slices_per_row + slice_id`` for every valid slice.

        Because valid slices are stored row-major with ascending slice ids
        within each row, the returned array is strictly ascending.  Only
        the engine's dense position table reads the whole array; smaller
        joins key just the rows they touch.  Aligned with
        :meth:`valid_positions`.
        """
        ids = self.slice_ids[self.valid_positions()]
        return self.owner_rows() * np.int64(self.slices_per_row) + ids

    def row_slice_ranges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the valid-slice runs of many rows at once."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise SlicingError(f"row index out of range [0, {self.num_rows})")
        return self.indptr[rows], self.counts[rows]

    def find_slices(
        self, rows: np.ndarray, slice_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, exists)`` of slice ``slice_ids[i]`` of row ``rows[i]``.

        ``positions[i]`` is the slice's position when ``exists[i]``, else
        where it would be inserted.  One lockstep binary search of every
        id inside its own row's sorted run: ``O(k log(slices per row))``,
        with no ``O(N_VS)`` key array.
        """
        ids = self.slice_ids
        lo = self.indptr[rows]
        end = lo + self.counts[rows]
        hi = end.copy()
        last = max(ids.size - 1, 0)
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            searching = lo < hi
            right = searching & (ids[np.minimum(mid, last)] < slice_ids)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(searching & ~right, mid, hi)
        exists = lo < end
        exists[exists] = ids[lo[exists]] == slice_ids[exists]
        return lo, exists

    def row_valid_counts(self) -> np.ndarray:
        """Valid-slice count for every row."""
        return self.counts.copy()

    def to_dense(self) -> np.ndarray:
        """Expand back to a dense boolean matrix (test helper)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=bool)
        for row in range(self.num_rows):
            ids, payload = self.row_slices(row)
            for slice_id, slice_bytes in zip(ids.tolist(), payload):
                start = slice_id * self.slice_bits
                width = min(self.slice_bits, self.num_cols - start)
                dense[row, start: start + width] = bitops.unpack_bytes(
                    slice_bytes, width
                )
        return dense

    def __repr__(self) -> str:
        return (
            f"SlicedMatrix(shape=({self.num_rows}, {self.num_cols}), "
            f"slice_bits={self.slice_bits}, num_valid_slices={self.num_valid_slices})"
        )


class SliceWindow:
    """The upper or lower triangle of a symmetric :class:`SlicedMatrix`,
    read in place through one window per row.

    Row ``u``'s *diagonal slice* ``u // |S|`` is the only slice of the row
    that can hold bits on both sides of ``u``.  The ``"upper"`` window of
    row ``u`` is the suffix of its symmetric slices from the diagonal
    slice on, the ``"lower"`` window the prefix up to it, and the
    diagonal slice belongs to a window only if it holds a bit on that
    side of ``u``.  The windows hold exactly the slices of
    ``SlicedMatrix.from_graph(graph, "upper" | "lower")``, at positions of
    :attr:`sym`'s payload, whose diagonal slices still carry the other
    side's bits: a join masks them
    (:attr:`repro.core.plan.JoinPlan.diagonal_pairs`).

    ``offsets`` counts, per row, the slices before an upper window or in
    a lower one, relative to the row's first slot (``sym.indptr``), so a
    splice moves only the windows of the rows it touches
    (:meth:`refresh`) and a re-spread, which moves every row's slots,
    none.  The window reads
    the rest of a structure's surface through to :attr:`sym`, except the
    valid slices: ``num_valid_slices`` and the Table III/IV byte counts
    count the window's (the payload length is ``data.shape[0]``).
    """

    __slots__ = ("sym", "side", "offsets")

    _SHARED = frozenset(
        ("num_rows", "num_cols", "slice_bits", "slices_per_row", "total_slices",
         "structure_version", "slice_ids", "data")
    )

    def __init__(self, sym: SlicedMatrix, side: str, offsets: np.ndarray) -> None:
        self.sym, self.side, self.offsets = sym, side, offsets

    def __getattr__(self, name: str):
        if name in SliceWindow._SHARED:
            return getattr(self.sym, name)
        raise AttributeError(name)

    @classmethod
    def pair(cls, sym: SlicedMatrix) -> tuple["SliceWindow", "SliceWindow"]:
        """The ``(upper, lower)`` windows of every row of ``sym``."""
        before, inside = _diagonal_split(sym, np.arange(sym.num_rows))
        dtype = np.int32 if sym.slices_per_row <= np.iinfo(np.int32).max else np.int64
        return tuple(
            cls(sym, side, (before + extra).astype(dtype))
            for side, extra in zip(("upper", "lower"), inside)
        )

    @staticmethod
    def refresh(windows, rows: np.ndarray) -> bool:
        """Re-derive the ``(upper, lower)`` windows of ``rows`` after
        :attr:`sym` changed; returns whether any window moved.

        A window can gain or lose its diagonal slice on a payload-only
        update, which does not bump ``sym.structure_version``; a move
        bumps it, so a plan over the old windows reads as stale.
        """
        before, inside = _diagonal_split(windows[0].sym, rows)
        moved = False
        for window, extra in zip(windows, inside):
            moved |= bool((window.offsets[rows] != before + extra).any())
            window.offsets[rows] = before + extra
        if moved:
            windows[0].sym.mark_structure_changed()
        return moved

    def row_slice_ranges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of many rows' windows, as :attr:`sym` positions."""
        starts, counts = self.sym.row_slice_ranges(rows)
        offsets = self.offsets[rows]
        if self.side == "upper":
            return starts + offsets, counts - offsets
        return starts, offsets.astype(np.int64)

    def row_valid_counts(self) -> np.ndarray:
        """Window size of every row."""
        if self.side == "upper":
            return self.sym.counts - self.offsets
        return self.offsets.astype(np.int64)

    @property
    def num_valid_slices(self) -> int:
        inside = int(self.offsets.sum(dtype=np.int64))
        return self.sym.num_valid_slices - inside if self.side == "upper" else inside

    @property
    def data_bytes(self) -> int:
        return self.num_valid_slices * (self.slice_bits // 8)

    @property
    def compressed_bytes(self) -> int:
        return self.num_valid_slices * (self.slice_bits // 8 + INDEX_BYTES)

    def diagonal_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, rows)`` of the diagonal slices the windows hold."""
        rows = np.arange(self.num_rows)
        starts, counts = self.row_slice_ranges(rows)
        edge = (starts if self.side == "upper" else starts + counts - 1)[counts > 0]
        rows = rows[counts > 0]
        held = self.slice_ids[edge] == rows // self.slice_bits
        return edge[held], rows[held]

    def side_masks(self, rows: np.ndarray, slice_ids: np.ndarray) -> np.ndarray:
        """Payload masks of the bits of slice ``slice_ids[i]`` on the
        window's side of row ``rows[i]``."""
        bits = self.slice_bits
        own = rows - slice_ids * bits
        if self.side == "upper":
            return bit_range_masks(own + 1, np.full_like(own, bits), bits)
        return bit_range_masks(np.zeros_like(own), own, bits)


def bit_range_masks(lo: np.ndarray, hi: np.ndarray, slice_bits: int) -> np.ndarray:
    """``(k, slice_bits // 8)`` uint8 payloads with bits ``[lo[i], hi[i])``
    of a slice set (bounds clipped to the slice)."""
    starts = np.arange(0, slice_bits, 8)
    low = np.clip(np.clip(lo, 0, slice_bits)[:, None] - starts, 0, 8)
    high = np.clip(np.clip(hi, 0, slice_bits)[:, None] - starts, 0, 8)
    return (((1 << high) - 1) & ~((1 << low) - 1)).astype(np.uint8)


def _diagonal_split(sym: SlicedMatrix, rows: np.ndarray):
    """Per row: the slices before its diagonal slice, and the 0/1 the
    ``(upper, lower)`` offsets add for it — before an upper window that
    it holds no bit above the row for, in a lower one if it holds one
    below."""
    bits = sym.slice_bits
    positions, exists = sym.find_slices(rows, rows // bits)
    inside = np.zeros((2, rows.size), dtype=np.int64)
    held = np.flatnonzero(exists)
    payloads = sym.data[positions[held]]
    own = rows[held] % bits
    full = np.full_like(own, bits)
    for side, (lo, hi) in enumerate(((own + 1, full), (0 * own, own))):
        inside[side, held] = (payloads & bit_range_masks(lo, hi, bits)).any(axis=1)
    # An upper window starts after a diagonal slice with no bit above.
    inside[0, held] = 1 - inside[0, held]
    return positions - sym.indptr[rows], inside


@dataclass(frozen=True)
class SliceStatistics:
    """Compression metrics for one graph — the Table III / IV quantities.

    ``valid_percent`` counts valid slices over both the row structure and
    the column structure of the oriented matrix, matching the paper's
    framing that both rows and columns are sliced.
    """

    slice_bits: int
    row_valid_slices: int
    col_valid_slices: int
    total_slice_positions: int
    data_bytes: int
    compressed_bytes: int

    @property
    def num_valid_slices(self) -> int:
        """``N_VS`` over rows + columns."""
        return self.row_valid_slices + self.col_valid_slices

    @property
    def valid_percent(self) -> float:
        """Percentage of slice positions that are valid.

        Clean definition: valid slices over slice positions, both counted
        across the row structure *and* the column structure.
        """
        if not self.total_slice_positions:
            return 0.0
        return 100.0 * self.num_valid_slices / (2 * self.total_slice_positions)

    @property
    def paper_valid_percent(self) -> float:
        """Table IV's accounting of the valid-slice percentage.

        Reconciling the paper's Tables III and IV against Table II only
        works if Table IV counts the valid slices of both the row and the
        column structure against the ``n x ceil(n/|S|)`` slice positions of
        *one* matrix (e-mail-enron: 2 x N_VS_rows / positions = 1.56 % vs
        the published 1.607 %).  This property reproduces that accounting;
        :attr:`valid_percent` keeps the self-consistent definition.
        """
        if not self.total_slice_positions:
            return 0.0
        return 100.0 * self.num_valid_slices / self.total_slice_positions

    @property
    def data_megabytes(self) -> float:
        """Valid slice data size in MB (rows + columns)."""
        return self.data_bytes / 1e6

    @property
    def row_data_bytes(self) -> int:
        """Payload bytes of the row structure alone.

        This is the quantity that matches the paper's Table III ("valid
        slice data size"): one compressed copy of the graph, the one the
        controller streams row-by-row.
        """
        return self.row_valid_slices * (self.slice_bits // 8)

    @property
    def row_data_megabytes(self) -> float:
        """Row-structure payload in MB (the Table III quantity)."""
        return self.row_data_bytes / 1e6

    @property
    def compressed_megabytes(self) -> float:
        """Compressed size (data + 4-byte indexes) in MB."""
        return self.compressed_bytes / 1e6

    @property
    def computation_reduction_percent(self) -> float:
        """Work eliminated by slicing, the paper's "reduce 99.99 %" claim.

        Defined structurally as ``100 - valid_percent``: the fraction of
        slice positions that never have to be touched.
        """
        return 100.0 - self.valid_percent


def slice_statistics(
    graph: Graph | None,
    slice_bits: int = 64,
    row_sliced: SlicedMatrix | None = None,
    col_sliced: SlicedMatrix | None = None,
) -> SliceStatistics:
    """Compute the Table III / IV compression statistics for ``graph``.

    Slices both the rows of the upper-triangular adjacency matrix and its
    columns (i.e. the lower triangle's rows), mirroring what the TCIM
    controller stores.  Callers that already hold the sliced matrices
    (the accelerator builds them anyway) can pass them to skip the
    rebuild; with both passed, ``graph`` is never read and may be
    ``None``.
    """
    if graph is None and (row_sliced is None or col_sliced is None):
        raise SlicingError(
            "slice_statistics needs a graph unless both structures are passed"
        )
    if row_sliced is None:
        row_sliced = SlicedMatrix.from_graph(graph, "upper", slice_bits=slice_bits)
    if col_sliced is None:
        col_sliced = SlicedMatrix.from_graph(graph, "lower", slice_bits=slice_bits)
    return SliceStatistics(
        slice_bits=slice_bits,
        row_valid_slices=row_sliced.num_valid_slices,
        col_valid_slices=col_sliced.num_valid_slices,
        total_slice_positions=row_sliced.total_slices,
        data_bytes=row_sliced.data_bytes + col_sliced.data_bytes,
        compressed_bytes=row_sliced.compressed_bytes + col_sliced.compressed_bytes,
    )


def valid_pair_positions(
    row_ids: np.ndarray, col_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match positions of *valid slice pairs* between two sorted id arrays.

    Returns ``(row_positions, col_positions)`` such that
    ``row_ids[row_positions] == col_ids[col_positions]`` — the slice
    indices ``k`` where both ``R_i S_k`` and ``C_j S_k`` are valid.
    """
    row_positions = np.searchsorted(col_ids, row_ids)
    row_positions = np.minimum(row_positions, max(col_ids.size - 1, 0))
    if col_ids.size == 0 or row_ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    matched = col_ids[row_positions] == row_ids
    where = np.flatnonzero(matched)
    return where.astype(np.int64), row_positions[matched].astype(np.int64)


def expand_runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``[starts[i], starts[i] + counts[i])``.

    One ``arange`` plus a repeat of the per-run delta enumerates every
    run element at once.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    delta = starts.astype(np.int64, copy=False) - offsets
    return np.arange(total, dtype=np.int64) + np.repeat(delta, counts)


def _alloc(store, shape, dtype) -> np.ndarray:
    """Uninitialised array through a backing store (heap when ``store=None``)."""
    return np.empty(shape, dtype=dtype) if store is None else store.empty(shape, dtype)


def _slot_items(array: np.ndarray) -> np.ndarray:
    """``array`` (a 2-D payload) as one item per slot, so a gather or
    scatter of whole slots is one 1-D fancy index: a 2-D uint8 row
    gather is several times slower."""
    width = array.shape[1] * array.itemsize
    dtype = np.dtype(f"u{width}") if width in (1, 2, 4, 8) else np.dtype((np.void, width))
    # copy=False: a copy would silently swallow a scatter, so refuse one.
    return array.view(dtype).reshape(-1, copy=False)


def _slices_per_row(num_cols: int, slice_bits: int) -> int:
    return (num_cols + slice_bits - 1) // slice_bits


def _check_slice_bits(slice_bits: int) -> None:
    if slice_bits <= 0 or slice_bits % 8:
        raise SlicingError(
            f"slice_bits must be a positive multiple of 8, got {slice_bits}"
        )
