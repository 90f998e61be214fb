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
vectorised so million-edge graphs compress in well under a second.  Its
valid-slice arrays are leading views of buffers that may hold spare
rows, so the streaming splices (:meth:`SlicedMatrix.insert_slices`,
:meth:`SlicedMatrix.remove_slices`) shift slices in place instead of
copying both arrays into new allocations.

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
    "SPARE_ROOM_DIVISOR",
]

#: Bytes used to store each valid-slice index in the compressed format
#: ("we use an integer (four Bytes) to store each valid slice index").
INDEX_BYTES = 4

#: An insert that outgrows a structure's buffers reallocates them with
#: ``n + k + max(k, n // SPARE_ROOM_DIVISOR)`` rows (``n`` slices stored,
#: ``k`` inserted), so the following inserts shift in place.
SPARE_ROOM_DIVISOR = 16

_ORIENTATIONS = ("symmetric", "upper", "lower")


class SlicedMatrix:
    """Valid slices of a 0/1 matrix, stored row-major in CSR-of-slices form.

    Attributes
    ----------
    slice_bits:
        ``|S|`` — bits per slice.  Must be a positive multiple of 8.
    indptr:
        ``(num_rows + 1,)`` — CSR offsets into the valid-slice arrays.
    slice_ids:
        ``(N_VS,)`` — for each valid slice, its slice index ``k`` within
        the row (``0 <= k < slices_per_row``), ascending within a row.
    data:
        ``(N_VS, slice_bits // 8)`` uint8 — packed payload, little-endian
        bit order (bit ``t`` of slice ``k`` is column ``k * |S| + t``).

    ``slice_ids`` and ``data`` are the leading ``N_VS`` rows of
    :attr:`buffers`, which may hold spare rows for later inserts.  A
    splice moves bytes inside those buffers, so an array taken from a
    structure before a splice may change under its holder.
    """

    __slots__ = (
        "num_rows",
        "num_cols",
        "slice_bits",
        "indptr",
        "slice_ids",
        "data",
        "structure_version",
        "_ids_buffer",
        "_data_buffer",
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
        # A built or hydrated structure has no spare rows; the first
        # insert that needs room allocates it.
        self._ids_buffer = slice_ids
        self._data_buffer = data
        #: Monotone counter of *structural* changes: bumped whenever the
        #: set of valid slices changes (a slice inserted or dropped), so
        #: positions into :attr:`slice_ids`/:attr:`data` from before the
        #: bump are invalid.  Payload-only mutation (setting/clearing
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
        where the slice payload lives: a ``memmap`` store spills the
        ``data`` array to disk once it crosses the spill threshold.  The
        small index arrays (``indptr``, ``slice_ids``) stay on heap —
        they are hot and tiny relative to the payload.
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
    @property
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays behind :attr:`slice_ids` and :attr:`data`, spare
        rows included — what the structure keeps resident."""
        return self._ids_buffer, self._data_buffer

    def insert_slices(
        self,
        before: np.ndarray,
        rows: np.ndarray,
        slice_ids: np.ndarray,
        payloads: np.ndarray,
        store=None,
    ) -> None:
        """Splice new valid slices in, shifting the stored ones in place.

        ``before`` holds sorted insertion points in pre-insert
        coordinates (the ``obj`` of :func:`np.insert`; repeats land
        several slices at one point), aligned with each new slice's
        owning ``rows``, ``slice_ids`` and ``payloads``.  The stored runs
        between insertion points move right, back to front, inside the
        buffers when their spare rows suffice.  Otherwise both larger
        buffers are allocated through ``store`` (a
        :class:`repro.storage.backing.BackingStore`, so a spilled
        structure stays spilled; ``None`` allocates on the heap) before
        any byte moves, so a failed allocation leaves the structure as
        it was.
        """
        added = int(before.size)
        if not added:
            return
        size = self.num_valid_slices
        ids_buffer, data_buffer = self._ids_buffer, self._data_buffer
        grow = ids_buffer.shape[0] < size + added
        if grow:
            capacity = size + added + max(added, size // SPARE_ROOM_DIVISOR)
            new_ids = _alloc(store, capacity, ids_buffer.dtype)
            new_data = _alloc(store, (capacity, data_buffer.shape[1]), data_buffer.dtype)
        else:
            new_ids, new_data = ids_buffer, data_buffer
        # Run j, the stored rows [before[j-1], before[j]), moves right by
        # j; back to front, an in-place move never overwrites a run that
        # has yet to move.
        bounds = [0, *before.tolist(), size]
        moves = [
            (_word_rows(source), _word_rows(target))
            for source, target in ((ids_buffer, new_ids), (data_buffer, new_data))
        ]
        for shift in range(added, -1 if grow else 0, -1):
            lo, hi = bounds[shift], bounds[shift + 1]
            if hi > lo:
                for (source, width), (target, _) in moves:
                    target[(lo + shift) * width: (hi + shift) * width] = (
                        source[lo * width: hi * width]
                    )
        landed = before + np.arange(added)
        new_ids[landed] = slice_ids
        new_data[landed] = payloads
        self._ids_buffer, self._data_buffer = new_ids, new_data
        self.slice_ids = new_ids[: size + added]
        self.data = new_data[: size + added]
        self.indptr[1:] += np.cumsum(np.bincount(rows, minlength=self.num_rows))
        self.mark_structure_changed()

    def remove_slices(self, positions: np.ndarray, rows: np.ndarray) -> None:
        """Drop the valid slices at sorted, unique ``positions``.

        ``rows`` are their owning rows.  The kept runs between removed
        slices shift left in place, front to back; nothing is allocated,
        and the freed rows stay in the buffers as room for later inserts.
        """
        removed = int(positions.size)
        if not removed:
            return
        size = self.num_valid_slices
        starts = (positions + 1).tolist()
        stops = [*positions[1:].tolist(), size]
        moves = [_word_rows(self._ids_buffer), _word_rows(self._data_buffer)]
        # Run j, the kept rows after the j-th removed slice, moves left by j.
        for shift, (lo, hi) in enumerate(zip(starts, stops), start=1):
            if hi > lo:
                for words, width in moves:
                    words[(lo - shift) * width: (hi - shift) * width] = (
                        words[lo * width: hi * width]
                    )
        self.slice_ids = self._ids_buffer[: size - removed]
        self.data = self._data_buffer[: size - removed]
        self.indptr[1:] -= np.cumsum(np.bincount(rows, minlength=self.num_rows))
        self.mark_structure_changed()

    # ------------------------------------------------------------------
    # Size / statistics (Table III & IV quantities)
    # ------------------------------------------------------------------
    @property
    def num_valid_slices(self) -> int:
        """``N_VS`` — total number of valid slices."""
        return int(self.data.shape[0])

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
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        ids = self.slice_ids[lo:hi]
        payload = self.data[lo:hi]
        ids.flags.writeable = False
        payload.flags.writeable = False
        return ids, payload

    def owner_rows(self) -> np.ndarray:
        """Owning row of every valid slice, aligned with :attr:`slice_ids`.

        Batch accessor for the vectorized engine: together with
        :attr:`slice_ids` it identifies each valid slice globally without
        per-row Python calls.
        """
        return np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
        )

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every set bit, in row-major order.

        The inverse of :meth:`from_nonzeros`.  Only bytes holding a set
        bit are unpacked, so the cost follows the non-zero count rather
        than ``N_VS x |S|``.
        """
        slot, cols = self.decode(self.slice_ids, self.data)
        return self.owner_rows()[slot], cols

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
        joins key just the rows they touch.
        """
        return self.owner_rows() * np.int64(self.slices_per_row) + self.slice_ids

    def row_slice_ranges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the valid-slice runs of many rows at once."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise SlicingError(f"row index out of range [0, {self.num_rows})")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        return starts, counts

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
        end = self.indptr[rows + 1]
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
        return np.diff(self.indptr)

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
    a lower one, relative to ``sym.indptr``, so a splice moves only the
    windows of the rows it touches (:meth:`refresh`).  The window reads
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
            return np.diff(self.sym.indptr) - self.offsets
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


def _word_rows(buffer: np.ndarray) -> tuple[np.ndarray, int]:
    """``(words, width)``: a flat view of ``buffer`` in the widest
    unsigned word that divides its rows, and the words per row.

    NumPy's overlapping rightward copies are several times slower on
    byte items than on 64-bit words, so splices shift through this view.
    """
    row_bytes = buffer.itemsize * (buffer.shape[1] if buffer.ndim == 2 else 1)
    word = next(size for size in (8, 4, 2, 1) if row_bytes % size == 0)
    # copy=False: a copy would silently swallow the shift, so refuse one.
    flat = buffer.reshape(-1, copy=False)
    return flat.view(np.dtype(f"u{word}")), row_bytes // word


def _slices_per_row(num_cols: int, slice_bits: int) -> int:
    return (num_cols + slice_bits - 1) // slice_bits


def _check_slice_bits(slice_bits: int) -> None:
    if slice_bits <= 0 or slice_bits % 8:
        raise SlicingError(
            f"slice_bits must be a positive multiple of 8, got {slice_bits}"
        )
