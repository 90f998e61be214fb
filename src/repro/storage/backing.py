"""Backing stores: where the session's large resident arrays live.

TCIM keeps the compressed slice structures and the compiled join plans
resident across queries (PAPER.md, Fig. 4).  Up to PR 7 "resident" meant
"on the Python heap", which caps the serveable graph size at host RAM.
A :class:`BackingStore` decouples *resident* from *in RAM*:

``ram``
    Plain heap allocation (``np.empty``) — the default, byte-identical
    to the historical behaviour.

``memmap``
    Any array whose payload is at or above ``spill_threshold_bytes`` is
    allocated as a writable ``np.memmap`` file under a spill directory.
    ``np.memmap`` is a genuine ``ndarray`` subclass, so every downstream
    consumer — the gather→AND→popcount engine, in-place incremental
    payload writes (``np.bitwise_or.at`` / ``np.bitwise_and.at``), plan
    gathers — works unchanged, and the kernel pages bytes in and out of
    the page cache on demand.  Arrays below the threshold (``indptr``,
    per-edge metadata, ...) stay on heap: small hot index arrays should
    not pay page faults.

Spill files are reclaimed automatically: each spilled array carries a
``weakref.finalize`` hook that unlinks its file and releases the bytes
from the store's accounting when the array is garbage collected, so the
live :attr:`BackingStore.spilled_bytes` counter tracks exactly the
backing bytes the session still references.

Structural mutations (the slice splices of :mod:`repro.core.incremental`)
shift slices in place inside a structure's buffers; an insertion that
outgrows their spare rows allocates the larger buffers through the
owning session's store, so a spilled structure stays spilled, and the
superseded file is reclaimed when the old buffer is collected.  In-place
payload mutation and shifts persist directly into the mapped file.
"""

from __future__ import annotations

import os
import weakref
from pathlib import Path

import numpy as np

from repro.errors import StorageError

__all__ = [
    "BackingStore",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
]

#: Arrays at or above this many bytes spill to disk under a ``memmap``
#: store unless the config overrides the threshold.  8 MiB keeps every
#: index/metadata array on heap while slice payloads and plan gather
#: arrays of serving-scale graphs land on disk.
DEFAULT_SPILL_THRESHOLD_BYTES = 8 * 2**20


class BackingStore:
    """Allocator for slice payloads and compiled plan arrays.

    Parameters
    ----------
    kind:
        ``"ram"`` (heap) or ``"memmap"`` (spill to disk above the
        threshold).
    directory:
        Spill directory for ``memmap`` stores; created on first use.
        Required when ``kind == "memmap"``.
    spill_threshold_bytes:
        Arrays of at least this many bytes are disk-backed.  ``None``
        selects :data:`DEFAULT_SPILL_THRESHOLD_BYTES`; ``0`` spills every
        non-empty array (useful for exactness tests).
    """

    def __init__(
        self,
        kind: str = "ram",
        directory: str | os.PathLike | None = None,
        spill_threshold_bytes: int | None = None,
    ) -> None:
        if kind not in ("ram", "memmap"):
            raise StorageError(
                f"unknown backing store kind {kind!r}; expected 'ram' or 'memmap'"
            )
        if kind == "memmap" and directory is None:
            raise StorageError("a 'memmap' backing store requires a spill directory")
        self.kind = kind
        self.directory = Path(directory) if directory is not None else None
        if spill_threshold_bytes is None:
            spill_threshold_bytes = DEFAULT_SPILL_THRESHOLD_BYTES
        self.spill_threshold_bytes = int(spill_threshold_bytes)
        if self.spill_threshold_bytes < 0:
            raise StorageError(
                f"spill_threshold_bytes must be >= 0, got {self.spill_threshold_bytes}"
            )
        self._counter = 0
        self._closed = False
        # Live spill files: path -> nbytes.  Finalizers remove entries as
        # the owning arrays are collected; close() sweeps the remainder.
        self._live: dict[Path, int] = {}

    @classmethod
    def from_config(cls, config) -> "BackingStore":
        """The store an :class:`AcceleratorConfig` asks for.

        ``config.storage_dir`` set → a ``memmap`` store spilling under
        ``<storage_dir>/spill``, else a plain ``ram`` store.
        """
        storage_dir = getattr(config, "storage_dir", None)
        threshold = getattr(config, "spill_threshold_bytes", None)
        if storage_dir:
            return cls(
                "memmap",
                directory=Path(storage_dir) / "spill",
                spill_threshold_bytes=threshold,
            )
        return cls("ram", spill_threshold_bytes=threshold)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _spills(self, nbytes: int) -> bool:
        return (
            self.kind == "memmap"
            and not self._closed
            and nbytes > 0
            and nbytes >= self.spill_threshold_bytes
        )

    def _spill_path(self) -> Path:
        assert self.directory is not None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StorageError(
                f"cannot create spill directory {self.directory}: {error}"
            ) from None
        self._counter += 1
        # pid + object id keep names unique when several sessions (or
        # processes) share one spill directory.
        return self.directory / (
            f"spill-{os.getpid()}-{id(self):x}-{self._counter}.bin"
        )

    def _release(self, path: Path, nbytes: int) -> None:
        # Finalizer: the owning array was collected — reclaim the file.
        self._live.pop(path, None)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array, disk-backed when large enough."""
        dtype = np.dtype(dtype)
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if not self._spills(nbytes):
            return np.empty(shape, dtype=dtype)
        path = self._spill_path()
        try:
            array = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
        except OSError as error:
            raise StorageError(f"cannot create spill file {path}: {error}") from None
        self._live[path] = nbytes
        weakref.finalize(array, self._release, path, nbytes)
        return array

    def adopt(self, array: np.ndarray) -> np.ndarray:
        """Move an existing array into this store's backing.

        Heap arrays above the threshold are copied into a spill file;
        everything else (small arrays, ``ram`` stores, arrays that are
        already spilled) is returned unchanged.
        """
        if isinstance(array, np.memmap) or not self._spills(array.nbytes):
            return array
        spilled = self.empty(array.shape, array.dtype)
        spilled[...] = array
        return spilled

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------

    @property
    def spilled_bytes(self) -> int:
        """Disk bytes currently backing live arrays."""
        return sum(self._live.values())

    @property
    def spilled_files(self) -> int:
        """Number of live spill files."""
        return len(self._live)

    def close(self) -> None:
        """Stop spilling; unlink every remaining spill file.

        Idempotent.  Arrays still referencing the mappings stay readable
        (POSIX keeps unlinked files alive while mapped).  Subsequent
        allocations fall back to heap.
        """
        self._closed = True
        for path in list(self._live):
            self._live.pop(path, None)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", directory={str(self.directory)!r}" if self.directory else ""
        return (
            f"BackingStore(kind={self.kind!r}{where}, "
            f"threshold={self.spill_threshold_bytes}, "
            f"spilled={self.spilled_bytes})"
        )

