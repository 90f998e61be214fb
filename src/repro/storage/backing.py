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

``shm``
    Arrays are allocated inside named POSIX shared-memory segments
    (:mod:`multiprocessing.shared_memory`).  Bytes written by the owner
    are the same physical pages a worker process sees after attaching
    the segment by name, so :class:`repro.core.sharding.ContextPool`
    workers read resident shard structures zero-copy: a sweep ships a
    manifest of ``(segment name, dtype, shape)`` triples instead of the
    array payloads, and in-place payload mutations in the parent are
    visible to workers with no re-ship.  The default threshold is ``0``
    — every non-empty array is shared; empty arrays stay as (free) heap
    allocations and travel inline.

Spill files and shared segments are reclaimed automatically: each
offloaded array carries a ``weakref.finalize`` hook that unlinks its
file or segment and releases the bytes from the store's accounting when
the array is garbage collected, so the live
:attr:`BackingStore.spilled_bytes` / :attr:`BackingStore.shared_bytes`
counters track exactly the backing bytes the session still references.

Structural mutations (the slice splices of :mod:`repro.core.incremental`)
allocate their output through the owning session's store, so a spilled
structure stays spilled; the superseded file is reclaimed when the old
array is collected.  In-place payload mutation persists directly into
the mapped file.
"""

from __future__ import annotations

import os
import weakref
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.errors import StorageError

__all__ = [
    "BackingStore",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
    "attach_segment",
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
        ``"ram"`` (heap), ``"memmap"`` (spill to disk above the
        threshold) or ``"shm"`` (named shared-memory segments above the
        threshold).
    directory:
        Spill directory for ``memmap`` stores; created on first use.
        Required when ``kind == "memmap"``.
    spill_threshold_bytes:
        Arrays of at least this many bytes are disk- or segment-backed.
        ``None`` selects :data:`DEFAULT_SPILL_THRESHOLD_BYTES` for
        ``memmap`` and ``0`` for ``shm``; ``0`` offloads every non-empty
        array (useful for exactness tests).
    """

    def __init__(
        self,
        kind: str = "ram",
        directory: str | os.PathLike | None = None,
        spill_threshold_bytes: int | None = None,
    ) -> None:
        if kind not in ("ram", "memmap", "shm"):
            raise StorageError(
                f"unknown backing store kind {kind!r}; "
                "expected 'ram', 'memmap' or 'shm'"
            )
        if kind == "memmap" and directory is None:
            raise StorageError("a 'memmap' backing store requires a spill directory")
        self.kind = kind
        self.directory = Path(directory) if directory is not None else None
        if spill_threshold_bytes is None:
            # shm exists to share *everything* with pool workers; memmap
            # exists to shed only the large payloads.
            spill_threshold_bytes = 0 if kind == "shm" else (
                DEFAULT_SPILL_THRESHOLD_BYTES
            )
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
        # Live (still named) shared segments: name -> (SharedMemory,
        # nbytes).  Each array's finalizer holds the same handle, so the
        # mapping lives exactly as long as the array; the finalizer
        # unlinks the name unless close() already did, then unmaps.
        self._segments: dict[str, tuple[shared_memory.SharedMemory, int]] = {}
        # Sum of the ``_segments`` byte counts, kept as one integer so
        # readers on other threads (the serving tier's ``stats`` op)
        # never iterate a dict a finalizer may be mutating.
        self._shared_bytes = 0
        # id(array) -> segment name for arrays allocated here, so
        # manifest export can name the segment an array lives in.  The
        # same finalizer that reclaims the segment removes the entry, so
        # a recycled id can never alias a dead array's segment.
        self._owners: dict[int, str] = {}

    @classmethod
    def from_config(cls, config) -> "BackingStore":
        """The store an :class:`AcceleratorConfig` asks for.

        An explicit ``config.backing`` wins; otherwise
        ``config.storage_dir`` set → a ``memmap`` store spilling under
        ``<storage_dir>/spill``, else a plain ``ram`` store.
        """
        storage_dir = getattr(config, "storage_dir", None)
        threshold = getattr(config, "spill_threshold_bytes", None)
        backing = getattr(config, "backing", None)
        if backing is None:
            backing = "memmap" if storage_dir else "ram"
        if backing == "memmap" and not storage_dir:
            raise StorageError(
                "backing='memmap' requires storage_dir for the spill files"
            )
        if backing == "memmap":
            return cls(
                "memmap",
                directory=Path(storage_dir) / "spill",
                spill_threshold_bytes=threshold,
            )
        return cls(backing, spill_threshold_bytes=threshold)

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

    def _shares(self, nbytes: int) -> bool:
        return (
            self.kind == "shm"
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

    def _release_segment(
        self, segment: shared_memory.SharedMemory, array_id: int
    ) -> None:
        # Finalizer: the owning array was collected — unlink the name
        # (unless close() already did) and only then unmap the pages.
        self._owners.pop(array_id, None)
        steps = [segment.close]
        entry = self._segments.pop(segment.name, None)
        if entry is not None:
            self._shared_bytes -= entry[1]
            steps.insert(0, segment.unlink)
        for step in steps:
            try:
                step()
            except (OSError, BufferError):
                pass

    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialised array, disk- or segment-backed when large enough."""
        dtype = np.dtype(dtype)
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if self._shares(nbytes):
            try:
                segment = shared_memory.SharedMemory(create=True, size=nbytes)
            except OSError as error:
                raise StorageError(
                    f"cannot create a {nbytes}-byte shared segment: {error}"
                ) from None
            array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            self._segments[segment.name] = (segment, nbytes)
            self._shared_bytes += nbytes
            self._owners[id(array)] = segment.name
            weakref.finalize(array, self._release_segment, segment, id(array))
            return array
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

        Heap arrays above the threshold are copied into a spill file or
        shared segment; everything else (small arrays, ``ram`` stores,
        arrays that are already offloaded here) is returned unchanged.
        """
        if self.kind == "shm":
            if id(array) in self._owners or not self._shares(array.nbytes):
                return array
            shared = self.empty(array.shape, array.dtype)
            shared[...] = array
            return shared
        if isinstance(array, np.memmap) or not self._spills(array.nbytes):
            return array
        spilled = self.empty(array.shape, array.dtype)
        spilled[...] = array
        return spilled

    def segment_of(self, array: np.ndarray) -> str | None:
        """The shared-segment name backing ``array``, if this store owns it."""
        return self._owners.get(id(array))

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

    @property
    def shared_bytes(self) -> int:
        """Bytes of the named shared segments backing live arrays.

        One integer read: safe without any lock, from any thread.
        """
        return self._shared_bytes

    @property
    def shared_segments(self) -> int:
        """Number of live, still-named shared segments."""
        return len(self._segments)

    def close(self) -> None:
        """Stop offloading; unlink every remaining spill file and segment.

        Idempotent.  Arrays still referencing the mappings stay readable
        (POSIX keeps unlinked files and segments alive while mapped):
        each shared segment is unmapped by its array's finalizer, never
        here.  Subsequent allocations fall back to heap.
        """
        self._closed = True
        for path in list(self._live):
            self._live.pop(path, None)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self._owners.clear()
        for name in list(self._segments):
            segment, nbytes = self._segments.pop(name)
            self._shared_bytes -= nbytes
            try:
                segment.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", directory={str(self.directory)!r}" if self.directory else ""
        return (
            f"BackingStore(kind={self.kind!r}{where}, "
            f"threshold={self.spill_threshold_bytes}, "
            f"spilled={self.spilled_bytes}, shared={self.shared_bytes})"
        )


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared segment by name (worker side).

    On Python < 3.13 an attach registers the segment with the
    ``resource_tracker``, which would *unlink* it when the attaching
    worker exits — destroying a segment the owner still serves from.
    Worse, forked workers share the owner's tracker process, so
    unregistering after the fact would strip the owner's own
    registration.  Newer interpreters expose ``track=False``; older
    ones get the registration suppressed for the duration of the
    attach (workers are single-threaded at dispatch time).
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(resource_name, rtype):
            if rtype != "shared_memory":
                original(resource_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original
