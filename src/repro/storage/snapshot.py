"""Versioned on-disk session snapshots: JSON manifest + raw segments.

A snapshot is a directory::

    snapshot/
      manifest.json          # format tag, version, meta, array index
      seg-<sha256[:16]>.bin  # one raw little-endian segment per array

The manifest's ``arrays`` table maps logical names (``"row.data"``,
``"plan.row_positions"``, ...) to segment records ``{file, dtype,
shape, sha256}``.  The ``meta`` object is free-form JSON owned by the
caller (:mod:`repro.api` stores the accelerator config, generation
counter, structure versions and plan versions there); this module only
guarantees the container format.

Crash consistency and integrity:

* Segments are written first; the manifest is written to a temp file
  and atomically renamed into place **last**.  A crash mid-write leaves
  either the previous complete snapshot or stray segments — never a
  manifest pointing at missing data.
* Every segment is content-hashed (SHA-256) and verified on read.  The
  hash reads the bytes a write or load already holds in memory, so no
  segment file is read twice.
  Any mismatch — truncated file, flipped bytes, hand-edited manifest —
  raises :class:`repro.errors.StorageError` instead of producing wrong
  counts.
* Segment files are named by their content hash, so identical arrays
  (e.g. shared oriented-edge endpoints) are stored once.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import StorageError

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "read_snapshot",
    "read_snapshot_meta",
    "snapshot_nbytes",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "tcim-session-snapshot"
SNAPSHOT_VERSION = 1

_MANIFEST = "manifest.json"


@dataclass
class Snapshot:
    """A parsed snapshot: caller-owned ``meta`` plus named arrays."""

    path: Path
    version: int
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all loaded segments."""
        return sum(array.nbytes for array in self.arrays.values())


def _digest(array: np.ndarray) -> str:
    """SHA-256 of a C-contiguous array's raw bytes (its segment file)."""
    return hashlib.sha256(array).hexdigest()


def _write_segment(directory: Path, array: np.ndarray) -> dict:
    """Write one array as a content-addressed raw segment."""
    contiguous = np.ascontiguousarray(array)
    sha = _digest(contiguous)
    tmp = directory / f".seg-{os.getpid()}-{id(contiguous):x}.tmp"
    try:
        contiguous.tofile(tmp)
        final = directory / f"seg-{sha[:16]}.bin"
        if final.exists():
            tmp.unlink()  # identical content already stored
        else:
            os.replace(tmp, final)
    except OSError as error:
        tmp.unlink(missing_ok=True)
        raise StorageError(f"cannot write snapshot segment under {directory}: {error}") from None
    return {
        "file": final.name,
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "sha256": sha,
    }


def write_snapshot(path: str | os.PathLike, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Persist ``meta`` + ``arrays`` as a snapshot directory at ``path``.

    Overwrites an existing snapshot in place (new segments land first,
    then the manifest flips atomically; superseded segments are swept
    afterwards).  Returns the snapshot directory.
    """
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise StorageError(f"cannot create snapshot directory {directory}: {error}") from None
    records = {name: _write_segment(directory, array) for name, array in arrays.items()}
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "meta": meta,
        "arrays": records,
    }
    tmp = directory / f".{_MANIFEST}.{os.getpid()}.tmp"
    try:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, directory / _MANIFEST)
    except (OSError, TypeError) as error:
        tmp.unlink(missing_ok=True)
        raise StorageError(f"cannot write snapshot manifest in {directory}: {error}") from None
    # Sweep segments no longer referenced (left over from a previous
    # snapshot at the same path, or from an interrupted writer).
    referenced = {record["file"] for record in records.values()}
    for stray in directory.glob("seg-*.bin"):
        if stray.name not in referenced:
            stray.unlink(missing_ok=True)
    for stray in directory.glob(".seg-*.tmp"):
        stray.unlink(missing_ok=True)
    return directory


def _load_manifest(directory: Path) -> dict:
    manifest_path = directory / _MANIFEST
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        raise StorageError(f"cannot read snapshot manifest {manifest_path}: {error}") from None
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(
            f"snapshot manifest {manifest_path} is not valid JSON "
            f"(truncated or corrupted?): {error}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(
            f"{manifest_path} is not a TCIM session snapshot "
            f"(format tag {manifest.get('format')!r})"
            if isinstance(manifest, dict)
            else f"{manifest_path} is not a TCIM session snapshot"
        )
    version = manifest.get("version")
    if version != SNAPSHOT_VERSION:
        raise StorageError(
            f"snapshot {directory} has unsupported version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if not isinstance(manifest.get("meta"), dict) or not isinstance(
        manifest.get("arrays"), dict
    ):
        raise StorageError(f"snapshot manifest {manifest_path} is missing meta/arrays")
    return manifest


def _load_segment(directory: Path, name: str, record: dict, *, verify: bool, store=None) -> np.ndarray:
    for key in ("file", "dtype", "shape", "sha256"):
        if key not in record:
            raise StorageError(
                f"snapshot segment {name!r} in {directory} is missing field {key!r}"
            )
    segment = directory / str(record["file"])
    try:
        dtype = np.dtype(record["dtype"])
        shape = tuple(int(dim) for dim in record["shape"])
    except (TypeError, ValueError) as error:
        raise StorageError(
            f"snapshot segment {name!r} in {directory} has a malformed record: {error}"
        ) from None
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    try:
        actual = segment.stat().st_size
    except OSError:
        raise StorageError(f"snapshot segment {segment} is missing") from None
    if actual != expected:
        raise StorageError(
            f"snapshot segment {segment} is truncated: expected {expected} bytes, "
            f"found {actual}"
        )
    try:
        if (
            store is not None
            and store.kind == "memmap"
            and expected > 0
            and store._spills(expected)
        ):
            # Hydrate straight into the store's backing without a second
            # heap-resident copy of the payload.
            array = store.empty(shape, dtype)
            with open(segment, "rb") as handle:
                array[...] = np.fromfile(handle, dtype=dtype).reshape(shape)
        else:
            array = np.fromfile(segment, dtype=dtype).reshape(shape)
    except (OSError, ValueError) as error:
        raise StorageError(f"cannot load snapshot segment {segment}: {error}") from None
    if verify and _digest(array) != record["sha256"]:
        raise StorageError(
            f"snapshot segment {segment} failed its content hash check "
            f"(corrupted on disk?)"
        )
    return array


def read_snapshot(path: str | os.PathLike, *, verify: bool = True, store=None) -> Snapshot:
    """Load a snapshot directory written by :func:`write_snapshot`.

    ``verify=True`` (the default) hashes every segment as it loads;
    disable only for trusted same-process round-trips.  When ``store`` is a
    ``memmap`` :class:`~repro.storage.backing.BackingStore`, segments
    above its spill threshold hydrate directly into spill-backed arrays.
    """
    directory = Path(path)
    manifest = _load_manifest(directory)
    arrays = {
        name: _load_segment(directory, name, record, verify=verify, store=store)
        for name, record in manifest["arrays"].items()
    }
    return Snapshot(
        path=directory, version=manifest["version"], meta=manifest["meta"], arrays=arrays
    )


def read_snapshot_meta(path: str | os.PathLike) -> dict:
    """The caller-owned ``meta`` object of a snapshot, segments unread.

    Cheap (one JSON parse): lets a caller decide how to hydrate — e.g.
    which backing store the snapshot's config asks for — before paying
    for segment loads.
    """
    return _load_manifest(Path(path))["meta"]


def snapshot_nbytes(path: str | os.PathLike) -> int:
    """Total segment payload bytes of a snapshot, from its manifest."""
    manifest = _load_manifest(Path(path))
    total = 0
    for name, record in manifest["arrays"].items():
        try:
            dtype = np.dtype(record["dtype"])
            shape = tuple(int(dim) for dim in record["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(
                f"snapshot segment {name!r} in {path} has a malformed record: {error}"
            ) from None
        total += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return total
