"""Out-of-core storage tier: disk-backed arrays and session snapshots.

The package sits *beneath* the session and serving layers:

* :mod:`repro.storage.backing` — :class:`BackingStore`, the allocator
  through which slice payloads and compiled join-plan arrays are
  obtained.  A ``memmap`` store spills any array at or above its
  ``spill_threshold_bytes`` to a writable ``np.memmap`` under a spill
  directory, so resident structures can exceed the heap budget.
* :mod:`repro.storage.snapshot` — a versioned on-disk snapshot format
  (JSON manifest + content-hashed raw array segments) used by
  :meth:`repro.api.TCIMSession.snapshot`, ``open_session(snapshot=...)``
  and the session pool's eviction write-back.

Nothing in here imports :mod:`repro.api`; the facade calls down into
this package, never the other way around.
"""

from repro.storage.backing import (
    DEFAULT_SPILL_THRESHOLD_BYTES,
    BackingStore,
)
from repro.storage.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Snapshot,
    read_snapshot,
    read_snapshot_meta,
    snapshot_nbytes,
    write_snapshot,
)

__all__ = [
    "BackingStore",
    "DEFAULT_SPILL_THRESHOLD_BYTES",
    "Snapshot",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "read_snapshot",
    "read_snapshot_meta",
    "snapshot_nbytes",
    "write_snapshot",
]
