"""Read-only per-edge maps over flat edge arrays.

:meth:`repro.api.TCIMSession.support` and
:meth:`~repro.api.TCIMSession.truss` answer one integer per undirected
edge.  The session already holds those answers as arrays aligned with
its forward edges ``u < v``, so an :class:`EdgeMap` serves them as a
``{(u, v): value}`` :class:`~collections.abc.Mapping` without building a
dict: lookups binary-search a composite ``u * n + v`` key, and whole-map
reads (iteration, ``keys()``, ``values()``, ``items()``) take one
``tolist()`` pass over the arrays.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView

import numpy as np

__all__ = ["EdgeMap"]


class EdgeMap(Mapping):
    """Read-only ``{(u, v): value}`` mapping over parallel edge arrays.

    ``sources`` and ``destinations`` list the edges ``u < v`` of a graph
    on ``num_vertices`` vertices in CSR order (ascending ``(u, v)``), and
    ``per_edge`` holds one int64 value per edge.  The constructor makes
    all three arrays non-writeable in place, so a map is a snapshot: its
    owner must hand over arrays it never writes again.

    Behaves like the dict ``dict(zip(zip(sources, destinations),
    per_edge))`` for reads: the same keys (a reversed ``(v, u)`` is
    absent, numpy integers and equal numbers match), the same iteration
    order, Python ``int`` values, and ``==`` against any mapping.  It is
    immutable and unhashable; ``dict(m)`` makes a mutable copy (one
    lookup per key — ``dict(m.items())`` copies in one array pass).
    ``keys``, when the owner keeps the edges' ascending ``u * n + v``
    keys, serves the lookups (made non-writeable like the rest);
    otherwise the first lookup builds them.
    """

    __slots__ = ("sources", "destinations", "per_edge", "_num_vertices", "_keys")

    def __init__(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        per_edge: np.ndarray,
        num_vertices: int,
        keys: np.ndarray | None = None,
    ) -> None:
        arrays = [
            np.asarray(array, dtype=np.int64)
            for array in (sources, destinations, per_edge)
        ]
        if len({array.shape for array in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError(
                "sources, destinations and per_edge must be 1-d arrays of "
                "one length"
            )
        for array in arrays:
            array.flags.writeable = False
        self.sources, self.destinations, self.per_edge = arrays
        self._num_vertices = int(num_vertices)
        if keys is not None:
            keys.flags.writeable = False
        self._keys: np.ndarray | None = keys

    def __getitem__(self, key) -> int:
        hash(key)  # an unhashable key raises TypeError, as in a dict
        if isinstance(key, tuple) and len(key) == 2:
            try:
                u, v = int(key[0]), int(key[1])
            except (TypeError, ValueError, OverflowError):
                raise KeyError(key) from None
            if u == key[0] and v == key[1] and 0 <= u < v < self._num_vertices:
                keys = self._keys
                if keys is None:
                    keys = self.sources * self._num_vertices + self.destinations
                    self._keys = keys
                code = u * self._num_vertices + v
                index = int(np.searchsorted(keys, code))
                if index < keys.size and keys.item(index) == code:
                    return self.per_edge.item(index)
        raise KeyError(key)

    def __len__(self) -> int:
        return int(self.per_edge.size)

    def __iter__(self):
        return zip(self.sources.tolist(), self.destinations.tolist())

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeMap):
            return (
                np.array_equal(self.sources, other.sources)
                and np.array_equal(self.destinations, other.destinations)
                and np.array_equal(self.per_edge, other.per_edge)
            )
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        return dict(self.items()) == dict(other.items())

    __hash__ = None

    def __repr__(self) -> str:
        return f"EdgeMap({len(self)} edges)"

    def histogram(self) -> dict[int, int]:
        """``{value: edges holding it}`` in ascending value order.

        One ``np.bincount`` over :attr:`per_edge`; values are
        non-negative (supports and trussness levels).
        """
        tally = np.bincount(self.per_edge)
        present = np.flatnonzero(tally)
        return dict(zip(present.tolist(), tally[present].tolist()))


class _Values(ValuesView):
    """``EdgeMap.values()``: one ``tolist()`` pass, no per-key lookups."""

    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.per_edge.tolist())

    def __contains__(self, value) -> bool:
        return value in self._mapping.per_edge.tolist()


class _Items(ItemsView):
    """``EdgeMap.items()``: one ``tolist()`` pass, no per-key lookups."""

    __slots__ = ()

    def __iter__(self):
        return zip(iter(self._mapping), self._mapping.per_edge.tolist())
