"""Program maps: 64-bit key/value state backed by the cuckoo tables.

A :class:`ProgMap` is a firmware object (kind ``"map"`` in the
``ObjectTable``) shared between the control plane — which populates it
through the ``map_set``/``map_del`` verbs — and attached
programs, which read and write it per packet.  The storage is the same
:class:`~repro.core.cuckoo.CuckooHashTable` the steering engine uses,
so the capacity/occupancy behaviour the NIC model exhibits for flow
rules applies to program state as well.

Two update surfaces with different failure semantics:

* :meth:`set` — the control path.  A full table raises
  :class:`~repro.core.cuckoo.CuckooFullError`, which the firmware maps
  to ``CmdStatus.NO_RESOURCES``.
* :meth:`try_set` — the datapath.  A full table drops the update and
  returns ``False``; the interpreter counts it and carries on (the
  datapath never faults).
"""

from __future__ import annotations

from typing import Optional

from ..core.cuckoo import CuckooFullError, CuckooHashTable

__all__ = ["ProgMap"]

_M64 = 0xFFFFFFFFFFFFFFFF


class ProgMap:
    """A 64-bit → 64-bit key/value map for datapath programs."""

    def __init__(self, capacity: int = 64):
        if not isinstance(capacity, int) or capacity <= 0:
            raise ValueError(f"map capacity must be positive, got "
                             f"{capacity!r}")
        self.capacity = capacity
        self._table = CuckooHashTable(capacity)
        self.stats_sets = 0
        self.stats_deletes = 0
        self.stats_lookups = 0
        self.stats_hits = 0
        self.stats_full_drops = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: int) -> Optional[int]:
        self.stats_lookups += 1
        value = self._table.lookup(key & _M64)
        if value is not None:
            self.stats_hits += 1
        return value

    def set(self, key: int, value: int):
        """Insert or replace; raises ``CuckooFullError`` at capacity."""
        key &= _M64
        value &= _M64
        old = self._table.lookup(key)
        if old is not None:
            self._table.remove(key)
        try:
            self._table.insert(key, value)
        except CuckooFullError:
            if old is not None:
                # The slot we just vacated is free again; restore it so
                # a failed replace never loses the previous value.
                self._table.insert(key, old)
            self.stats_full_drops += 1
            raise
        self.stats_sets += 1

    def try_set(self, key: int, value: int) -> bool:
        """Datapath insert-or-replace; ``False`` (never raises) when full."""
        try:
            self.set(key, value)
        except CuckooFullError:
            return False
        return True

    def delete(self, key: int) -> bool:
        try:
            self._table.remove(key & _M64)
        except KeyError:
            return False
        self.stats_deletes += 1
        return True

    def stats_dict(self) -> dict:
        stats = {"capacity": self.capacity, "entries": len(self._table),
                 "sets": self.stats_sets, "deletes": self.stats_deletes,
                 "lookups": self.stats_lookups, "hits": self.stats_hits,
                 "full_drops": self.stats_full_drops}
        stats.update({f"table_{k}": v
                      for k, v in self._table.stats_dict().items()})
        return stats
