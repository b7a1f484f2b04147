"""The cuckoo table as it probed before it kept an index, kept as the
reference.

This is ``repro.core.cuckoo.CuckooHashTable`` before it learned where
each key sits: every insert, lookup and remove hashes the key and mixes
it per bank, a lookup and a remove probe every bank and then the stash,
and an insert computes all four bank slots to find the first free one
and check for a duplicate.  It is slow and it is the reference:
``test_cuckoo_machine.py`` holds the indexed table to it operation by
operation — return values, exceptions, counters, bank contents and
stash order.  The hash family and sizes are data, not wording, so they
are shared with the table.
"""

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.core.cuckoo import (
    _BANK_SALTS,
    _MASK64,
    _SLOT_MULT,
    NUM_BANKS,
    STASH_SIZE,
    CuckooFullError,
)


class OracleCuckooTable:
    """The probing cuckoo table: same constructor, same operations."""

    def __init__(self, capacity: int, load_factor: float = 0.5,
                 entry_size: int = 8):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < load_factor <= 1:
            raise ValueError("load factor must be in (0, 1]")
        self.capacity = capacity
        self.load_factor = load_factor
        self.entry_size = entry_size
        total_slots = int(capacity / load_factor)
        self.bank_size = max(1, -(-total_slots // NUM_BANKS))
        self._banks: List[List[Optional[Tuple[Hashable, Any]]]] = [
            [None] * self.bank_size for _ in range(NUM_BANKS)
        ]
        self._stash: List[Tuple[Hashable, Any]] = []
        self._count = 0
        self.stats_lookups = 0
        self.stats_inserts = 0
        self.stats_kicks = 0
        self.stats_stash_peak = 0
        self.stats_stalls = 0

    # -- hashing -----------------------------------------------------------

    # A bank's slot for a key is ``((hash(key) ^ salt) * _SLOT_MULT &
    # _MASK64) * bank_size >> 64``.  Every operation hashes the key once
    # and mixes it per bank inline — a hardware probe reads all four
    # banks in one cycle; one Python frame per bank is pure model cost.

    # -- operations --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key) is not None

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Constant-time lookup: probe all banks + the stash."""
        self.stats_lookups += 1
        hashed = hash(key)
        size = self.bank_size
        for bank, salt in zip(self._banks, _BANK_SALTS):
            entry = bank[((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64]
            if entry is not None and entry[0] == key:
                return entry[1]
        for k, v in self._stash:
            if k == key:
                return v
        return None

    def lookup_many(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        """Batch lookup: exactly ``[self.lookup(k) for k in keys]``."""
        return [self.lookup(key) for key in keys]

    def insert(self, key: Hashable, value: Any) -> None:
        """Insert; raises :class:`CuckooFullError` on a stash stall.

        A colliding insertion evicts a victim *into the stash* — the
        stash is part of the table's storage, so nothing is ever lost —
        and the stash drains back into banks as slots free up (§5.2).
        A stall (all banks colliding while the stash is full) raises,
        leaving the table unchanged; the caller retries after a release.
        """
        # The duplicate check is a lookup (and counts as one); it shares
        # the probe with the search for an empty slot.
        self.stats_lookups += 1
        hashed = hash(key)
        size = self.bank_size
        free = None
        for bank, salt in zip(self._banks, _BANK_SALTS):
            slot = ((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64
            entry = bank[slot]
            if entry is None:
                if free is None:
                    free = (bank, slot)
            elif entry[0] == key:
                raise KeyError(f"duplicate key {key!r}")
        for k, _v in self._stash:
            if k == key:
                raise KeyError(f"duplicate key {key!r}")
        if self._count >= self.capacity:
            self.stats_stalls += 1
            raise CuckooFullError("table at provisioned capacity")
        self.stats_inserts += 1
        item: Tuple[Hashable, Any] = (key, value)
        if free is not None:
            # Fast path: an empty slot in some bank (the first, in bank
            # order).
            free[0][free[1]] = item
            self._count += 1
            if self._stash:
                self._drain_stash()
            return
        # All banks collide: evict a rotating victim into the stash and
        # take its slot.
        if len(self._stash) >= STASH_SIZE:
            self.stats_stalls += 1
            raise CuckooFullError("stash full; insertion stalled")
        index = self.stats_kicks % NUM_BANKS
        bank = self._banks[index]
        slot = ((hashed ^ _BANK_SALTS[index]) * _SLOT_MULT
                & _MASK64) * size >> 64
        self._stash.append(bank[slot])
        bank[slot] = item
        self._count += 1
        self.stats_kicks += 1
        self.stats_stash_peak = max(self.stats_stash_peak, len(self._stash))
        self._drain_stash()

    def _drain_stash(self) -> None:
        """Move stash entries back into any bank slot that opened up."""
        remaining: List[Tuple[Hashable, Any]] = []
        size = self.bank_size
        for item in self._stash:
            hashed = hash(item[0])
            for bank, salt in zip(self._banks, _BANK_SALTS):
                slot = ((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64
                if bank[slot] is None:
                    bank[slot] = item
                    break
            else:
                remaining.append(item)
        self._stash = remaining

    def remove(self, key: Hashable) -> Any:
        hashed = hash(key)
        size = self.bank_size
        for bank, salt in zip(self._banks, _BANK_SALTS):
            slot = ((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64
            entry = bank[slot]
            if entry is not None and entry[0] == key:
                bank[slot] = None
                self._count -= 1
                if self._stash:
                    self._drain_stash()
                return entry[1]
        for index, (k, v) in enumerate(self._stash):
            if k == key:
                del self._stash[index]
                self._count -= 1
                return v
        raise KeyError(key)

    # -- accounting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        """One flat snapshot of the table's counters (telemetry probe)."""
        return {
            "entries": self._count,
            "lookups": self.stats_lookups,
            "inserts": self.stats_inserts,
            "kicks": self.stats_kicks,
            "stash_depth": len(self._stash),
            "stash_peak": self.stats_stash_peak,
            "stalls": self.stats_stalls,
        }

    @property
    def memory_bytes(self) -> int:
        """On-die SRAM for the banks + stash."""
        return (NUM_BANKS * self.bank_size + STASH_SIZE) * self.entry_size

    @property
    def occupancy(self) -> float:
        return self._count / (NUM_BANKS * self.bank_size)
