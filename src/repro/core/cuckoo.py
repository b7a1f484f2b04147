"""4-bank cuckoo hash table with a 4-entry stash (§5.2 "Address Translation").

FLD virtualizes the NIC-visible descriptor rings and data windows through
translation tables implemented as cuckoo hash tables:

* 4 banks, each probed with an independent hash — a lookup is one
  parallel probe of all banks (constant time, as in hardware);
* insertion that collides in every bank evicts a victim into a 4-entry
  **stash**; the stash retries the victim into another bank, looping
  until placement succeeds;
* a full stash stalls further insertions (counted; the paper avoids the
  stall by doubling the table — load factor ½ — which our default sizing
  reproduces).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

NUM_BANKS = 4
STASH_SIZE = 4

# Odd multipliers for the per-bank multiply-shift hash family.
_BANK_SALTS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
               0x165667B19E3779F9, 0x27D4EB2F165667C5)

_SLOT_MULT = 0x2545F4914F6CDD1D
_MASK64 = 0xFFFFFFFFFFFFFFFF

class CuckooFullError(RuntimeError):
    """Raised when an insertion stalls: all banks and the stash are full."""


class CuckooHashTable:
    """A fixed-capacity hardware-style cuckoo hash.

    ``capacity`` is the number of *entries provisioned for use*; the table
    allocates ``capacity / load_factor`` slots across the banks (the paper
    doubles, i.e. load factor ½, to guarantee insertion convergence).
    """

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
        # Each live key's ``(bank, slot)``, or ``None`` while stashed.
        self._where: Dict[Hashable, Optional[Tuple[list, int]]] = {}
        self._probe = tuple(zip(self._banks, _BANK_SALTS))
        self._count = 0
        self.stats_lookups = 0
        self.stats_inserts = 0
        self.stats_kicks = 0
        self.stats_stash_peak = 0
        self.stats_stalls = 0

    # -- hashing -----------------------------------------------------------

    # A bank's slot for a key is the high bits of its mixed hash,
    # ``((hash(key) ^ salt) * _SLOT_MULT & _MASK64) * bank_size >> 64``:
    # the mixed hash's low bits depend only on the key's low bits, so
    # ``% bank_size`` at a power-of-two size would tie the banks' slots
    # together.  Only placement hashes: an insert mixes the key per bank,
    # in bank order, until a slot is free, and a stash drain does the
    # same for each stashed entry.  ``_where`` then holds
    # where each live key sits, ``(bank, slot)`` or ``None`` for the
    # stash, so a lookup or a remove touches one slot — as a hardware
    # probe reads all four banks in one cycle.  The banks and the stash
    # are the table; the index only locates entries in them.

    # -- operations --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key) is not None

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Constant-time lookup: the key's one slot, or the stash."""
        self.stats_lookups += 1
        where = self._where
        if key in where:
            at = where[key]
            if at is not None:
                return at[0][at[1]][1]
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
        # The duplicate check is a lookup (and counts as one).
        self.stats_lookups += 1
        where = self._where
        if key in where:
            raise KeyError(f"duplicate key {key!r}")
        if self._count >= self.capacity:
            self.stats_stalls += 1
            raise CuckooFullError("table at provisioned capacity")
        self.stats_inserts += 1
        hashed = hash(key)
        size = self.bank_size
        for bank, salt in self._probe:
            slot = ((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64
            if bank[slot] is None:
                # Fast path: the first empty slot in bank order.
                bank[slot] = (key, value)
                where[key] = (bank, slot)
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
        victim = bank[slot]
        self._stash.append(victim)
        where[victim[0]] = None
        bank[slot] = (key, value)
        where[key] = (bank, slot)
        self._count += 1
        self.stats_kicks += 1
        self.stats_stash_peak = max(self.stats_stash_peak, len(self._stash))
        self._drain_stash()

    def _drain_stash(self) -> None:
        """Move stash entries back into any bank slot that opened up."""
        remaining: List[Tuple[Hashable, Any]] = []
        size = self.bank_size
        where = self._where
        for item in self._stash:
            hashed = hash(item[0])
            for bank, salt in self._probe:
                slot = ((hashed ^ salt) * _SLOT_MULT & _MASK64) * size >> 64
                if bank[slot] is None:
                    bank[slot] = item
                    where[item[0]] = (bank, slot)
                    break
            else:
                remaining.append(item)
        self._stash = remaining

    def remove(self, key: Hashable) -> Any:
        where = self._where
        at = where[key]     # KeyError(key) if absent
        del where[key]
        self._count -= 1
        if at is None:
            for index, (k, v) in enumerate(self._stash):
                if k == key:
                    del self._stash[index]
                    return v
        bank, slot = at
        value = bank[slot][1]
        bank[slot] = None
        if self._stash:
            self._drain_stash()
        return value

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
