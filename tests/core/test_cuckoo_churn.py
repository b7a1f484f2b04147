"""Cuckoo-table churn: long interleaved insert/evict/delete histories.

The basic tests (``test_cuckoo.py``) pin single operations; these runs
grind the table through thousands of interleaved mutations — including
capacity pressure, stash traffic and insert-after-stall recovery — and
check it against a plain-dict model the whole way.  The program-map
subsystem (``repro.prog.maps``) leans on exactly these behaviours for
per-packet datapath state, so regressions here surface as silent map
corruption there.
"""

import random

import pytest

from repro.core.cuckoo import CuckooFullError, CuckooHashTable


def churn(table, model, rng, steps, key_space):
    """One random mutation step; keeps ``model`` (a dict) in lockstep."""
    for _ in range(steps):
        key = rng.randrange(key_space)
        op = rng.random()
        if op < 0.55:                          # insert (or dup attempt)
            value = rng.randrange(1 << 32)
            if key in model:
                with pytest.raises(KeyError):
                    table.insert(key, value)
            else:
                try:
                    table.insert(key, value)
                except CuckooFullError:
                    assert key not in table
                    continue
                model[key] = value
        elif op < 0.85:                        # delete
            if key in model:
                assert table.remove(key) == model.pop(key)
            else:
                with pytest.raises(KeyError):
                    table.remove(key)
        else:                                  # lookup
            assert table.lookup(key) == model.get(key)


class TestChurnAgainstModel:
    def test_long_random_history_matches_dict(self):
        rng = random.Random(0xF1D)
        table = CuckooHashTable(256)
        model = {}
        churn(table, model, rng, steps=6000, key_space=512)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.lookup(key) == value

    def test_churn_under_capacity_pressure(self):
        """A small table driven at ~full occupancy stays consistent:
        inserts may stall, but nothing stored is ever lost or mangled."""
        rng = random.Random(7)
        table = CuckooHashTable(32)
        model = {}
        churn(table, model, rng, steps=4000, key_space=64)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.lookup(key) == value
        stats = table.stats_dict()
        assert stats["entries"] == len(model)

    def test_insert_evict_delete_interleaving_reuses_slots(self):
        """Fill to capacity, delete half, refill: the vacated slots are
        reusable and the survivors are untouched."""
        table = CuckooHashTable(64)
        inserted = []
        for key in range(1000):
            try:
                table.insert(key, key * 3)
            except CuckooFullError:
                break
            inserted.append(key)
        assert len(inserted) >= 32          # at least the provisioned cap
        evens = [k for k in inserted if k % 2 == 0]
        odds = [k for k in inserted if k % 2 == 1]
        for key in evens:
            assert table.remove(key) == key * 3
        for key in odds:
            assert table.lookup(key) == key * 3
        refilled = 0
        for key in range(2000, 4000):
            try:
                table.insert(key, key)
            except CuckooFullError:
                break
            refilled += 1
        assert refilled >= len(evens)       # freed capacity is usable
        for key in odds:
            assert table.lookup(key) == key * 3

    def test_stall_recovery_after_deletes(self):
        """After an insertion stalls, deleting entries makes the very
        same key insertable again (no permanently poisoned keys)."""
        table = CuckooHashTable(16)
        keys = iter(range(100_000))
        stored = []
        stalled_key = None
        while stalled_key is None:
            key = next(keys)
            try:
                table.insert(key, key)
                stored.append(key)
            except CuckooFullError:
                stalled_key = key
        for key in stored[: len(stored) // 2]:
            table.remove(key)
        table.insert(stalled_key, stalled_key)
        assert table.lookup(stalled_key) == stalled_key

    def test_churn_stats_are_consistent(self):
        rng = random.Random(99)
        table = CuckooHashTable(128)
        model = {}
        churn(table, model, rng, steps=3000, key_space=256)
        stats = table.stats_dict()
        assert stats["entries"] == len(model)
        assert stats["inserts"] >= len(model)
        assert stats["lookups"] > 0
        assert stats["stash_depth"] <= stats["stash_peak"]


class TestBatchLookupUnderChurn:
    """``lookup_many`` in lockstep with the dict model while the table
    churns — misses, stash traffic and capacity pressure included."""

    def _churn_with_batch_probes(self, table, key_fn, capacity_pressure):
        rng = random.Random(0xBA7C4 + table.capacity)
        key_space = table.capacity * (1 if capacity_pressure else 2)
        model = {}
        for step in range(2500):
            key = key_fn(rng.randrange(key_space))
            op = rng.random()
            if op < 0.55:
                value = rng.randrange(1 << 32)
                if key not in model:
                    try:
                        table.insert(key, value)
                    except CuckooFullError:
                        continue
                    model[key] = value
            elif op < 0.85:
                if key in model:
                    assert table.remove(key) == model.pop(key)
            if step % 50 == 0:
                # A probe batch mixing hits and guaranteed misses.
                probes = [key_fn(rng.randrange(key_space * 2))
                          for _ in range(32)]
                assert table.lookup_many(probes) \
                    == [model.get(k) for k in probes]
        assert table.lookup_many(list(model)) == list(model.values())

    def test_int_keys_lockstep(self):
        self._churn_with_batch_probes(CuckooHashTable(256), int,
                                      capacity_pressure=False)

    def test_int_keys_lockstep_under_capacity_pressure(self):
        self._churn_with_batch_probes(CuckooHashTable(32), int,
                                      capacity_pressure=True)

    def test_tuple_keys_lockstep(self):
        """(queue, index) tuples — the translation-table key shape."""
        self._churn_with_batch_probes(
            CuckooHashTable(256), lambda n: (n % 7, n // 7),
            capacity_pressure=False)

    def test_tuple_keys_lockstep_under_capacity_pressure(self):
        self._churn_with_batch_probes(
            CuckooHashTable(32), lambda n: (n % 5, n // 5),
            capacity_pressure=True)

    def test_lookup_many_counts_one_lookup_per_key(self):
        """N batch probes bump ``stats_lookups`` by exactly N."""
        table = CuckooHashTable(64)
        for i in range(20):
            table.insert(i, i)
        before = table.stats_lookups
        table.lookup_many(list(range(40)))
        assert table.stats_lookups == before + 40
        assert table.lookup_many([]) == []
        assert table.stats_lookups == before + 40

    def test_batch_probes_through_a_stall(self):
        """Fill a tiny table until insertion stalls; batch lookups still
        agree with the model, including entries living in the stash."""
        table = CuckooHashTable(16)
        model = {}
        for key in range(100_000):
            try:
                table.insert(key, key * 2)
            except CuckooFullError:
                break
            model[key] = key * 2
        assert table.stats_stalls >= 1
        probes = list(range(0, 2 * len(model)))
        assert table.lookup_many(probes) == [model.get(k) for k in probes]
