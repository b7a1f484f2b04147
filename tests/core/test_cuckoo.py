"""Unit tests for the 4-bank cuckoo hash table."""

import pytest

from repro.core import CuckooFullError, CuckooHashTable, NUM_BANKS, STASH_SIZE


class TestBasicOperations:
    def test_insert_lookup(self):
        table = CuckooHashTable(capacity=64)
        table.insert(("q", 1), 100)
        assert table.lookup(("q", 1)) == 100

    def test_lookup_missing_returns_none(self):
        table = CuckooHashTable(capacity=64)
        assert table.lookup("missing") is None

    def test_remove(self):
        table = CuckooHashTable(capacity=64)
        table.insert("k", 1)
        assert table.remove("k") == 1
        assert table.lookup("k") is None
        assert len(table) == 0

    def test_remove_missing_raises(self):
        table = CuckooHashTable(capacity=64)
        with pytest.raises(KeyError):
            table.remove("nope")

    def test_duplicate_insert_rejected(self):
        table = CuckooHashTable(capacity=64)
        table.insert("k", 1)
        with pytest.raises(KeyError):
            table.insert("k", 2)

    def test_contains(self):
        table = CuckooHashTable(capacity=64)
        table.insert("k", 1)
        assert "k" in table
        assert "other" not in table

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CuckooHashTable(capacity=0)

    def test_invalid_load_factor(self):
        with pytest.raises(ValueError):
            CuckooHashTable(capacity=4, load_factor=1.5)


class TestCapacityBehaviour:
    def test_fills_to_capacity_at_half_load(self):
        """Load factor 1/2 (the paper's choice) must never stall."""
        table = CuckooHashTable(capacity=1024, load_factor=0.5)
        for i in range(1024):
            table.insert(("queue", i), i)
        assert len(table) == 1024
        for i in range(1024):
            assert table.lookup(("queue", i)) == i

    def test_over_capacity_stalls(self):
        table = CuckooHashTable(capacity=16, load_factor=0.5)
        for i in range(16):
            table.insert(i, i)
        with pytest.raises(CuckooFullError):
            table.insert(1000, 0)
        assert table.stats_stalls == 1

    def test_churn_insert_remove(self):
        """Sustained insert/remove cycles converge (the FLD tx pattern)."""
        table = CuckooHashTable(capacity=256, load_factor=0.5)
        for round_no in range(20):
            for i in range(256):
                table.insert((round_no, i), i)
            for i in range(256):
                assert table.remove((round_no, i)) == i
        assert len(table) == 0

    def test_memory_accounting_doubles_for_load_factor(self):
        table = CuckooHashTable(capacity=1024, load_factor=0.5, entry_size=4)
        slots = NUM_BANKS * table.bank_size
        assert slots >= 2048
        assert table.memory_bytes == (slots + STASH_SIZE) * 4

    def test_occupancy_reporting(self):
        table = CuckooHashTable(capacity=64, load_factor=0.5)
        for i in range(32):
            table.insert(i, i)
        assert 0 < table.occupancy <= 0.5


class TestBankIndependence:
    def test_a_power_of_two_bank_size_spreads_keys_of_one_low_bit_class(self):
        # A slot is the high bits of the key's mixed hash.  Taken modulo
        # a power-of-two bank size it was the low bits, which depend only
        # on the key's low bits: at bank size 4 every multiple of 4 had
        # the slots (1, 3, 1, 1), so the ninth of them stalled a
        # 16-entry table on its full stash.
        table = CuckooHashTable(capacity=16, load_factor=1.0)
        assert table.bank_size == 4
        for key in range(0, 64, 4):
            table.insert(key, key)
        assert len(table) == 16 and table.stats_stalls == 0
        assert table.stats_kicks <= 1


class TestStash:
    def test_stash_peak_recorded_under_pressure(self):
        """At high load factors collisions spill to the stash."""
        table = CuckooHashTable(capacity=256, load_factor=0.95)
        inserted = 0
        try:
            for i in range(256):
                table.insert(("x", i), i)
                inserted += 1
        except CuckooFullError:
            pass
        # Either everything fit or the stash saw traffic on the way.
        assert inserted == 256 or table.stats_stash_peak > 0

    def test_kicks_counted(self):
        table = CuckooHashTable(capacity=512, load_factor=0.9)
        try:
            for i in range(512):
                table.insert(("k", i), i)
        except CuckooFullError:
            pass
        # With 4 banks at 90% provisioning some displacement is expected.
        assert table.stats_kicks >= 0  # smoke: counter exists and is sane

    def test_lookup_finds_stashed_entries(self):
        """Entries mid-eviction (in the stash) must remain visible."""
        table = CuckooHashTable(capacity=128, load_factor=0.99)
        keys = [("s", i) for i in range(128)]
        stored = []
        try:
            for key in keys:
                table.insert(key, key[1])
                stored.append(key)
        except CuckooFullError:
            pass
        for key in stored:
            assert table.lookup(key) == key[1]
