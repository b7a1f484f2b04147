"""Stateful oracle for ``CuckooHashTable``: the index replays the probes.

The table finds a key where it put it: an index of each live key's
``(bank, slot)`` (or the stash) serves lookups and removes, and an
insert hashes only until the first free bank.  The reference is the
table that re-hashed and probed every bank on every operation
(``tests/core/cuckoo_oracle.py``).  The machine drives both with the
same ``insert``, ``lookup``, ``lookup_many``, ``remove`` and ``in``
calls, and after every step holds them to the same return value or
exception, the same counters, length and occupancy, and the same bank
contents and stash order.  The tables are tiny, so that kicks, stash
drains, capacity stalls and stash stalls are all common.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.cuckoo import CuckooHashTable

from .cuckoo_oracle import OracleCuckooTable

# Keys that share every bank's slot at bank sizes 1, 2 and 4 — slot
# (2, 1, 1, 3) at bank size 4 (a slot is the high bits of the key's
# mixed hash, so sharing at 4 means sharing at 2 and 1) — so they kick,
# fill the stash and stall on it well under capacity.
CLASS = (53, 217, 253, 320, 409, 538, 561, 574, 652, 1352, 1484, 1581)
CLUSTERED = st.sampled_from(CLASS)
KEYS = (CLUSTERED | st.integers(0, 40)
        | st.tuples(st.integers(0, 3), st.integers(0, 9)))
VALUES = st.none() | st.integers(0, 9)


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as error:  # the exception is the outcome compared
        return (type(error), error.args)


class CuckooMachine(RuleBasedStateMachine):
    # Bank sizes 1 to 8, and often 16 entries at load factor 1: bank
    # size 4, where the clustered keys fill the stash under capacity.
    @initialize(capacity=st.just(16) | st.integers(1, 15),
                load_factor=st.just(1.0) | st.sampled_from([0.75, 0.5]))
    def build(self, capacity, load_factor):
        self.tables = (CuckooHashTable(capacity, load_factor),
                       OracleCuckooTable(capacity, load_factor))

    def _both(self, operation, *args):
        indexed, probed = (_outcome(getattr(table, operation), *args)
                           for table in self.tables)
        assert indexed == probed, (operation, args)

    @rule(key=KEYS, value=VALUES)
    def insert(self, key, value):
        self._both("insert", key, value)

    @rule(key=CLUSTERED)
    def insert_clustered(self, key):
        self._both("insert", key, key)

    @rule(key=KEYS)
    def lookup(self, key):
        self._both("lookup", key)

    @rule(keys=st.lists(KEYS, max_size=5))
    def lookup_many(self, keys):
        self._both("lookup_many", keys)

    @rule(key=KEYS)
    def remove(self, key):
        self._both("remove", key)

    @rule(key=KEYS)
    def contains(self, key):
        self._both("__contains__", key)

    @invariant()
    def the_index_replays_the_probes(self):
        indexed, probed = self.tables
        assert indexed.stats_dict() == probed.stats_dict()
        assert len(indexed) == len(probed)
        assert indexed.occupancy == probed.occupancy
        assert indexed._banks == probed._banks
        assert indexed._stash == probed._stash


TestCuckooMachine = CuckooMachine.TestCase


def test_a_tiny_table_kicks_drains_and_stalls_both_ways():
    """A fixed history, the two tables agreeing at every step.  At bank
    size 4 (16 entries at load factor 1) the keys of ``CLASS`` share
    every bank's slot: four fill the banks, four are kicked into the
    stash, a ninth stalls on the full stash, and a remove drains the
    stash into the slot it frees.  Other keys then fill the table until
    the capacity refuses, and it empties.  Each value is ``~key``: a
    drain that hashed the value would put its entry in another slot."""
    machine = CuckooMachine()
    machine.build(capacity=16, load_factor=1.0)
    table = machine.tables[0]

    def step(operation, *args):
        getattr(machine, operation)(*args)
        machine.the_index_replays_the_probes()

    for key in CLASS[:9]:
        step("insert", key, ~key)
    assert (table.stats_kicks, len(table._stash), table.stats_stalls,
            len(table)) == (4, 4, 1, 8)
    step("remove", CLASS[0])
    assert len(table._stash) == 3 and len(table) == 7
    for key in range(1, 100):
        if len(table) == 16:
            break
        if key not in CLASS:
            step("insert", key, ~key)
    step("insert", 100, ~100)
    assert table.stats_stalls == 2 and len(table) == 16
    for key in list(table._where):
        step("lookup", key)
        step("lookup_many", [key, 200])
        step("contains", key)
        step("remove", key)
        step("remove", key)
    assert len(table) == 0 and not table._stash


def test_a_kicked_victim_drains_into_its_first_free_bank():
    """At bank size 3 (12 entries at load factor 1) 0 hashes to slots
    (2, 0, 0, 1), and 21, 6, 61 and 68, inserted first, land there in
    banks 0 to 3.  Inserting 0 kicks 21 out of bank 0; 21's slots are
    (2, 1, 0, 0), so of its other slots those in banks 1 and 3 are
    free, and it drains into bank 1, the first in bank order — as the
    probing table places it."""
    machine = CuckooMachine()
    machine.build(capacity=12, load_factor=1.0)
    table = machine.tables[0]
    for key in (21, 6, 61, 68, 0):
        machine.insert(key, ~key)
        machine.the_index_replays_the_probes()
    assert table.stats_kicks == 1 and not table._stash
    bank, slot = table._where[21]
    assert bank is table._banks[1] and bank[slot] == (21, ~21)
