"""Property-based tests for the PCIe fabric and simulation engine."""

from hypothesis import assume, given, settings, strategies as st

from repro.pcie import POSTED, MemoryRegion, PcieFabric, PcieLinkConfig
from repro.pcie.tlp import completion_chunks, read_wire_bytes, \
    split_write_bytes, write_wire_bytes
from repro.sim import Link, Simulator, Store
from repro.sim.resources import (ARRIVAL, BITS, DELIVERY, FINISH, PARTS,
                                 SEQ, START, TRAIN)


class TestTlpProperties:
    @given(length=st.integers(1, 1 << 20), mps=st.sampled_from(
        [64, 128, 256, 512, 1024]))
    @settings(max_examples=100, deadline=None)
    def test_split_covers_exactly(self, length, mps):
        chunks = split_write_bytes(length, mps)
        assert sum(chunks) == length
        assert all(0 < c <= mps for c in chunks)
        # Only the last chunk may be partial.
        assert all(c == mps for c in chunks[:-1])

    @given(length=st.integers(1, 1 << 16),
           rcb=st.sampled_from([64, 128, 256]),
           mrr=st.sampled_from([128, 256, 512, 1024]))
    @settings(max_examples=100, deadline=None)
    def test_read_wire_bytes_bounds(self, length, rcb, mrr):
        assume(rcb <= mrr)
        requests, completions = read_wire_bytes(length, rcb, mrr)
        # Completions carry all the data plus per-chunk overhead.
        assert completions >= length
        assert completions <= length + 20 * (length // rcb + 2)
        # Requests scale with the read size / MRRS.
        assert requests == 24 * max(1, -(-length // mrr))

    @given(length=st.integers(1, 1 << 16), mps=st.sampled_from([128, 256]))
    @settings(max_examples=100, deadline=None)
    def test_write_efficiency_improves_with_size(self, length, mps):
        wire = write_wire_bytes(length, mps)
        assert wire >= length + 24  # at least one TLP's overhead
        assert wire <= length + 24 * (length // mps + 1)


class TestFabricProperties:
    @given(data=st.binary(min_size=1, max_size=2048),
           offset=st.integers(0, 1 << 14))
    @settings(max_examples=40, deadline=None)
    def test_write_read_identity_through_fabric(self, data, offset):
        sim = Simulator()
        fabric = PcieFabric(sim)
        initiator = MemoryRegion("initiator", 1 << 10)
        target = MemoryRegion("target", 1 << 16)
        fabric.attach(initiator)
        fabric.attach(target)
        fabric.map_window(0x0, 1 << 16, target)
        result = {}

        def proc(sim):
            yield fabric.post_write(initiator, offset, data)
            readback = yield fabric.read(initiator, offset, len(data))
            result["data"] = readback

        sim.spawn(proc(sim))
        sim.run()
        assert result["data"] == data

    @given(sizes=st.lists(st.integers(1, 512), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_reads_complete_in_issue_order_per_initiator(self, sizes):
        sim = Simulator()
        fabric = PcieFabric(sim)
        initiator = MemoryRegion("initiator", 16)
        target = MemoryRegion("target", 1 << 16)
        fabric.attach(initiator)
        fabric.attach(target)
        fabric.map_window(0x0, 1 << 16, target)
        order = []

        def reader(sim, index, size):
            yield fabric.read(initiator, 0, size)
            order.append(index)

        for index, size in enumerate(sizes):
            sim.spawn(reader(sim, index, size))
        sim.run()
        assert len(order) == len(sizes)
        # Same-size reads issued together complete in order; globally
        # every read completes exactly once.
        assert sorted(order) == list(range(len(sizes)))


class _LoggedLane(list):
    """A lane that logs each record as it enters: its chunks'
    ``(bits, arrival, seq)``, read before any split or repair."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def _enter(self, record):
        train = record[TRAIN]
        chunks = ([(record[BITS], record[ARRIVAL], record[SEQ])]
                  if train is None else
                  [(bits, arrival, train[3] + j) for j, (bits, arrival)
                   in enumerate(zip(train[0], train[1]))])
        self.log.append((record, chunks))

    def append(self, record):
        self._enter(record)
        super().append(record)

    def insert(self, index, record):
        self._enter(record)
        super().insert(index, record)


def _final_chunks(record, count, latency):
    """``(start, finish, delivery)`` of each chunk a logged record holds,
    as the run left them (``None`` for a start nothing stores: a split
    chunk's and an unsplit train's earlier ones)."""
    last = (record[START], record[FINISH], record[DELIVERY])
    if count == 1:
        return [last]
    if record[TRAIN] is not None:
        finishes = record[TRAIN][2]
        return [(None, finish, finish + latency)
                for finish in finishes[:-1]] + [last]
    return [(None, part[FINISH], part[DELIVERY])
            for part in record[PARTS]] + [last]


OPS = st.lists(st.tuples(
    st.sampled_from(["post_write", "post_write_at", "read"]),
    st.integers(0, 2),                          # who issues
    st.integers(1, 4096),                       # bytes
    st.floats(0.0, 2e-6),                       # post_write_at: key ahead
    st.sampled_from([0.0, 0.0, 10e-9, 100e-9, 1e-6])), max_size=40)


class TestLaneFoldProperties:
    @given(ops=OPS, lanes=st.sampled_from([1, 8]),
           latency=st.sampled_from([0.0, 100e-9, 500e-9]))
    @settings(deadline=None)
    def test_down_lanes_replay_through_link_reserve(self, ops, lanes,
                                                     latency):
        """The fabric's in-order down-lane append, its repairs and its
        completion trains leave every TLP the times a fresh ``Link``
        gives the same ``(bits, arrival, seq)`` sequence."""
        sim = Simulator()
        fabric = PcieFabric(sim)
        config = PcieLinkConfig(lanes=lanes, latency=latency)
        memory = MemoryRegion("memory", 1 << 16)
        peers = [MemoryRegion(f"peer{i}", 1 << 12) for i in range(2)]
        logs = {}
        for index, endpoint in enumerate([memory] + peers):
            fabric.attach(endpoint, config)
            fabric.map_window(index << 16, endpoint.size, endpoint)
            port = fabric.port_of(endpoint)
            port.down._lane = _LoggedLane(logs.setdefault(port.down, []))
        delivered = []
        for kind, who, size, ahead, gap in ops:
            issuer = peers[who % 2]
            if kind == "post_write":
                fabric.post_write(issuer, 64 * who, bytes(size),
                                  on_done=POSTED)
            elif kind == "post_write_at":
                fabric.post_write_at(issuer, 64 * who, bytes(min(size, 256)),
                                     sim.now + ahead, on_done=POSTED)
            elif who == 2:      # the completion lands on memory's lane
                fabric.read(memory, 1 << 16, min(size, 1 << 12),
                            on_done=delivered.append)
            else:
                fabric.read(issuer, 0, size, on_done=delivered.append)
            sim.run(until=sim.now + gap)
        sim.run()
        assert len(delivered) == sum(kind == "read" for kind, *_ in ops)
        for lane, log in logs.items():
            replay = Link(Simulator(), lane.rate_bps, lane.latency)
            wants = [[replay.reserve(*chunk) for chunk in chunks]
                     for _record, chunks in log]
            for (record, chunks), want in zip(log, wants):
                got = _final_chunks(record, len(chunks), lane.latency)
                for (start, finish, delivery), ref in zip(got, want):
                    assert (finish, delivery) == (ref[FINISH], ref[DELIVERY])
                    assert start in (None, ref[START])
            assert lane.stats_messages == sum(len(c) for _r, c in log)


class TestEngineProperties:
    @given(delays=st.lists(st.floats(0, 1e-3), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.call_later(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(items=st.lists(st.integers(), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_store_is_fifo(self, items):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            for _ in items:
                value = yield store.get()
                got.append(value)

        for item in items:
            store.try_put(item)
        sim.spawn(consumer(sim))
        sim.run()
        assert got == items

    @given(messages=st.lists(st.integers(1, 10_000), min_size=1,
                             max_size=40),
           rate=st.floats(1e3, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_link_conserves_and_orders_messages(self, messages, rate):
        sim = Simulator()
        link = Link(sim, rate_bps=rate)
        received = []
        link.connect(received.append)
        for index, bits in enumerate(messages):
            link.send(index, bits)
        sim.run()
        assert received == list(range(len(messages)))
        # Total busy time equals total serialization time.
        assert link.busy_until * rate == sum(messages) or abs(
            link.busy_until - sum(messages) / rate) < 1e-9
