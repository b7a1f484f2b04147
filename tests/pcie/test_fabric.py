"""Unit tests for the PCIe fabric: routing, timing, peer-to-peer."""

import pytest

from repro.pcie import (
    INNOVA2_LINK,
    MemoryRegion,
    MmioRegion,
    PcieEndpoint,
    PcieError,
    PcieFabric,
    PcieLinkConfig,
    POSTED,
    read_wire_bytes,
    write_wire_bytes,
)
from repro.pcie.tlp import completion_chunks, split_write_bytes
from repro.sim import Simulator
from repro.sim.resources import DELIVERY
from repro.telemetry import Telemetry
from repro.testbed import HOST_MEM_BASE, make_local_node


def build_fabric(latency=0.0, telemetry=None):
    sim = Simulator(telemetry=telemetry)
    fabric = PcieFabric(sim)
    config = PcieLinkConfig(latency=latency)
    host = MemoryRegion("host", 1 << 20)
    device = MemoryRegion("device", 1 << 16)
    fabric.attach(host, config)
    fabric.attach(device, config)
    fabric.map_window(0x0000_0000, 1 << 20, host)
    fabric.map_window(0x1000_0000, 1 << 16, device)
    return sim, fabric, host, device


def lane_ledger(fabric, *endpoints):
    """(TLPs, payload bytes, header bytes) that crossed each lane."""
    lanes = {}
    for endpoint in endpoints:
        port = fabric.port_of(endpoint)
        for lane, link, payload in (
                ("up", port.up, port.up.payload_bytes),
                ("down", port.down, port.down.payload_bytes)):
            lanes[endpoint.name, lane] = (
                link.stats_messages, payload,
                link.stats_bits // 8 - payload)
    return lanes


class TestAddressing:
    def test_decode_finds_bar(self):
        _sim, fabric, host, device = build_fabric()
        assert fabric.decode(0x100).endpoint is host
        assert fabric.decode(0x1000_0100).endpoint is device

    def test_unmapped_address_raises(self):
        _sim, fabric, *_ = build_fabric()
        with pytest.raises(PcieError):
            fabric.decode(0x9000_0000)

    def test_overlapping_windows_rejected(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        a = MemoryRegion("a", 0x1000)
        fabric.attach(a)
        fabric.map_window(0x0, 0x1000, a)
        with pytest.raises(PcieError):
            fabric.map_window(0x800, 0x1000, a)

    def test_double_attach_rejected(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        a = MemoryRegion("a", 0x1000)
        fabric.attach(a)
        with pytest.raises(PcieError):
            fabric.attach(a)

    def test_unattached_requester_rejected(self):
        _sim, fabric, *_ = build_fabric()
        stranger = MemoryRegion("stranger", 0x100)
        with pytest.raises(PcieError):
            fabric.post_write(stranger, 0x0, b"x")


class TestTransactions:
    def test_write_then_read_roundtrip(self):
        sim, fabric, host, device = build_fabric()
        results = []

        def proc(sim):
            yield fabric.post_write(device, 0x100, b"hello")
            data = yield fabric.read(device, 0x100, 5)
            results.append(data)

        sim.spawn(proc(sim))
        sim.run()
        assert results == [b"hello"]

    def test_peer_to_peer_write(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0040, b"p2p!")

        sim.spawn(proc(sim))
        sim.run()
        assert device.handle_read(0x40, 4) == b"p2p!"

    def test_large_write_splits_into_mps_tlps(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(1024))

        sim.spawn(proc(sim))
        sim.run()
        assert fabric.stats_tlps["MWr"] == 4  # 1024 / MPS 256

    def test_large_read_completion_split(self):
        sim, fabric, host, device = build_fabric()
        device.write_local(0, bytes(range(256)) * 4)
        results = []

        def proc(sim):
            data = yield fabric.read(host, 0x1000_0000, 1024)
            results.append(data)

        sim.spawn(proc(sim))
        sim.run()
        assert results[0] == bytes(range(256)) * 4
        assert fabric.stats_tlps["CplD"] == 4

    def test_read_time_includes_round_trip_latency(self):
        sim, fabric, host, device = build_fabric(latency=1e-6)
        finish = []

        def proc(sim):
            yield fabric.read(host, 0x1000_0000, 4)
            finish.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        # Request crosses two hops (1 us total one-way) and completion the
        # same; serialization of tiny TLPs adds a little on top.
        assert finish[0] >= 2e-6
        assert finish[0] < 3e-6

    def test_bandwidth_limits_throughput(self):
        sim, fabric, host, device = build_fabric()
        finish = []
        total = 1 << 20  # 1 MiB

        def proc(sim):
            yield fabric.post_write(host, 0x0, length=total)
            finish.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        # Gen3 x8 effective ~59.8 Gbps; 8 Mbit payload + TLP overheads.
        expected_min = (total * 8) / INNOVA2_LINK.effective_data_bps
        assert finish[0] >= expected_min

    def test_timing_only_write_has_no_side_effect(self):
        sim, fabric, host, device = build_fabric()

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, length=512)

        sim.spawn(proc(sim))
        sim.run()
        assert device.handle_read(0, 4) == b"\x00\x00\x00\x00"
        assert device.stats_writes == 0

    def test_zero_length_read_rejected(self):
        _sim, fabric, host, _device = build_fabric()
        with pytest.raises(PcieError):
            fabric.read(host, 0x0, 0)


class TestReadBehindAFutureKeyedWrite:
    """A completer whose up lane already holds a reservation keyed
    after ``now`` (a ``post_write_at`` resolved early) cannot run the
    completion train's recurrence inline: the train is reserved chunk
    by chunk, ahead of the pending write.  The reference is the same
    traffic with the write issued by a process at its arrival instant,
    which leaves the lane stable when the read lands."""

    LENGTH = 1024        # four RCB-sized completions
    # The read request lands at ~1.01 us and its train holds the
    # completer's up lane until ~1.15 us; the write keys after both.
    WRITE_AT = 1.5e-6

    def _run(self, early: bool):
        sim, fabric, host, device = build_fabric(latency=1e-6)
        host.write_local(0, bytes(range(256)) * 4)
        seen = {}

        def write_landed(_event):
            seen["write"] = sim.now

        def reader(sim):
            seen["data"] = yield fabric.read(device, 0x0, self.LENGTH)
            seen["read"] = sim.now

        def late_writer(sim):
            yield sim.timeout(self.WRITE_AT)
            fabric.post_write(host, 0x1000_0000, bytes(64)) \
                .add_callback(write_landed)

        sim.spawn(reader(sim))
        if early:
            fabric.post_write_at(host, 0x1000_0000, bytes(64),
                                 self.WRITE_AT).add_callback(write_landed)
        else:
            sim.spawn(late_writer(sim))
        sim.run()
        return seen, dict(fabric.stats_tlps), lane_ledger(fabric, host, device)

    def test_equals_the_stable_lane_run(self):
        seen, tlps, lanes = self._run(early=True)
        assert seen["data"] == bytes(range(256)) * 4
        assert self.WRITE_AT < seen["read"] < seen["write"]
        assert tlps == {"MRd": 1, "MWr": 1, "CplD": 4}
        # (TLPs, payload bytes, header bytes): 4 CplD at 12 + 8 B of
        # header and framing plus one MWr at 16 + 8 B.
        assert lanes["host", "up"] == (5, self.LENGTH + 64, 4 * 20 + 24)
        assert lanes["device", "down"] == lanes["host", "up"]
        assert lanes["device", "up"] == lanes["host", "down"] == (1, 0, 24)
        assert (seen, tlps, lanes) == self._run(early=False)


class TestWriteTrainBehindAFutureKeyedWrite:
    """A requester whose up lane already holds a reservation keyed after
    ``now`` (a ``post_write_at`` resolved early) cannot run a write
    train's recurrence inline: the train is reserved TLP by TLP on both
    lanes, inserted ahead of the pending write.  The reference is the
    same traffic with that write issued by a process at its arrival
    instant, when the train runs inline."""

    LENGTH = 1024       # four MPS-sized TLPs, ~150 ns of the up lane
    WRITE_AT = 200e-9   # after the train leaves the up lane

    def _run(self, early: bool):
        telemetry = Telemetry(trace=True)
        sim, fabric, host, device = build_fabric(latency=1e-6,
                                                 telemetry=telemetry)
        seen = {}

        def landed(name):
            return lambda *_: seen.setdefault(name, sim.now)

        def late_writer(sim):
            yield sim.timeout(self.WRITE_AT)
            fabric.post_write(host, 0x1000_0400, bytes(range(64)),
                              on_done=landed("write"))

        if early:
            fabric.post_write_at(host, 0x1000_0400, bytes(range(64)),
                                 self.WRITE_AT, on_done=landed("write"))
        else:
            sim.spawn(late_writer(sim))
        fabric.post_write(host, 0x1000_0000, bytes(range(256)) * 4,
                          on_done=landed("train"))
        sim.run()
        assert device.handle_read(0, self.LENGTH + 64) == (
            bytes(range(256)) * 4 + bytes(range(64)))
        trace = telemetry.tracer.chrome_trace()["traceEvents"]
        lanes = {event["tid"]: event["args"]["name"] for event in trace
                 if event["ph"] == "M" and event["name"] == "thread_name"}
        slices = sorted((lanes[event["tid"]], event["ts"], event["dur"])
                        for event in trace if event["name"] == "Tlp")
        return seen, dict(fabric.stats_tlps), lane_ledger(fabric, host,
                                                         device), slices

    def test_equals_the_settled_lane_run(self):
        seen, tlps, lanes, slices = self._run(early=True)
        assert seen["train"] < seen["write"]
        assert tlps == {"MRd": 0, "MWr": 5, "CplD": 0}
        # (TLPs, payload bytes, header bytes): five MWr at 16 + 8 B.
        assert lanes["host", "up"] == (5, self.LENGTH + 64, 5 * 24)
        assert lanes["device", "down"] == lanes["host", "up"]
        assert len(slices) == 10
        assert (seen, tlps, lanes, slices) == self._run(early=False)


class TestRefusedBeforeAnyLaneIsTouched:
    """A transaction refused for its arguments raises before it counts
    a TLP, reserves a lane, opens a span or schedules a delivery."""

    @staticmethod
    def _busy():
        """A fabric at 2 us with a write still crossing both lanes."""
        telemetry = Telemetry(trace=False, spans=True)
        sim, fabric, host, device = build_fabric(latency=1e-6,
                                                 telemetry=telemetry)
        sim.run(until=2e-6)
        fabric.post_write(host, 0x1000_0000, bytes(1024), on_done=POSTED)
        return sim, fabric, host, device

    @staticmethod
    def _state(sim, fabric, host, device):
        lanes = [(link.busy_until, list(link._lane))
                 for endpoint in (host, device)
                 for link in (fabric.port_of(endpoint).up,
                              fabric.port_of(endpoint).down)]
        return (dict(fabric.stats_tlps), lane_ledger(fabric, host, device),
                lanes, fabric._issue_seq, len(sim._queue),
                sim.telemetry.spans._next_span)

    @pytest.mark.parametrize("arrival", [1.8e-6, float("nan"),
                                         float("inf")],
                             ids=["before-now", "nan", "inf"])
    def test_post_write_at_refuses_an_arrival_outside_now_to_inf(
            self, arrival):
        sim, fabric, host, device = self._busy()
        trace_ctx = sim.telemetry.spans.start_trace("refused", sim.now)
        before = self._state(sim, fabric, host, device)
        with pytest.raises(PcieError, match="arrival .* is not in "
                                            r"\[now 2e-06, inf\)"):
            fabric.post_write_at(host, 0x1000_0000, bytes(64), arrival,
                                 trace_ctx=trace_ctx, on_done=POSTED)
        assert self._state(sim, fabric, host, device) == before

    @pytest.mark.parametrize("data, length", [
        (bytes(64), 32), (bytes(64), 65), (None, -5), (bytes(0), -5)],
        ids=["short", "long", "negative", "negative-with-data"])
    def test_post_write_refuses_a_length_that_is_not_the_data_s(
            self, data, length):
        sim, fabric, host, device = self._busy()
        before = self._state(sim, fabric, host, device)
        with pytest.raises(PcieError, match="write length"):
            fabric.post_write(host, 0x1000_0000, data=data, length=length,
                              on_done=POSTED)
        assert self._state(sim, fabric, host, device) == before

    def test_post_write_refuses_a_write_straddling_two_windows(self):
        sim, fabric, host, device = self._busy()
        above = MemoryRegion("above", 0x1000)
        fabric.attach(above)
        fabric.map_window(0x1001_0000, 0x1000, above)
        trace_ctx = sim.telemetry.spans.start_trace("refused", sim.now)
        before = self._state(sim, fabric, host, device)
        with pytest.raises(PcieError, match="straddles the window end "
                                            "0x10010000"):
            fabric.post_write(host, 0x1001_0000 - 256, bytes(512),
                              trace_ctx=trace_ctx, on_done=POSTED)
        assert self._state(sim, fabric, host, device) == before
        assert above.stats_writes == device.stats_writes == 0

    def test_post_write_takes_a_length_that_is_the_data_s(self):
        sim, fabric, host, device = build_fabric()
        fabric.post_write(host, 0x1000_0000, data=bytes(range(64)),
                          length=64, on_done=POSTED)
        sim.run()
        assert device.handle_read(0, 64) == bytes(range(64))


class TestWireBytesMatchTheModel:
    """The fabric sizes TLPs inline from the header constants;
    ``write_wire_bytes``/``read_wire_bytes`` are what ``models/perf.py``
    budgets Fig. 7a with.  Each lane a transfer crosses must have carried
    exactly the TLPs, payload and header bytes the analytic functions
    say."""

    @staticmethod
    def _crossed(issue):
        """Per lane, the ``lane_ledger`` entry ``issue`` added."""
        sim = Simulator()
        node = make_local_node(sim)
        sim.run()
        before = lane_ledger(node.fabric, node.nic, node.memory)
        issue(node)
        sim.run()
        after = lane_ledger(node.fabric, node.nic, node.memory)
        return node, {lane: tuple(b - a for a, b in zip(before[lane],
                                                        after[lane]))
                      for lane in after}

    @pytest.mark.parametrize("length", [1, 64, 256, 257, 512, 1024, 1500])
    def test_posted_write(self, length):
        node, crossed = self._crossed(lambda node: node.fabric.post_write(
            node.nic, HOST_MEM_BASE + 0x1000, data=bytes(length)))
        nic, mem = node.nic.name, node.memory.name
        mps = node.fabric.port_of(node.nic).config.max_payload_size
        expected = (len(split_write_bytes(length, mps)), length,
                    write_wire_bytes(length, mps) - length)
        assert crossed[nic, "up"] == crossed[mem, "down"] == expected
        assert crossed[mem, "up"] == crossed[nic, "down"] == (0, 0, 0)

    # One MRd whatever the length: the fabric does not split at
    # ``max_read_request`` (ROADMAP), so longer reads are not pinned.
    @pytest.mark.parametrize("length", [1, 64, 256, 257, 512])
    def test_read(self, length):
        node, crossed = self._crossed(lambda node: node.fabric.read(
            node.nic, HOST_MEM_BASE + 0x1000, length))
        nic, mem = node.nic.name, node.memory.name
        config = node.fabric.port_of(node.memory).config
        rcb = config.read_completion_boundary
        request, completion = read_wire_bytes(length, rcb,
                                              config.max_read_request)
        assert crossed[nic, "up"] == crossed[mem, "down"] == \
            (1, 0, request)
        assert crossed[mem, "up"] == crossed[nic, "down"] == \
            (len(completion_chunks(length, rcb)), length,
             completion - length)


class TestRouteMemo:
    """A requester port remembers the windows it has used; the memo must
    never outlive the address map it was resolved against."""

    @staticmethod
    def _fabric():
        sim = Simulator()
        fabric = PcieFabric(sim)
        regions = [MemoryRegion(name, 0x1000)
                   for name in ("nic", "first", "second")]
        for region in regions:
            fabric.attach(region)
        fabric.map_window(0x0, 0x1000, regions[1])
        return (sim, fabric, *regions)

    def test_remapped_window_redirects_the_next_transaction(self):
        sim, fabric, nic, first, second = self._fabric()
        fabric.post_write(nic, 0x40, b"old!")
        sim.run()
        assert first.handle_read(0x40, 4) == b"old!"
        fabric.unmap_window(0x0)
        fabric.map_window(0x0, 0x1000, second)
        second.write_local(0x80, b"here")
        got = []
        fabric.post_write(nic, 0x40, b"new!")
        fabric.read(nic, 0x80, 4, on_done=got.append)
        sim.run()
        assert second.handle_read(0x40, 4) == b"new!"
        assert first.handle_read(0x40, 4) == b"old!"
        assert got == [b"here"]

    def test_unmapped_address_stops_decoding(self):
        sim, fabric, nic, _first, _second = self._fabric()
        fabric.post_write(nic, 0x40, b"warm")
        fabric.read(nic, 0x40, 4)
        sim.run()
        fabric.unmap_window(0x0)
        with pytest.raises(PcieError):
            fabric.post_write(nic, 0x40, b"gone")
        with pytest.raises(PcieError):
            fabric.read(nic, 0x40, 4)

    def test_tlp_in_flight_keeps_the_endpoint_it_was_issued_to(self):
        sim, fabric, nic, first, second = self._fabric()
        first.write_local(0x80, b"data")
        got = []
        fabric.post_write(nic, 0x40, b"sent")
        fabric.post_write(nic, 0x100, bytes(range(256)) * 2)   # a train
        fabric.read(nic, 0x80, 4, on_done=got.append)
        fabric.unmap_window(0x0)
        fabric.map_window(0x0, 0x1000, second)
        sim.run()
        assert first.handle_read(0x40, 4) == b"sent"
        assert first.handle_read(0x100, 512) == bytes(range(256)) * 2
        assert got == [b"data"]
        assert second.stats_writes == second.stats_reads == 0


def test_every_tlp_leaves_a_lane_slice_on_both_hops():
    """The Chrome tracer sees each TLP occupy its up lane and its down
    lane, also where the fabric runs the up-lane recurrence inline."""
    from collections import Counter
    telemetry = Telemetry(trace=True)
    sim, fabric, host, device = build_fabric(latency=1e-6,
                                             telemetry=telemetry)
    fabric.read(device, 0x0, 1024)                      # 1 MRd, 4 CplD
    fabric.post_write(host, 0x1000_0000, bytes(600))    # 3 MWr
    sim.run()
    trace = telemetry.tracer.chrome_trace()["traceEvents"]
    lanes = {event["tid"]: event["args"]["name"] for event in trace
             if event["ph"] == "M" and event["name"] == "thread_name"}
    slices = Counter(lanes[event["tid"]] for event in trace
                     if event["name"] == "Tlp")
    assert slices == {"device.up": 1, "host.down": 1,
                      "host.up": 7, "device.down": 7}


class TestTracedCallbacks:
    """``on_done`` and ``trace_ctx`` together: the callback must fire
    (it was silently dropped once a span was opened) and the span must
    already be closed, at the delivery instant, when it does."""

    def _traced(self):
        telemetry = Telemetry(trace=False, spans=True)
        sim, fabric, host, device = build_fabric(latency=1e-6,
                                                 telemetry=telemetry)
        spans = telemetry.spans
        return sim, fabric, host, spans, spans.start_trace("t", 0.0)

    @pytest.mark.parametrize("length,tlps", [(64, 1), (1000, 4)])
    def test_write_callback_fires_after_span_closes(self, length, tlps):
        sim, fabric, host, spans, ctx = self._traced()
        fired = []

        def on_done():
            (span,) = spans.get_trace(ctx).spans
            fired.append((sim.now, span.stage, span.end))

        fabric.post_write(host, 0x1000_0000, bytes(length), trace_ctx=ctx,
                          trace_stage="pcie.dma_write", on_done=on_done)
        sim.run()
        assert fabric.stats_tlps["MWr"] == tlps
        assert len(fired) == 1
        now, stage, end = fired[0]
        assert stage == "pcie.dma_write"
        assert end == now >= 1e-6

    @pytest.mark.parametrize("length,completions", [(64, 1), (1024, 4)])
    def test_read_callback_fires_after_span_closes(self, length,
                                                   completions):
        sim, fabric, host, spans, ctx = self._traced()
        fired = []

        def on_done(data):
            (span,) = spans.get_trace(ctx).spans
            fired.append((sim.now, len(data), span.end))

        fabric.read(host, 0x1000_0000, length, trace_ctx=ctx,
                    trace_stage="pcie.dma_read", on_done=on_done)
        sim.run()
        assert fabric.stats_tlps["CplD"] == completions
        assert len(fired) == 1
        now, nbytes, end = fired[0]
        assert nbytes == length
        assert end == now >= 2e-6

    def test_deferred_write_span_ends_at_delivery_not_commit(self):
        sim, fabric, host, spans, ctx = self._traced()
        handle = fabric.post_write_deferred(host, 0x1000_0000, bytes(64),
                                            ctx, "pcie.cqe_write")
        sim.run(until=5e-6)      # the owner commits late
        handle.commit()
        (span,) = spans.get_trace(ctx).spans
        assert span.stage == "pcie.cqe_write"
        assert span.start == 0.0
        assert span.end == handle[0][DELIVERY] < 5e-6

    def test_future_keyed_write_span_starts_at_its_arrival(self):
        sim, fabric, host, spans, ctx = self._traced()
        done = fabric.post_write_at(host, 0x1000_0000, bytes(64), 3e-6,
                                    ctx, "pcie.cqe_write")
        sim.run()
        assert done._fired
        (span,) = spans.get_trace(ctx).spans
        assert span.start == 3e-6
        assert span.end == sim.now > 4e-6


class TestMmio:
    def test_doorbell_callback_invoked(self):
        sim = Simulator()
        fabric = PcieFabric(sim)
        rings = []
        doorbell = MmioRegion("db", lambda addr, data: rings.append((addr, data)))
        host = MemoryRegion("host", 0x1000)
        fabric.attach(host)
        fabric.attach(doorbell)
        fabric.map_window(0x2000_0000, 0x1000, doorbell)

        def proc(sim):
            yield fabric.post_write(host, 0x2000_0800, b"\x01\x00\x00\x00")

        sim.spawn(proc(sim))
        sim.run()
        assert rings == [(0x800, b"\x01\x00\x00\x00")]

    def test_write_only_mmio_read_raises(self):
        region = MmioRegion("db", lambda a, d: None)
        with pytest.raises(PcieError):
            region.handle_read(0, 4)


class TestMemoryRegion:
    def test_out_of_bounds_read_raises(self):
        mem = MemoryRegion("m", 0x100)
        with pytest.raises(PcieError):
            mem.handle_read(0xF0, 0x20)

    def test_out_of_bounds_write_raises(self):
        mem = MemoryRegion("m", 0x100)
        with pytest.raises(PcieError):
            mem.handle_write(0xFF, b"ab")

    def test_stats_count_accesses(self):
        mem = MemoryRegion("m", 0x100)
        mem.handle_write(0, b"a")
        mem.handle_read(0, 1)
        assert mem.stats_writes == 1 and mem.stats_reads == 1


class TestLinkConfig:
    def test_gen3_x8_rate(self):
        config = PcieLinkConfig(generation=3, lanes=8)
        assert config.raw_bps == pytest.approx(63.0e9, rel=0.01)

    def test_gen5_x16_rate(self):
        config = PcieLinkConfig(generation=5, lanes=16)
        assert config.raw_bps == pytest.approx(504.1e9, rel=0.01)

    def test_invalid_generation(self):
        with pytest.raises(ValueError):
            PcieLinkConfig(generation=2)

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            PcieLinkConfig(lanes=3)

    def test_negative_latency_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="latency"):
            PcieLinkConfig(latency=-1e-9)
        assert PcieLinkConfig(latency=0.0).latency == 0.0

    def test_a_nan_latency_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="latency"):
            PcieLinkConfig(latency=float("nan"))

    @pytest.mark.parametrize("field", ["max_payload_size",
                                       "read_completion_boundary",
                                       "max_read_request"])
    @pytest.mark.parametrize("size", [0, -64])
    def test_tlp_sizes_must_be_positive(self, field, size):
        with pytest.raises(ValueError, match=field):
            PcieLinkConfig(**{field: size})
