"""Chrome-trace lane slices where the fabric cannot run a first hop
inline: an up lane that holds a write keyed after ``now`` makes every
TLP behind it take a first-hop record of its own, and nobody retires
lane records any more — the delivery handlers write both hops' slices,
at the records' final times."""

from collections import Counter

import pytest

from repro.telemetry import Telemetry

from .test_fabric import build_fabric

WRITE_AT = 1.5e-6       # after the read's completions have left


def _slices(telemetry):
    trace = telemetry.tracer.chrome_trace()["traceEvents"]
    lanes = {event["tid"]: event["args"]["name"] for event in trace
             if event["ph"] == "M" and event["name"] == "thread_name"}
    return [(lanes[event["tid"]], event["ts"], event["dur"])
            for event in trace if event["name"] == "Tlp"]


@pytest.mark.parametrize("length,completions", [(64, 1), (1024, 4)])
def test_tlps_behind_a_future_keyed_write_leave_both_slices(length,
                                                            completions):
    telemetry = Telemetry(trace=True)
    sim, fabric, host, device = build_fabric(latency=1e-6,
                                             telemetry=telemetry)
    # The host's up lane is pending from the start: the completions of
    # the device's read must key ahead of this write, record by record.
    fabric.post_write_at(host, 0x1000_0000, bytes(64), WRITE_AT)
    fabric.read(device, 0x0, length)
    sim.run()
    slices = _slices(telemetry)
    assert Counter(lane for lane, _ts, _dur in slices) == {
        "device.up": 1, "host.down": 1,
        "host.up": completions + 1, "device.down": completions + 1}
    # The future-keyed write's first hop is traced where it ended up,
    # not where it was first computed: it starts at its arrival key.
    write_ts = max(ts for lane, ts, _dur in slices if lane == "host.up")
    assert write_ts == pytest.approx(WRITE_AT * 1e6)
    # A lane is serial: no two of its slices overlap.
    for name in ("host.up", "device.down"):
        spans = sorted((ts, ts + dur) for lane, ts, dur in slices
                       if lane == name)
        assert all(end <= start + 1e-9
                   for (_s, end), (start, _e) in zip(spans, spans[1:]))


def test_a_repaired_first_hop_is_traced_at_its_final_time():
    telemetry = Telemetry(trace=True)
    sim, fabric, host, device = build_fabric(latency=1e-6,
                                             telemetry=telemetry)
    fabric.post_write_at(host, 0x1000_0000, bytes(256), 0.2e-6)
    # Issued later, keyed earlier, and long enough to still hold the up
    # lane at 0.2 us: the first write's first hop moves.
    fabric.post_write(host, 0x1000_0100, bytes(4096))
    sim.run()
    starts = sorted(ts for lane, ts, _dur in _slices(telemetry)
                    if lane == "host.up")
    assert len(starts) == 17
    assert starts[0] == 0.0
    # The future-keyed write went last, behind the whole train, not at
    # the 0.2 us it was computed for at issue.
    assert starts[-1] > 0.2
    assert starts[-1] == pytest.approx(
        16 * (256 + 24) * 8 / host._port.up.rate_bps * 1e6)
