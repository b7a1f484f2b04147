"""Integration: the per-queue credit interface under NIC prioritization.

§5.5: "each queue may progress at a different rate due to NIC
prioritization (e.g., ETS) or transport-layer flow-/congestion-control.
Therefore, we provide per-queue backpressure to the accelerator in the
form of a credit interface."

Here one FLD transmit queue is rate-limited by the NIC's shaper while a
second is not: the limited queue's credits pile up in-flight and
backpressure its producer; the other queue is unaffected.
"""

import pytest

from repro.core import AxisMetadata
from repro.net import Flow
from repro.sim import Simulator
from repro.sw import FldRuntime
from repro.testbed import make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
FLD_MAC = "02:00:00:00:00:99"


def build(sim, limited_rate_bps=1e9):
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(2, FLD_MAC)
    runtime = FldRuntime(server)
    runtime.create_rx_queue(vport=2)
    # Queue 0: shaped hard.  Queue 1: free-running.
    server.nic.shaper.add_limiter("slow", limited_rate_bps,
                                  burst_bits=8 * 1500)
    # Tight credit pools so backpressure is visible at test scale.
    slow_q = runtime.create_eth_tx_queue(vport=2, entries=64,
                                         meter="slow", credits=8)
    fast_q = runtime.create_eth_tx_queue(vport=2, entries=64, credits=8)
    sink = client.driver.create_eth_qp(vport=1)
    sink.post_rx_buffers(1024)
    counts = {"slow": 0, "fast": 0}

    def on_receive(data, cqe):
        from repro.net.parse import parse_frame
        from repro.net import Udp
        packet = parse_frame(data)
        udp = packet.find(Udp)
        counts["slow" if udp.src_port == 1000 else "fast"] += 1

    sink.on_receive = on_receive
    return server, runtime, slow_q, fast_q, counts


def send_in_turn(fld, data, metas, taken=None):
    """Offer ``data`` once for each metadata ``metas`` yields, each send
    when the pipeline has taken the one before, as a blocking send loop
    does: ``FlexDriver.send_then`` calls back once it has taken a packet
    (``taken()`` then runs), and only then is the next metadata drawn."""
    metas = iter(metas)

    def send_next(first):
        if not first and taken is not None:
            taken()
        meta = next(metas, None)
        if meta is not None:
            fld.send_then(data, meta, send_next, False)

    send_next(True)


def frame(src_port):
    flow = Flow(FLD_MAC, CLIENT_MAC, "10.0.0.2", "10.0.0.1",
                src_port, 2000)
    return flow.make_packet(bytes(1200), fill_checksums=False).to_bytes()


class TestCreditBackpressure:
    def test_shaped_queue_backpressures_only_itself(self):
        sim = Simulator()
        server, runtime, slow_q, fast_q, counts = build(sim)
        fld = runtime.fld
        progress = {"slow": 0, "fast": 0}

        def producer(queue_id, tag, count):
            def taken():
                progress[tag] += 1
            send_in_turn(fld, frame(1000 if tag == "slow" else 2000),
                         [AxisMetadata(queue_id=queue_id)] * count, taken)

        producer(slow_q, "slow", 60)
        producer(fast_q, "fast", 60)
        sim.run(until=100e-6)

        # The fast queue finished its work long ago; the slow queue is
        # still trickling at ~1 Gbps (1200 B ~= 10 us/packet) with only
        # 8 credits of headroom.
        assert progress["fast"] == 60
        assert progress["slow"] < 40
        # Credits reflect it: the slow queue is starved of credits.
        credits = fld.tx.credits
        assert credits.available(fast_q) > credits.available(slow_q)

        sim.run(until=1.0)
        # Eventually the shaper admits everything; nothing was lost.
        assert counts["slow"] == 60
        assert counts["fast"] == 60

    def test_shaped_rate_enforced_on_the_wire(self):
        sim = Simulator()
        server, runtime, slow_q, _fast_q, counts = build(
            sim, limited_rate_bps=2e9)
        fld = runtime.fld
        taken = []
        send_in_turn(fld, frame(1000), [AxisMetadata(queue_id=slow_q)] * 100,
                     lambda: taken.append(sim.now))
        sim.run(until=1.0)
        assert len(taken) == 100
        times = {"done_producing": taken[-1]}
        assert counts["slow"] == 100
        # With 8 credits the producer tracks the 2 Gbps shaped rate:
        # ~92 completions at 4.8 us each before the last credit frees.
        assert times["done_producing"] > 0.3e-3
