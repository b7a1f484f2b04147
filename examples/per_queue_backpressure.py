#!/usr/bin/env python3
"""Per-queue backpressure through FLD's credit interface (§5.5).

Two accelerator transmit queues share one FLD: the NIC rate-limits one
of them to 1 Gb/s (a shaper meter on its send queue) and leaves the
other free-running.  Each queue has 8 credits.  The accelerator offers
60 frames on each, sending the next one as soon as FLD has taken the
last.  The limited queue's credits stay in flight, so its sender waits
on them; the other queue finishes at full speed.  No frame is lost.

Run:  python examples/per_queue_backpressure.py
"""

from repro.core import AxisMetadata
from repro.net import Flow
from repro.sim import Simulator
from repro.sw import FldRuntime
from repro.testbed import make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
FLD_MAC = "02:00:00:00:00:99"
FRAMES = 60


def main():
    sim = Simulator()
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(2, FLD_MAC)
    runtime = FldRuntime(server)
    runtime.create_rx_queue(vport=2)
    server.nic.shaper.add_limiter("slow", 1e9, burst_bits=8 * 1500)
    queues = {
        "limited": runtime.create_eth_tx_queue(vport=2, entries=64,
                                               meter="slow", credits=8),
        "free": runtime.create_eth_tx_queue(vport=2, entries=64, credits=8),
    }
    sink = client.driver.create_eth_qp(vport=1)
    sink.post_rx_buffers(1024)
    received = []
    sink.on_receive = lambda data, cqe: received.append(data)

    fld = runtime.fld
    taken = {name: 0 for name in queues}

    def sender(name, port):
        frame = Flow(FLD_MAC, CLIENT_MAC, "10.0.0.2", "10.0.0.1", port,
                     2000).make_packet(bytes(1200)).to_bytes()
        meta = AxisMetadata(queue_id=queues[name])

        def next_frame(first):
            if not first:
                taken[name] += 1
            if taken[name] < FRAMES:
                fld.send_then(frame, meta, next_frame, False)
        next_frame(True)

    sender("limited", 1000)
    sender("free", 2000)
    sim.run(until=100e-6)
    print("=== Per-queue backpressure (FLD credits, §5.5) ===")
    print("after 100 us          taken by FLD   credits left")
    for name, queue in queues.items():
        print(f"  {name:<8s} queue     {taken[name]:>8d}   "
              f"{fld.tx.credits.available(queue):>12d}")
    assert taken["free"] == FRAMES and taken["limited"] < FRAMES
    sim.run(until=1.0)
    print(f"after 1 s: {len(received)} of {2 * FRAMES} frames delivered, "
          f"the senders waited {fld.tx.credits.stats_waits} times for a "
          "credit")
    assert len(received) == 2 * FRAMES
    print("OK")


if __name__ == "__main__":
    main()
