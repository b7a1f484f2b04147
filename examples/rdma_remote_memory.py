#!/usr/bin/env python3
"""One-sided RDMA through the NIC's hardware transport.

Demonstrates the transport offload class that FLD (unlike BITW designs)
can reach: a client registers nothing, the server registers a memory
region, and the client's NIC writes bulk data straight into it — no
server CPU, no receive descriptors, no receive completions — then posts
a tiny SEND as a doorbell message.  The WRITE is traced: its span tree
shows where its time went, stage by stage.

Run:  python examples/rdma_remote_memory.py
"""

from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.testbed import make_remote_pair

CLIENT_MAC = "02:00:00:00:00:01"
SERVER_MAC = "02:00:00:00:00:02"


def main():
    telemetry = Telemetry(trace=False, spans=True)
    sim = Simulator(telemetry=telemetry)
    client, server = make_remote_pair(sim)
    client.add_vport_for_mac(1, CLIENT_MAC)
    server.add_vport_for_mac(1, SERVER_MAC)

    cep = client.driver.create_rc_endpoint(1, CLIENT_MAC, "10.0.0.1",
                                           buffer_size=8192)
    sep = server.driver.create_rc_endpoint(1, SERVER_MAC, "10.0.0.2",
                                           buffer_size=8192)
    cep.post_rx_buffers(64)
    sep.post_rx_buffers(64)
    cep.connect(SERVER_MAC, "10.0.0.2", sep.qpn)
    sep.connect(CLIENT_MAC, "10.0.0.1", cep.qpn)

    # Server-side: register 8 KiB as an RDMA WRITE target.
    addr, rkey, read = sep.register_mr(8192)
    bulk = bytes(range(256)) * 24  # 6 KiB

    log = {}

    def server_proc(sim):
        message, _cqe = yield sep.messages.get()
        # The notification SEND arrives after the WRITE (RC ordering):
        # the data is already in place, untouched by any server code.
        log["notified"] = message
        log["data"] = read(len(bulk))

    def client_proc(sim):
        rq_before = sep.rq.available
        log["trace"] = telemetry.spans.start_trace("write", sim.now)
        cep.post_write(bulk, addr, rkey, signaled=False,
                       trace_ctx=log["trace"])
        yield cep.post_send(b"wrote 6 KiB at offset 0")
        log["rq_consumed"] = rq_before - sep.rq.available

    sim.spawn(server_proc(sim))
    sim.spawn(client_proc(sim))
    sim.run(until=0.05)

    print("=== One-sided RDMA WRITE over the simulated NIC transport ===")
    print(f"notification message       : {log['notified'].decode()}")
    print(f"bulk data intact           : {log['data'] == bulk}")
    print(f"server rx descriptors used : {log['rq_consumed']} "
          "(only the notification SEND; the 6 KiB WRITE used none)")
    print(f"segments on the wire       : {sep.qp.stats_writes_received} "
          "writes + 1 send")
    print("the WRITE's spans (stage: start .. end, us):")
    for span in telemetry.spans.get_trace(log["trace"]).spans:
        print(f"  {span.stage:<24s} {span.start * 1e6:7.3f} .. "
              f"{span.end * 1e6:7.3f}")
    assert log["data"] == bulk
    print("OK")


if __name__ == "__main__":
    main()
