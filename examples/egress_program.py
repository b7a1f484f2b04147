#!/usr/bin/env python3
"""A verified match-action program on an accelerator's transmit queue.

The echo function behind FLD answers every frame it gets.  A firewall
program, verified and loaded through the firmware command channel, is
attached to the function's *transmit* queue with a one-entry blocklist:
replies to UDP port 7000 are dropped at submit time, before FLD takes a
buffer for them, while replies to port 7002 leave.  The control plane
reads the blocklist back, removes the entry, and unloads everything.

Run:  python examples/egress_program.py
"""

from repro.experiments.prog import prog_spec
from repro.experiments.setups import CLIENT_MAC
from repro.host import LoadGenerator
from repro.net import Flow
from repro.prog.programs import firewall
from repro.sim import Simulator
from repro.topology import build

FLD_MAC = "02:00:00:00:00:99"
BLOCKED, OPEN = 7000, 7002


def main():
    sim = Simulator()
    testbed = build(sim, prog_spec("firewall"))
    runtime = testbed.fld("server.fld")
    cmd = runtime.nic.cmd
    fn = testbed.accel("tenant0")
    blocklist = cmd.create_prog_map()
    cmd.map_set(blocklist, BLOCKED, 1)
    prog = cmd.create_prog(firewall(), [blocklist])
    cmd.attach_prog(runtime.fld, prog, "tx", fn.txq)

    # The echo swaps ports, so a reply goes to the request's source port.
    flows = [Flow(CLIENT_MAC, FLD_MAC, "10.0.0.1", "10.0.0.2", port, 7001)
             for port in (BLOCKED, OPEN)]
    loadgen = LoadGenerator(sim, testbed.host_qp("client"), flows[0])

    def run(sim):
        yield from loadgen.run_open_loop_flows(flows, [256] * 40,
                                               rate_pps=1_000_000)
        yield from loadgen.drain()

    sim.spawn(run(sim))
    sim.run(until=2.0)
    counters = prog.counters()
    print("=== Egress firewall on an FLD transmit queue ===")
    print(f"frames echoed by the accelerator : {fn.accel.stats_processed}")
    print(f"replies dropped by the program   : {counters['drop']} "
          f"(to port {BLOCKED})")
    print(f"replies passed by the program    : {counters['pass']} "
          f"(to port {OPEN})")
    print(f"replies the client received      : {loadgen.stats_received}")
    print(f"blocklist entry for {BLOCKED}         : "
          f"{cmd.map_get(blocklist, BLOCKED)}")
    cmd.map_del(blocklist, BLOCKED)
    print(f"after removing it                : "
          f"{cmd.map_get(blocklist, BLOCKED)}")
    assert counters["drop"] == loadgen.stats_received == 20
    cmd.detach_prog(runtime.fld, "tx", fn.txq)
    cmd.destroy(prog)
    cmd.destroy(blocklist)
    assert testbed.quiesce() == []
    print("OK")


if __name__ == "__main__":
    main()
