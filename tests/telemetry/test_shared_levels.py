"""Levels published under one name add up, whoever touched one last.

In a remote setup the client and server NICs share a qpn space, so each
NIC has its own ``cq2.notify`` store and its own ``sq1`` send queue,
each publishing the same gauge name.  A level is pulled from every
owner at export: values sum, peaks take the largest.  (A gauge pushed
at every change read whichever owner changed last: ``trace fldr``
exported ``store.cq2.notify.depth`` 0 while one NIC's store held 20
notifies nobody consumed.)
"""

from repro.nic.queues import CompletionQueue, ReceiveQueue, SendQueue
from repro.sim import Simulator, Store
from repro.telemetry import Telemetry


def _gauges(telemetry):
    return telemetry.metrics.to_dict()["gauges"]


def test_two_stores_of_one_name_export_their_summed_depth():
    telemetry = Telemetry(trace=False)
    sim = Simulator(telemetry=telemetry)
    holding, busy = Store(sim, name="x"), Store(sim, name="x")
    for item in range(3):
        holding.try_put(item)
    busy.try_put("a")
    busy.try_get()
    assert _gauges(telemetry)["store.x.depth"] == {"value": 3, "peak": 3}
    snap = telemetry.snapshot()
    assert (snap["store.x.depth"], snap["store.x.depth.peak"]) == (3, 3)


def test_two_nics_queues_of_one_qpn_export_their_summed_levels():
    telemetry = Telemetry(trace=False)
    sim = Simulator(telemetry=telemetry)
    queues = []
    for ring in (0x1000, 0x9000):
        cq = CompletionQueue(sim, 2, ring, 8)
        queues.append((SendQueue(sim, 1, ring + 0x1000, 8, cq),
                       ReceiveQueue(sim, 1, ring + 0x2000, 8, cq)))
    (client_sq, client_rq), (server_sq, server_rq) = queues
    client_sq.ring_doorbell(5)
    server_sq.ring_doorbell(1)
    client_rq.post(2)
    server_rq.post(8)
    gauges = _gauges(telemetry)
    assert gauges["sq1.outstanding"] == {"value": 6, "peak": 5}
    assert gauges["rq1.posted"] == {"value": 10, "peak": 8}
    assert (client_sq.outstanding, server_sq.outstanding) == (5, 1)
