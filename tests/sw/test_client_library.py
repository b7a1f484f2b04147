"""Unit tests for the FLD-R client library and batching driver bits."""

import pytest

from repro.accelerators import RdmaEchoAccelerator
from repro.accelerators.zuc.extensions import (
    CompactRequest,
    OP_SET_KEY,
    make_set_key,
    pack_batch,
    unpack_batch,
)
from repro.scenario import audit, run
from repro.sim import Simulator
from repro.sw import FldRClient, FldRControlPlane, FldRuntime
from repro.telemetry import Telemetry
from repro.testbed import make_local_node

FLD_MAC = "02:00:00:00:00:99"
CLIENT_MAC = "02:00:00:00:00:01"


def build(sim):
    node = make_local_node(sim)
    node.add_vport_for_mac(1, CLIENT_MAC)
    node.add_vport_for_mac(2, FLD_MAC)
    runtime = FldRuntime(node)
    control = FldRControlPlane(runtime, vport=2, mac=FLD_MAC,
                               ip="10.0.0.2")
    accel = RdmaEchoAccelerator(sim, runtime.fld, units=1)
    client = FldRClient(node.driver, vport=1, mac=CLIENT_MAC,
                        ip="10.0.0.1")
    return node, runtime, control, accel, client


class TestFldRClient:
    def test_connect_wires_both_qps(self):
        sim = Simulator()
        _node, _runtime, control, _accel, client = build(sim)
        connection = client.connect(control)
        server_qp = control.qps[0]
        assert server_qp.remote_qpn == connection.endpoint.qpn
        assert connection.endpoint.qp.remote_qpn == server_qp.qpn

    def test_post_roundtrip(self):
        sim = Simulator()
        _node, _runtime, control, accel, client = build(sim)
        connection = client.connect(control)
        accel.tx_queue = connection.info.queue_id
        responses = []
        assert connection.responses.pop_or_park(responses.append) is None
        connection.post(b"echo me")
        sim.run(until=0.05)
        [(response, _cqe)] = responses
        assert response == b"echo me"

    def test_multiple_connections_isolated(self):
        sim = Simulator()
        _node, _runtime, control, accel, client = build(sim)
        a = client.connect(control)
        b = client.connect(control)
        assert a.endpoint.qpn != b.endpoint.qpn
        assert a.info.queue_id != b.info.queue_id


class TestBatchFramingEdges:
    def test_batch_of_255_allowed(self):
        entries = [bytes([i % 250]) for i in range(255)]
        assert unpack_batch(pack_batch(entries)) == entries

    def test_batch_of_256_rejected(self):
        with pytest.raises(ValueError):
            pack_batch([b"x"] * 256)

    def test_oversized_entry_rejected(self):
        with pytest.raises(ValueError):
            pack_batch([b"x" * 70000])

    def test_set_key_message_shape(self):
        message = make_set_key(3, bytes(range(16)), request_id=9)
        header = CompactRequest.unpack(message)
        assert header.op == OP_SET_KEY
        assert header.slot == 3
        assert message[16:] == bytes(range(16))


@pytest.mark.parametrize("name", ["fldr", "fig8a"])
def test_every_request_finishes_a_trace(name):
    """Under span telemetry each posted request starts a trace, and the
    last segment of its response ends it: no trace is left open and no
    span is orphaned."""
    telemetry = Telemetry(trace=False, spans=True)
    _row, testbed = run(name, count=12, telemetry=telemetry)
    spans = telemetry.spans
    assert len(spans.traces) == 12
    assert spans.unfinished_traces() == [] and spans.orphan_spans() == []
    assert audit(name, testbed, telemetry) == []
