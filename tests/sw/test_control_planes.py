"""Unit tests for the FLD software stack: runtime, control planes,
kernel driver, cryptodev marshalling."""

import pytest

from repro.accelerators.zuc import (
    HEADER_SIZE,
    OP_EEA3,
    OP_EIA3,
    ZucRequest,
    make_request,
    parse_response,
)
from repro.core import FldError
from repro.core.bar import MAX_TX_QUEUES
from repro.nic import (
    Drop,
    ForwardToQueue,
    MatchSpec,
    Meter,
    SendQueue,
    SetContextId,
)
from repro.sim import Simulator
from repro.sw import (
    FldEControlPlane,
    FldEPolicyError,
    FldKernelDriver,
    FldRControlPlane,
    FldRuntime,
    FldRuntimeError,
)
from repro.testbed import FLD_BAR_BASE, make_local_node


def make_runtime():
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, "02:00:00:00:00:99")
    return sim, node, FldRuntime(node)


class TestFldRuntime:
    def test_eth_tx_queue_binds_ring_in_fld_bar(self):
        _sim, node, runtime = make_runtime()
        queue_id = runtime.create_eth_tx_queue(vport=2)
        sq = node.nic.sqs[1]
        assert FLD_BAR_BASE <= sq.ring_addr < FLD_BAR_BASE + (1 << 24)
        assert runtime.fld.tx.queue(queue_id).qpn == sq.qpn

    def test_rx_queue_ring_in_host_memory(self):
        _sim, node, runtime = make_runtime()
        rq = runtime.create_rx_queue(vport=2)
        # The descriptor ring is NOT in the FLD BAR (§5.2).
        assert rq.ring_addr < FLD_BAR_BASE
        # It is fully posted and its descriptors point at FLD SRAM.
        assert rq.available == rq.entries
        from repro.nic.wqe import RX_DESC
        buffer_addr, _length, _lkey = RX_DESC.unpack_from(
            node.memory.read_local(rq.slot_addr(0), 16))
        assert buffer_addr >= FLD_BAR_BASE

    def test_fldr_qp_uses_rdma_opcode(self):
        _sim, node, runtime = make_runtime()
        qp, queue_id = runtime.create_fldr_qp(
            vport=2, local_mac="02:00:00:00:00:99", local_ip="10.0.0.2")
        assert qp.sq.transport == SendQueue.TRANSPORT_RC
        from repro.nic import OP_RDMA_SEND
        assert runtime.fld.tx.queue(queue_id).opcode == OP_RDMA_SEND

    def test_tx_queue_slots_bounded(self):
        # One data window per queue: the TX data region holds eight.
        _sim, _node, runtime = make_runtime()
        assert MAX_TX_QUEUES == 8
        for _ in range(MAX_TX_QUEUES):
            runtime.create_eth_tx_queue(vport=2)
        with pytest.raises(FldRuntimeError):
            runtime.create_eth_tx_queue(vport=2)


class TestFldEControlPlane:
    def test_a_tenant_installs_its_resume_table(self):
        _sim, node, runtime = make_runtime()
        control = FldEControlPlane(runtime, vport=2)
        rq = runtime.create_rx_queue(vport=2, set_default=False)
        marker = object()
        control.add_tenant(3, MatchSpec(ip_proto=17), rq,
                           [ForwardToQueue(marker)])
        assert "vport2.tenant3.resume" in node.nic.steering.tables
        assert node.nic._resume_tables  # registered for tx-side resume

    def test_untrusted_context_forgery_rejected(self):
        _sim, _node, runtime = make_runtime()
        control = FldEControlPlane(runtime, vport=2)
        with pytest.raises(FldEPolicyError):
            control.install_tenant_rule(
                MatchSpec(), [SetContextId(99), Drop()])

    def test_untrusted_benign_rule_accepted(self):
        _sim, _node, runtime = make_runtime()
        control = FldEControlPlane(runtime, vport=2)
        rule = control.install_tenant_rule(MatchSpec(dst_port=80), [Drop()])
        assert rule in control.table.rules

    def test_tenant_ids_validated(self):
        _sim, _node, runtime = make_runtime()
        control = FldEControlPlane(runtime, vport=2)
        rq = runtime.create_rx_queue(vport=2, set_default=False)
        with pytest.raises(FldEPolicyError):
            control.add_tenant(0, MatchSpec(), rq, [Drop()])
        with pytest.raises(FldEPolicyError):
            control.add_tenant(1 << 16, MatchSpec(), rq, [Drop()])

    def test_tenant_rate_limit_creates_meter(self):
        _sim, node, runtime = make_runtime()
        control = FldEControlPlane(runtime, vport=2)
        rq = runtime.create_rx_queue(vport=2, set_default=False)
        rule = control.add_tenant(5, MatchSpec(src_ip="10.0.0.5"), rq,
                                  [Drop()], rate_bps=1e9)
        assert node.nic.shaper.has_limiter("tenant5")
        assert any(isinstance(a, Meter) for a in rule.actions)


class TestFldRControlPlane:
    def test_accept_creates_connected_qp(self):
        _sim, _node, runtime = make_runtime()
        control = FldRControlPlane(runtime, vport=2,
                                   mac="02:00:00:00:00:99", ip="10.0.0.2")
        info = control.accept("02:00:00:00:00:01", "10.0.0.1",
                              client_qpn=77)
        qp = control.qps[0]
        assert qp.remote_qpn == 77
        assert info.qpn == qp.qpn
        assert control.queue_map  # reply routing for the accelerator

    def test_multiple_connections_get_distinct_qps(self):
        _sim, _node, runtime = make_runtime()
        control = FldRControlPlane(runtime, vport=2,
                                   mac="02:00:00:00:00:99", ip="10.0.0.2")
        a = control.accept("02:00:00:00:00:01", "10.0.0.1", 1)
        b = control.accept("02:00:00:00:00:02", "10.0.0.3", 2)
        assert a.qpn != b.qpn
        assert control.stats_connections == 2


class TestKernelDriver:
    def test_error_pump_logs_and_dispatches(self):
        sim, _node, runtime = make_runtime()
        kdriver = FldKernelDriver(sim, runtime.fld)
        seen = []
        kdriver.on_error(seen.append)
        runtime.fld.errors.report(FldError.CQE_ERROR, queue=1, syndrome=2)
        runtime.fld.errors.report(FldError.BUFFER_EXHAUSTED, queue=1)
        sim.run()
        assert len(kdriver.error_log) == 2
        assert len(seen) == 2
        assert len(kdriver.errors_of_kind(FldError.CQE_ERROR)) == 1


class TestZucWireFormat:
    def test_request_roundtrip(self):
        message = make_request(OP_EEA3, bytes(range(16)), b"payload",
                               count=9, bearer=4, direction=1,
                               request_id=0xCAFE)
        header = ZucRequest.unpack(message)
        assert header.op == OP_EEA3
        assert header.count == 9
        assert header.bearer == 4
        assert header.direction == 1
        assert header.request_id == 0xCAFE
        assert message[HEADER_SIZE:] == b"payload"

    def test_header_is_64_bytes(self):
        assert len(ZucRequest(OP_EIA3, bytes(16)).pack()) == 64

    def test_parse_response(self):
        header = ZucRequest(OP_EIA3, bytes(16), mac=0xDEAD)
        parsed, payload = parse_response(header.pack() + b"extra")
        assert parsed.mac == 0xDEAD
        assert payload == b"extra"

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            ZucRequest.unpack(b"\x00" * 10)
