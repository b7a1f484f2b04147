"""Object lifecycle state machines behind the firmware command unit.

Verbs semantics, enforced by the firmware: QPs walk RESET→INIT→RTR→RTS
(any state may drop to ERR or be torn back to RESET); destroys are
refcounted — an object referenced by another cannot go away first.
Every rejection raises :class:`CmdError` carrying a typed status, never
a device exception.
"""

import pytest

from repro.nic import (CmdError, CmdStatus, ForwardToVport, MatchSpec,
                       QueueError, RcQp, SteeringError)
from repro.nic.rdma import QpStateError
from repro.sim import Simulator
from repro.testbed import HOST_MEM_BASE, make_local_node

FLD_MAC = "02:00:00:00:00:99"
FLD_IP = "10.0.0.99"

STATES = (RcQp.RESET, RcQp.INIT, RcQp.RTR, RcQp.RTS, RcQp.ERR)

#: The only ways forward; RESET and ERR are reachable from anywhere.
LEGAL_FORWARD = {
    (RcQp.RESET, RcQp.INIT),
    (RcQp.INIT, RcQp.RTR),
    (RcQp.RTR, RcQp.RTS),
}


def make_unit():
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, FLD_MAC)
    return sim, node, node.nic.cmd


def make_qp(cmd, ring=HOST_MEM_BASE + 0x20000):
    cq = cmd.alloc_cq(ring, 64)
    rq_cq = cmd.alloc_cq(ring + 0x1000, 64)
    rq = cmd.alloc_rq(ring + 0x2000, 64, rq_cq)
    qp = cmd.alloc_rc_qp(ring + 0x3000, 64, cq, rq, 2, FLD_MAC, FLD_IP)
    return qp


def drive_to(cmd, qp, state):
    """Walk a fresh QP to ``state`` along the legal path."""
    path = {RcQp.RESET: (), RcQp.INIT: (RcQp.INIT,),
            RcQp.RTR: (RcQp.INIT, RcQp.RTR),
            RcQp.RTS: (RcQp.INIT, RcQp.RTR, RcQp.RTS),
            RcQp.ERR: (RcQp.ERR,)}[state]
    for step in path:
        cmd.modify_qp(qp, step, remote_mac=FLD_MAC, remote_ip=FLD_IP,
                       remote_qpn=99)
    assert qp.state == state


class TestQpStateMachine:
    def test_every_transition_pair_accepted_or_typed_rejection(self):
        """Exhaustive: each (from, to) edge either succeeds or is
        refused with BAD_STATE — and the state only moves on success."""
        sim, node, cmd = make_unit()
        for src in STATES:
            for dst in STATES:
                qp = make_qp(cmd)
                drive_to(cmd, qp, src)
                legal = (dst in (RcQp.RESET, RcQp.ERR)
                         or (src, dst) in LEGAL_FORWARD)
                attrs = dict(remote_mac=FLD_MAC, remote_ip=FLD_IP,
                             remote_qpn=99)
                if legal:
                    cmd.modify_qp(qp, dst, **attrs)
                    assert qp.state == dst
                else:
                    with pytest.raises(CmdError) as err:
                        cmd.modify_qp(qp, dst, **attrs)
                    assert err.value.status == CmdStatus.BAD_STATE, (src, dst)
                    assert qp.state == src

    def test_unknown_state_is_bad_param(self):
        sim, node, cmd = make_unit()
        qp = make_qp(cmd)
        with pytest.raises(CmdError) as err:
            cmd.modify_qp(qp, "warp")
        assert err.value.status == CmdStatus.BAD_PARAM

    def test_rtr_without_remote_endpoint_is_bad_state(self):
        sim, node, cmd = make_unit()
        qp = make_qp(cmd)
        cmd.modify_qp(qp, RcQp.INIT)
        with pytest.raises(CmdError) as err:
            cmd.modify_qp(qp, RcQp.RTR)
        assert err.value.status == CmdStatus.BAD_STATE
        assert qp.state == RcQp.INIT

    def test_reset_clears_transport_state_and_remote(self):
        sim, node, cmd = make_unit()
        qp = make_qp(cmd)
        cmd.connect_qp(qp, FLD_MAC, FLD_IP, 42, rq_psn=5, sq_psn=9)
        assert qp.state == RcQp.RTS
        assert (qp.remote_qpn, qp.expected_psn, qp.next_psn) == (42, 5, 9)
        cmd.modify_qp(qp, RcQp.RESET)
        assert qp.remote_qpn is None
        assert qp.next_psn == 0 and qp.expected_psn == 0

    def test_connect_qp_reconnects_from_any_state(self):
        sim, node, cmd = make_unit()
        qp = make_qp(cmd)
        cmd.connect_qp(qp, FLD_MAC, FLD_IP, 42)
        cmd.modify_qp(qp, RcQp.ERR)
        cmd.connect_qp(qp, FLD_MAC, FLD_IP, 43)
        assert qp.state == RcQp.RTS
        assert qp.remote_qpn == 43


class TestHandleDiscipline:
    def test_query_and_destroy_unknown_handle(self):
        sim, node, cmd = make_unit()
        for verb in (cmd.query, cmd.destroy):
            with pytest.raises(CmdError) as err:
                verb(0xDEAD)
            assert err.value.status == CmdStatus.BAD_HANDLE

    def test_failure_is_a_typed_error_that_leaves_the_table(self):
        sim, node, cmd = make_unit()
        before = cmd.table.rows()
        with pytest.raises(CmdError) as err:
            cmd.modify_qp(object(), "rts")
        assert isinstance(err.value.status, CmdStatus)
        assert err.value.status == CmdStatus.BAD_HANDLE
        assert cmd.table.rows() == before

    def test_unregistered_object_is_bad_handle(self):
        sim, node, cmd = make_unit()
        with pytest.raises(CmdError) as err:
            cmd.modify_qp(object(), RcQp.INIT)
        assert err.value.status == CmdStatus.BAD_HANDLE

    def test_query_reports_qp_state(self):
        sim, node, cmd = make_unit()
        qp = make_qp(cmd)
        cmd.connect_qp(qp, FLD_MAC, FLD_IP, 42)
        info = cmd.query(qp)
        assert info["kind"] == "qp"
        assert info["state"] == RcQp.RTS


class TestFailureMapping:
    """One wrapper types every failure: an error escaping a verb's body
    raises the status it maps to, and the table stays as it was."""

    @pytest.mark.parametrize("error,status", [
        (QpStateError("edge"), CmdStatus.BAD_STATE),
        (QueueError("ring"), CmdStatus.BAD_PARAM),
        (SteeringError("table"), CmdStatus.BAD_PARAM),
        (ValueError("size"), CmdStatus.BAD_PARAM),
        (KeyError("other"), CmdStatus.INTERNAL),
    ], ids=["qp-state", "queue", "steering", "value", "other"])
    def test_a_device_error_becomes_its_status(self, monkeypatch, error,
                                               status):
        sim, node, cmd = make_unit()

        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(node.nic, "create_cq", fail)
        before = cmd.table.rows()
        with pytest.raises(CmdError) as err:
            cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        assert err.value.status == status
        assert err.value.__cause__ is error
        assert cmd.table.rows() == before

    def test_a_cmd_error_passes_through_with_its_syndrome(self, monkeypatch):
        sim, node, cmd = make_unit()
        error = CmdError(CmdStatus.NO_RESOURCES, syndrome=7)

        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(node.nic, "create_cq", fail)
        with pytest.raises(CmdError) as err:
            cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        assert err.value is error
        assert (err.value.status, err.value.syndrome) == (
            CmdStatus.NO_RESOURCES, 7)


class TestRefcountedDestroy:
    def test_cq_pinned_by_its_sq(self):
        sim, node, cmd = make_unit()
        cq = cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        sq = cmd.alloc_sq(HOST_MEM_BASE + 0x21000, 64, cq, vport=2)
        with pytest.raises(CmdError) as err:
            cmd.destroy(cq)
        assert err.value.status == CmdStatus.IN_USE
        # Dependency order: SQ first, then the CQ goes quietly.
        cmd.destroy(sq)
        cmd.destroy(cq)
        assert len(node.nic.cmd.table) == 2  # vport + its fdb rule

    def test_qp_pins_both_cq_and_rq(self):
        sim, node, cmd = make_unit()
        cq = cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        rq_cq = cmd.alloc_cq(HOST_MEM_BASE + 0x21000, 64)
        rq = cmd.alloc_rq(HOST_MEM_BASE + 0x22000, 64, rq_cq)
        qp = cmd.alloc_rc_qp(HOST_MEM_BASE + 0x23000, 64, cq, rq, 2,
                              FLD_MAC, FLD_IP)
        for pinned in (cq, rq):
            with pytest.raises(CmdError) as err:
                cmd.destroy(pinned)
            assert err.value.status == CmdStatus.IN_USE
        cmd.destroy(qp)
        for obj in (rq, rq_cq, cq):
            cmd.destroy(obj)

    def test_default_route_pins_the_rq(self):
        sim, node, cmd = make_unit()
        cq = cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        rq = cmd.alloc_rq(HOST_MEM_BASE + 0x21000, 64, cq)
        cmd.set_default_queue(2, rq)
        with pytest.raises(CmdError) as err:
            cmd.destroy(rq)
        assert err.value.status == CmdStatus.IN_USE
        cmd.clear_default_queue(2)
        cmd.destroy(rq)
        cmd.destroy(cq)

    def test_destroy_is_not_idempotent(self):
        sim, node, cmd = make_unit()
        cq = cmd.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        cmd.destroy(cq)
        with pytest.raises(CmdError) as err:
            cmd.destroy(cq)
        assert err.value.status == CmdStatus.BAD_HANDLE
        # ... but try_destroy shrugs it off (teardown paths lean on it).
        assert cmd.try_destroy(cq) is False


class TestRuleCommands:
    def test_install_rule_references_its_vport(self):
        sim, node, cmd = make_unit()
        vport = cmd.ensure_vport(4)
        rule = cmd.install_rule(
            "fdb", MatchSpec(dst_mac="02:00:00:00:00:04"),
            [ForwardToVport(4)], priority=10)
        vport_handle = cmd.handle_of(vport)
        rule_handle = cmd.handle_of(rule)
        entry = node.nic.cmd.table.get(rule_handle)
        assert vport_handle in entry.deps
        # The vPort is pinned while the rule stands.
        with pytest.raises(CmdError) as err:
            cmd.destroy(vport_handle)
        assert err.value.status == CmdStatus.IN_USE

    def test_install_rule_refuses_a_missing_vport(self):
        sim, node, cmd = make_unit()
        objects = len(node.nic.cmd.table)
        rules = len(node.nic.steering.table("fdb").rules)
        with pytest.raises(CmdError) as err:
            cmd.install_rule("fdb", MatchSpec(dst_mac="02:00:00:00:00:07"),
                              [ForwardToVport(7)], priority=10)
        assert err.value.status == CmdStatus.BAD_HANDLE
        assert len(node.nic.cmd.table) == objects
        assert len(node.nic.steering.table("fdb").rules) == rules

    def test_a_vport_with_no_firmware_handle_stays_unpinned(self):
        sim, node, cmd = make_unit()
        node.nic.eswitch.add_vport(7)
        rule = cmd.install_rule(
            "fdb", MatchSpec(dst_mac="02:00:00:00:00:07"),
            [ForwardToVport(7)], priority=10)
        assert node.nic.cmd.table.get(cmd.handle_of(rule)).deps == []
