"""Object lifecycle state machines behind the firmware command unit.

Verbs semantics, enforced by the firmware: QPs walk RESET→INIT→RTR→RTS
(any state may drop to ERR or be torn back to RESET); destroys are
refcounted — an object referenced by another cannot go away first.
Every rejection carries a typed status code, never an exception
escaping the device.
"""

import pytest

from repro.nic import CmdError, CmdStatus, ForwardToVport, MatchSpec, RcQp
from repro.nic.cmd import DestroyObject, ModifyQp, QueryObject
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


def make_ctrl():
    sim = Simulator()
    node = make_local_node(sim)
    node.add_vport_for_mac(2, FLD_MAC)
    return sim, node, node.driver.ctrl


def make_qp(ctrl, ring=HOST_MEM_BASE + 0x20000):
    cq = ctrl.alloc_cq(ring, 64)
    rq_cq = ctrl.alloc_cq(ring + 0x1000, 64)
    rq = ctrl.alloc_rq(ring + 0x2000, 64, rq_cq)
    qp = ctrl.alloc_rc_qp(ring + 0x3000, 64, cq, rq, 2, FLD_MAC, FLD_IP)
    return qp


def drive_to(ctrl, qp, state):
    """Walk a fresh QP to ``state`` along the legal path."""
    path = {RcQp.RESET: (), RcQp.INIT: (RcQp.INIT,),
            RcQp.RTR: (RcQp.INIT, RcQp.RTR),
            RcQp.RTS: (RcQp.INIT, RcQp.RTR, RcQp.RTS),
            RcQp.ERR: (RcQp.ERR,)}[state]
    for step in path:
        ctrl.modify_qp(qp, step, remote_mac=FLD_MAC, remote_ip=FLD_IP,
                       remote_qpn=99)
    assert qp.state == state


class TestQpStateMachine:
    def test_every_transition_pair_accepted_or_typed_rejection(self):
        """Exhaustive: each (from, to) edge either succeeds or is
        refused with BAD_STATE — and the state only moves on success."""
        sim, node, ctrl = make_ctrl()
        for src in STATES:
            for dst in STATES:
                qp = make_qp(ctrl)
                drive_to(ctrl, qp, src)
                legal = (dst in (RcQp.RESET, RcQp.ERR)
                         or (src, dst) in LEGAL_FORWARD)
                result = node.nic.cmd.execute(ModifyQp(
                    qp=qp, state=dst, remote_mac=FLD_MAC,
                    remote_ip=FLD_IP, remote_qpn=99))
                if legal:
                    assert result.ok, (src, dst, result)
                    assert qp.state == dst
                else:
                    assert result.status == CmdStatus.BAD_STATE, (src, dst)
                    assert qp.state == src

    def test_unknown_state_is_bad_param(self):
        sim, node, ctrl = make_ctrl()
        qp = make_qp(ctrl)
        result = node.nic.cmd.execute(ModifyQp(qp=qp, state="warp"))
        assert result.status == CmdStatus.BAD_PARAM

    def test_rtr_without_remote_endpoint_is_bad_state(self):
        sim, node, ctrl = make_ctrl()
        qp = make_qp(ctrl)
        ctrl.modify_qp(qp, RcQp.INIT)
        result = node.nic.cmd.execute(ModifyQp(qp=qp, state=RcQp.RTR))
        assert result.status == CmdStatus.BAD_STATE
        assert qp.state == RcQp.INIT

    def test_reset_clears_transport_state_and_remote(self):
        sim, node, ctrl = make_ctrl()
        qp = make_qp(ctrl)
        ctrl.connect_qp(qp, FLD_MAC, FLD_IP, 42, rq_psn=5, sq_psn=9)
        assert qp.state == RcQp.RTS
        assert (qp.remote_qpn, qp.expected_psn, qp.next_psn) == (42, 5, 9)
        ctrl.modify_qp(qp, RcQp.RESET)
        assert qp.remote_qpn is None
        assert qp.next_psn == 0 and qp.expected_psn == 0

    def test_connect_qp_reconnects_from_any_state(self):
        sim, node, ctrl = make_ctrl()
        qp = make_qp(ctrl)
        ctrl.connect_qp(qp, FLD_MAC, FLD_IP, 42)
        ctrl.modify_qp(qp, RcQp.ERR)
        ctrl.connect_qp(qp, FLD_MAC, FLD_IP, 43)
        assert qp.state == RcQp.RTS
        assert qp.remote_qpn == 43


class TestHandleDiscipline:
    def test_query_and_destroy_unknown_handle(self):
        sim, node, ctrl = make_ctrl()
        for cmd in (QueryObject(handle=0xDEAD), DestroyObject(handle=0xDEAD)):
            result = node.nic.cmd.execute(cmd)
            assert result.status == CmdStatus.BAD_HANDLE

    def test_failure_status_is_returned_not_raised(self):
        sim, node, ctrl = make_ctrl()
        result = node.nic.cmd.execute(ModifyQp(qp=object(), state="rts"))
        assert not result.ok
        assert result.status == CmdStatus.BAD_HANDLE

    def test_a_result_repr_names_its_status_and_handle(self):
        sim, node, ctrl = make_ctrl()
        result = node.nic.cmd.execute(ModifyQp(qp=object(), state="rts"))
        assert repr(result).startswith("CmdResult(BAD_HANDLE, handle=0x")

    def test_unregistered_object_is_bad_handle(self):
        sim, node, ctrl = make_ctrl()
        with pytest.raises(CmdError) as err:
            ctrl.modify_qp(object(), RcQp.INIT)
        assert err.value.status == CmdStatus.BAD_HANDLE

    def test_query_reports_qp_state(self):
        sim, node, ctrl = make_ctrl()
        qp = make_qp(ctrl)
        ctrl.connect_qp(qp, FLD_MAC, FLD_IP, 42)
        info = ctrl.query(qp)
        assert info["kind"] == "qp"
        assert info["state"] == RcQp.RTS


class TestRefcountedDestroy:
    def test_cq_pinned_by_its_sq(self):
        sim, node, ctrl = make_ctrl()
        cq = ctrl.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        sq = ctrl.alloc_sq(HOST_MEM_BASE + 0x21000, 64, cq, vport=2)
        with pytest.raises(CmdError) as err:
            ctrl.destroy(cq)
        assert err.value.status == CmdStatus.IN_USE
        # Dependency order: SQ first, then the CQ goes quietly.
        ctrl.destroy(sq)
        ctrl.destroy(cq)
        assert len(node.nic.cmd.table) == 2  # vport + its fdb rule

    def test_qp_pins_both_cq_and_rq(self):
        sim, node, ctrl = make_ctrl()
        cq = ctrl.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        rq_cq = ctrl.alloc_cq(HOST_MEM_BASE + 0x21000, 64)
        rq = ctrl.alloc_rq(HOST_MEM_BASE + 0x22000, 64, rq_cq)
        qp = ctrl.alloc_rc_qp(HOST_MEM_BASE + 0x23000, 64, cq, rq, 2,
                              FLD_MAC, FLD_IP)
        for pinned in (cq, rq):
            with pytest.raises(CmdError) as err:
                ctrl.destroy(pinned)
            assert err.value.status == CmdStatus.IN_USE
        ctrl.destroy(qp)
        for obj in (rq, rq_cq, cq):
            ctrl.destroy(obj)

    def test_default_route_pins_the_rq(self):
        sim, node, ctrl = make_ctrl()
        cq = ctrl.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        rq = ctrl.alloc_rq(HOST_MEM_BASE + 0x21000, 64, cq)
        ctrl.set_default_queue(2, rq)
        with pytest.raises(CmdError) as err:
            ctrl.destroy(rq)
        assert err.value.status == CmdStatus.IN_USE
        ctrl.clear_default_queue(2)
        ctrl.destroy(rq)
        ctrl.destroy(cq)

    def test_destroy_is_not_idempotent(self):
        sim, node, ctrl = make_ctrl()
        cq = ctrl.alloc_cq(HOST_MEM_BASE + 0x20000, 64)
        ctrl.destroy(cq)
        with pytest.raises(CmdError) as err:
            ctrl.destroy(cq)
        assert err.value.status == CmdStatus.BAD_HANDLE
        # ... but try_destroy shrugs it off (teardown paths lean on it).
        assert ctrl.try_destroy(cq) is False


class TestRuleCommands:
    def test_install_rule_references_its_vport(self):
        sim, node, ctrl = make_ctrl()
        vport = ctrl.ensure_vport(4)
        rule = ctrl.install_rule(
            "fdb", MatchSpec(dst_mac="02:00:00:00:00:04"),
            [ForwardToVport(4)], priority=10)
        vport_handle = ctrl.handle_of(vport)
        rule_handle = ctrl.handle_of(rule)
        entry = node.nic.cmd.table.get(rule_handle)
        assert vport_handle in entry.deps
        # The vPort is pinned while the rule stands.
        result = node.nic.cmd.execute(DestroyObject(handle=vport_handle))
        assert result.status == CmdStatus.IN_USE

    def test_install_rule_refuses_a_missing_vport(self):
        sim, node, ctrl = make_ctrl()
        objects = len(node.nic.cmd.table)
        rules = len(node.nic.steering.table("fdb").rules)
        with pytest.raises(CmdError) as err:
            ctrl.install_rule("fdb", MatchSpec(dst_mac="02:00:00:00:00:07"),
                              [ForwardToVport(7)], priority=10)
        assert err.value.status == CmdStatus.BAD_HANDLE
        assert len(node.nic.cmd.table) == objects
        assert len(node.nic.steering.table("fdb").rules) == rules

    def test_a_vport_with_no_firmware_handle_stays_unpinned(self):
        sim, node, ctrl = make_ctrl()
        node.nic.eswitch.add_vport(7)
        rule = ctrl.install_rule(
            "fdb", MatchSpec(dst_mac="02:00:00:00:00:07"),
            [ForwardToVport(7)], priority=10)
        assert node.nic.cmd.table.get(ctrl.handle_of(rule)).deps == []
