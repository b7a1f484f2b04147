"""Integration: FLD-R QP transport failure and recovery (§5.3, Table 4).

A lossy wire starves the FLD QP of acknowledgements until its retry
budget runs out; the NIC flushes the QP to ERR and posts an error CQE
on its FLD completion ring.  The kernel driver dispatches it, and the
``enable_qp_recovery`` hook walks the QP RESET→INIT→RTR→RTS back to
its old remote through the firmware command unit.  Once the wire
heals, the connection carries traffic again without re-handshaking.
"""

from repro.core import FldError
from repro.experiments.setups import fldr_echo
from repro.net import IpAddress, MacAddress, verify_checksum
from repro.net.roce import Bth
from repro.nic import RcQp, RdmaEngine
from repro.sim import Simulator
from repro.sw import FldKernelDriver
from repro.telemetry import Telemetry


class _LossyIngress:
    """Drop RoCE frames arriving at a port while the fault is armed."""

    def __init__(self, port):
        self._deliver = port.on_receive
        port.on_receive = self
        self.armed = False
        self.dropped = 0

    def __call__(self, packet):
        if self.armed and packet.find(Bth) is not None:
            self.dropped += 1
            return
        self._deliver(packet)


def build(telemetry=None):
    sim = Simulator(telemetry=telemetry)
    setup = fldr_echo(sim)  # remote: client and server across a wire
    # The server NIC hosts exactly one QP: the FLD's end of the RC
    # connection the control plane accepted.
    (server_qp,) = setup.server.nic.rdma.qps.values()
    setup.server.nic.rdma.max_retries = 2
    kdriver = FldKernelDriver(sim, setup.runtime.fld)
    return sim, setup, server_qp, kdriver


class TestQpRecovery:
    def test_retry_exhaustion_flushes_qp_to_err(self):
        sim, setup, server_qp, kdriver = build()
        fault = _LossyIngress(setup.client.nic.port)
        fault.armed = True
        assert server_qp.state == RcQp.RTS
        remote_qpn = server_qp.remote_qpn

        setup.connection.post(b"x" * 512)
        sim.run(until=0.05)
        assert fault.dropped > 0
        assert server_qp.state == RcQp.ERR
        assert server_qp.error_syndrome == RdmaEngine.SYNDROME_RETRY_EXCEEDED
        errors = kdriver.errors_of_kind(FldError.CQE_ERROR)
        assert errors
        assert errors[0].syndrome == RdmaEngine.SYNDROME_RETRY_EXCEEDED
        # Without a recovery hook, the QP stays down.
        assert kdriver.stats_recoveries == 0
        assert server_qp.remote_qpn == remote_qpn or \
            server_qp.remote_qpn is None

    def test_recovery_hook_walks_qp_back_to_rts(self):
        sim, setup, server_qp, kdriver = build()
        recovered = []
        kdriver.enable_qp_recovery(
            setup.runtime, on_recovered=lambda qp: recovered.append(
                (qp.state, qp.next_psn, len(qp.outstanding))))
        fault = _LossyIngress(setup.client.nic.port)
        fault.armed = True
        remote_qpn = server_qp.remote_qpn

        setup.connection.post(b"x" * 512)
        sim.run(until=0.05)
        assert fault.dropped > 0
        assert kdriver.errors_of_kind(FldError.CQE_ERROR)
        # While the wire stays down the QP keeps failing and the hook
        # keeps bringing it back: one recovery per ERR drop.
        assert kdriver.stats_recoveries >= 1
        assert kdriver.stats_recoveries == len(
            kdriver.errors_of_kind(FldError.CQE_ERROR))
        # Each recovery left the QP at RTS with fresh PSNs and a
        # flushed send queue, reconnected to the same peer.
        assert recovered
        assert all(r == (RcQp.RTS, 0, 0) for r in recovered)
        assert server_qp.state == RcQp.RTS
        assert server_qp.remote_qpn == remote_qpn

    def test_traffic_resumes_after_wire_heals(self):
        sim, setup, server_qp, kdriver = build()
        kdriver.enable_qp_recovery(setup.runtime)
        fault = _LossyIngress(setup.client.nic.port)
        fault.armed = True
        replies = []

        def consume(sim):
            while True:
                message, _cqe = yield setup.connection.responses.get()
                replies.append((sim.now, message))

        setup.connection.post(b"x" * 512)
        sim.spawn(consume(sim))
        sim.run(until=0.05)
        assert server_qp.state == RcQp.RTS  # recovered while faulted
        assert not replies                  # ... but the echo was lost
        recoveries_while_faulted = kdriver.stats_recoveries
        assert recoveries_while_faulted >= 1
        healed_at = sim.now
        fault.armed = False
        # The client QP never gave up (unbounded retries): its
        # retransmits now land, the echo runs again, the reply passes
        # the healed wire.
        sim.run(until=healed_at + 0.05)
        assert replies
        assert replies[0][1] == b"x" * 512
        # The healed wire acks everything; no further recoveries fire.
        assert kdriver.stats_recoveries == recoveries_while_faulted


def test_reconnect_to_a_new_remote_readdresses_the_next_segment():
    """The recovery walk (RESET→INIT→RTR→RTS through the command
    channel) may land on a different peer; the QP's packed frame heads
    must not outlive the remote they were packed for."""
    sim, setup, server_qp, _kdriver = build()
    rdma = setup.server.nic.rdma
    sent = []
    rdma.drop_filter = lambda qp, frame: sent.append(frame.to_bytes()) or True
    rdma.send_message(server_qp, None, b"x" * 64)      # warms the head
    new_mac, new_ip = MacAddress("02:00:00:00:0b:0b"), IpAddress("10.9.9.9")
    assert (server_qp.remote_mac, server_qp.remote_ip) != (new_mac, new_ip)

    setup.runtime.nic.cmd.connect_qp(server_qp, new_mac, new_ip,
                                     server_qp.remote_qpn)
    rdma.send_message(server_qp, None, b"x" * 64)
    old, new = sent
    assert len(old) == len(new)
    assert new[0:6] == new_mac.pack() and new[30:34] == new_ip.pack()
    assert new[6:12] == old[6:12] and new[26:30] == old[26:30]  # local end
    assert verify_checksum(new[14:34])


def test_engine_aggregates_outlive_the_qp():
    """The engine-wide RDMA counts and the NIC's WQE count belong to
    the device, not to the QP: destroying the QP must not take its
    share back out of them (nor out of the export)."""
    telemetry = Telemetry(trace=False)
    sim, setup, server_qp, _kdriver = build(telemetry)
    nic = setup.server.nic
    setup.connection.post(b"x" * 2048)      # two segments each way
    sim.run(until=0.05)
    names = [f"server.nic.rdma.{key}" for key in (
        "segments_sent", "segments_received", "retransmits",
        "duplicate_segments")] + ["nic.server.nic.tx.wqes"]
    before = telemetry.snapshot()
    assert before["server.nic.rdma.segments_sent"] == 2
    assert before["server.nic.rdma.segments_received"] == 2
    assert before["nic.server.nic.tx.wqes"] == 1
    assert nic.rdma.stats_segments_sent == server_qp.stats_sent_segments == 2

    nic.destroy_rc_qp(server_qp)
    sim.run(until=0.06)
    assert server_qp.qpn not in nic.rdma.qps
    after = telemetry.snapshot()
    assert [after[name] for name in names] == [before[name]
                                               for name in names]
    assert nic.rdma.stats_segments_sent == 2    # what the auditor reads
    assert nic.stats_tx_wqes == 1
