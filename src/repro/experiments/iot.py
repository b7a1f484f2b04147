"""The IoT token-authentication experiments (§8.2.3).

Two parts:

* **line rate** — valid-token CoAP traffic at increasing packet sizes;
  the offload meets 25 GbE line rate for packets >= 256 B;
* **isolation** — two tenants offering 8 and 16 Gbps against an
  accelerator configured to accept 12 Gbps.  Without shaping the
  accelerator is divided in proportion to arrival rate (paper: 4.15 vs
  8.35 Gbps); with the NIC shaping both tenants to 6 Gbps, tenant A gets
  its full allocation (6 vs 6).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

from ..accelerators.iot import CoapMessage, POST, sign_token
from ..net import Flow
from ..nic import ForwardToQueue, MatchSpec
from ..sw import FldEControlPlane
from ..sweep import SweepPoint
from ..topology import AccelFnSpec, FldSpec, HostQpSpec, VportSpec
from ..topology import build as build_topology
from .echo import scenario_row
from .setups import CLIENT_MAC, SERVER_IP, SERVER_MAC, Calibration, remote_spec

TENANT_A, TENANT_B = 1, 2
KEY_A = b"tenant-a-secret-hmac-key"
KEY_B = b"tenant-b-secret-hmac-key"


def make_iot_frame(flow: Flow, key: bytes, frame_size: int,
                   valid: bool = True) -> bytes:
    """A CoAP-over-UDP frame carrying an HS256 JWT, padded to size."""
    token = sign_token({"sub": "sensor", "seq": 1}, key if valid
                       else b"wrong-key")
    coap = CoapMessage(code=POST, payload=token + b"\x00")
    packet = flow.make_packet(coap.pack(), fill_checksums=False)
    pad = frame_size - packet.size()
    if pad > 0:
        coap = CoapMessage(code=POST, payload=token + b"\x00" + bytes(pad))
        packet = flow.make_packet(coap.pack(), fill_checksums=False)
    return packet.to_bytes()


def build(sim, cal: Calibration, isolation: bool = False,
          shaped: bool = False):
    """Server with the IoT offload; tenants classified by source IP.

    The isolation testbed caps the accelerator at 12 Gbps and, when
    ``shaped``, each tenant at 6 Gbps on the NIC.
    """
    spec = remote_spec(
        "iot-auth",
        vports=[VportSpec(node="client", vport=1, mac=CLIENT_MAC),
                VportSpec(node="server", vport=1, mac=SERVER_MAC)],
        flds=[FldSpec(node="server")],
        accel_fns=[AccelFnSpec(name="iot-auth", fld="server.fld",
                               kind="iot-auth", vport=1, units=8,
                               rx_default=False)],
        # Post-auth delivery: validated packets land in a host queue.
        host_qps=[HostQpSpec(name="host", node="server", vport=1,
                             register_default=False, rq_entries=4096,
                             post_rx=4096)],
    )
    testbed = build_topology(sim, spec, cal=cal)
    client, server = testbed.node("client"), testbed.node("server")
    fn = testbed.accel("iot-auth")
    runtime, fld_rq, accel = fn.runtime, fn.rq, fn.accel
    accel.set_tenant_key(TENANT_A, KEY_A)
    accel.set_tenant_key(TENANT_B, KEY_B)
    if isolation:
        accel.capacity_bps = 12e9

    host_qp = testbed.host_qp("host")
    control = FldEControlPlane(runtime, vport=1)
    for tenant, src_ip in ((TENANT_A, "10.0.0.1"), (TENANT_B, "10.0.0.3")):
        control.add_tenant(tenant, MatchSpec(src_ip=src_ip), fld_rq,
                           [ForwardToQueue(host_qp.rq)],
                           rate_bps=6e9 if shaped else None)

    client_qp = client.driver.create_eth_qp(vport=1, use_mmio_wqe=True,
                                            sq_entries=4096)
    client_qp.post_rx_buffers(64)
    testbed.host_qps["client"] = client_qp   # closed by Testbed.teardown
    flow_a = Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.1", SERVER_IP, 5001, 5683)
    flow_b = Flow(CLIENT_MAC, SERVER_MAC, "10.0.0.3", SERVER_IP, 5002, 5683)
    return SimpleNamespace(client=client, server=server,
                           accel=accel, client_qp=client_qp,
                           flow_a=flow_a, flow_b=flow_b, host_qp=host_qp,
                           control=control, shaped=shaped, testbed=testbed)


def _paced_sender(sim, qp, frame: bytes, rate_bps: float, duration: float):
    """Offer ``frame`` at ``rate_bps`` for ``duration`` seconds."""
    gap = len(frame) * 8 / rate_bps
    end = sim.now + duration
    while sim.now < end:
        yield from qp.wait_for_tx_space()
        qp.send(frame)
        yield sim.timeout(gap)


def drive_line_rate(sim, setup, count: Optional[int], size: int,
                    duration: float = 0.1e-3) -> Dict:
    """Valid-token traffic at 25 Gb/s for ``duration`` seconds (the
    default is a short observed run; the §8.2.3 points take 0.4 ms)."""
    frame = make_iot_frame(setup.flow_a, KEY_A, size)
    sim.spawn(_paced_sender(sim, setup.client_qp, frame, 25e9, duration))
    sim.run(until=duration + 0.2e-3)
    valid_bytes = setup.accel.stats_tenant_valid_bytes.get(TENANT_A, 0)
    return {
        "size": len(frame),
        "validated_gbps": valid_bytes * 8 / duration / 1e9,
        "offered_gbps": 25.0,
        "invalid": setup.accel.stats_invalid,
    }


def line_rate_point(size: int, duration: float = 0.4e-3) -> Dict:
    """One §8.2.3 line-rate point: valid-token traffic at one size
    (scenario ``iot-line-rate``)."""
    return scenario_row("iot-line-rate", size=size, duration=duration)


def line_rate_points(sizes: Optional[List[int]] = None,
                     duration: float = 0.4e-3) -> List[SweepPoint]:
    """§8.2.3: the offload meets line rate for packets >= 256 B."""
    sizes = sizes or [256, 512, 1024, 1500]
    return [
        SweepPoint("iot-line-rate",
                   "repro.experiments.iot:line_rate_point",
                   {"size": size, "duration": duration})
        for size in sizes
    ]


def drive_isolation(sim, setup, count: Optional[int], size: int,
                    duration: float = 0.5e-3) -> Dict:
    """Tenant A at 8 Gbps and tenant B at 16 Gbps for ``duration`` (the
    default is a short observed run; the §8.2.3 points take 4 ms)."""
    frame_a = make_iot_frame(setup.flow_a, KEY_A, size)
    frame_b = make_iot_frame(setup.flow_b, KEY_B, size)
    sim.spawn(_paced_sender(sim, setup.client_qp, frame_a, 8e9, duration))
    sim.spawn(_paced_sender(sim, setup.client_qp, frame_b, 16e9, duration))
    sim.run(until=duration + 1e-3)
    bytes_a = setup.accel.stats_tenant_valid_bytes.get(TENANT_A, 0)
    bytes_b = setup.accel.stats_tenant_valid_bytes.get(TENANT_B, 0)
    return {
        "shaped": setup.shaped,
        "tenant_a_gbps": bytes_a * 8 / duration / 1e9,
        "tenant_b_gbps": bytes_b * 8 / duration / 1e9,
        "dropped": setup.accel.stats_dropped,
        "meter_drops": setup.server.nic.stats_meter_drops,
    }


def isolation(shaped: bool, duration: float = 4e-3,
              frame_size: int = 1024) -> Dict:
    """§8.2.3 isolation: 8 + 16 Gbps tenants, 12 Gbps accelerator
    (scenario ``iot-isolation``)."""
    return scenario_row("iot-isolation", size=frame_size,
                        shape={"shaped": shaped}, duration=duration)


def isolation_points(duration: float = 4e-3,
                     frame_size: int = 1024) -> List[SweepPoint]:
    """§8.2.3 isolation, unshaped vs shaped, as two sweep points."""
    return [
        SweepPoint("iot", "repro.experiments.iot:isolation",
                   {"shaped": shaped, "duration": duration,
                    "frame_size": frame_size})
        for shaped in (False, True)
    ]


def drop_invalid_tokens(count: int = 200, frame_size: int = 512) -> Dict:
    """The DDoS story: forged tokens die in the accelerator."""
    from ..scenario import elaborate  # the registry imports this module
    sim, setup = elaborate("iot-line-rate")
    good = make_iot_frame(setup.flow_a, KEY_A, frame_size, valid=True)
    bad = make_iot_frame(setup.flow_a, KEY_A, frame_size, valid=False)

    def sender(sim):
        for i in range(count):
            yield from setup.client_qp.wait_for_tx_space()
            setup.client_qp.send(good if i % 2 == 0 else bad)
            yield sim.timeout(1e-6)

    sim.spawn(sender(sim))
    sim.run(until=0.01)
    return {
        "valid": setup.accel.stats_valid,
        "invalid": setup.accel.stats_invalid,
        "delivered_to_host": setup.host_qp.stats_rx,
    }
