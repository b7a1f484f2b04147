"""FLD-R client library (paper Table 4: the 754-LOC helper library).

Wraps a host RDMA endpoint with connection setup against an
:class:`~repro.sw.fldr.FldRControlPlane` and a simple request/response
RPC pattern — the building block of the DPDK cryptodev driver (§7).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..host.driver import RcEndpoint, SoftwareDriver
from ..sim import Event, Simulator, Store
from .fldr import FldRControlPlane, FldRConnectionInfo


class FldRClientError(RuntimeError):
    """Raised on connection misuse."""


class FldRConnection:
    """One client connection to a remote FLD-R accelerator."""

    def __init__(self, sim: Simulator, endpoint: RcEndpoint,
                 info: FldRConnectionInfo):
        self.sim = sim
        self.endpoint = endpoint
        self.info = info

    @property
    def responses(self) -> Store:
        """Raw response messages (payload, cqe)."""
        return self.endpoint.messages

    def post(self, message: bytes) -> Event:
        """Fire a request; event fires when the send is acked."""
        return self.endpoint.post_send(message)


class FldRClient:
    """Client-side connection factory."""

    def __init__(self, driver: SoftwareDriver, vport: int, mac, ip,
                 buffer_size: int = 4096):
        self.driver = driver
        self.sim = driver.sim
        self.vport = vport
        self.mac = mac
        self.ip = ip
        self.buffer_size = buffer_size

    def connect(self, control_plane: FldRControlPlane,
                rx_buffers: int = 256) -> FldRConnection:
        endpoint = self.driver.create_rc_endpoint(
            self.vport, self.mac, self.ip, buffer_size=self.buffer_size,
        )
        endpoint.post_rx_buffers(rx_buffers)
        info = control_plane.accept(self.mac, self.ip, endpoint.qpn)
        endpoint.connect(info.mac, info.ip, info.qpn)
        return FldRConnection(self.sim, endpoint, info)
