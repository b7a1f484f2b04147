"""FLD-R control plane (§5.3): a standard RDMA server for FLD QPs.

The control plane owns the *transport endpoint* half of the split QP
abstraction: it creates FLD-R QPs on behalf of the accelerator, accepts
client connections (the out-of-band connection exchange a real
deployment would run over RDMA-CM), and binds each connection's receive
path to the accelerator's reply queue.
"""

from __future__ import annotations

from typing import Dict, List

from ..nic import RcQp
from .runtime import FldRuntime


class FldRConnectionInfo:
    """What the server returns to a connecting client."""

    __slots__ = ("qpn", "queue_id", "mac", "ip")

    def __init__(self, qpn: int, queue_id: int, mac, ip):
        self.qpn = qpn
        self.queue_id = queue_id
        self.mac = mac
        self.ip = ip


class FldRControlPlane:
    """Manages FLD-R QPs for one accelerator service."""

    def __init__(self, runtime: FldRuntime, vport: int, mac, ip):
        self.runtime = runtime
        self.vport = vport
        self.mac = mac
        self.ip = ip
        self.qps: List[RcQp] = []
        # All of this service's QPs deliver through ONE shared MPRQ
        # (the ConnectX shared multi-packet RQ of §6); replies route by
        # the CQE's QPN: qpn -> reply (tx) queue id.
        self.shared_rq = runtime.create_rx_queue(vport, set_default=False)
        self.queue_map: Dict[int, int] = {}
        self.stats_connections = 0

    def accept(self, client_mac, client_ip,
               client_qpn: int) -> FldRConnectionInfo:
        """Handle a client connection request.

        Creates a fresh FLD-R QP bound to the accelerator, connects it to
        the client's QP, and reports the server QPN back.  In a real
        deployment this exchange runs over the network (RDMA-CM); the
        direct call models that out-of-band channel.
        """
        qp, queue_id = self.runtime.create_fldr_qp(
            self.vport, local_mac=self.mac, local_ip=self.ip,
            rq=self.shared_rq,
        )
        self.runtime.nic.cmd.connect_qp(qp, client_mac, client_ip, client_qpn)
        self.qps.append(qp)
        self.queue_map[qp.qpn] = queue_id
        self.stats_connections += 1
        return FldRConnectionInfo(qp.qpn, queue_id, self.mac, self.ip)
