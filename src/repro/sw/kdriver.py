"""FLD kernel driver (§5.3 "Error Handling", Table 4).

The kernel-side shim between FLD hardware and control-plane
applications: it drains the hardware error channel and dispatches
asynchronous error notifications to registered handlers, keeping a log
for diagnostics.  Recovery policy stays with the application, as in
RDMA Verbs — but the driver ships one canned policy,
:meth:`FldKernelDriver.enable_qp_recovery`, which walks an ERR'd FLD-R
QP back to RTS through the firmware command unit (the Table 4
reset-and-reconnect flow).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core import FlexDriver, FldError
from ..nic import RcQp
from ..sim import Simulator


class FldKernelDriver:
    """Error-channel consumer and dispatcher."""

    def __init__(self, sim: Simulator, fld: FlexDriver):
        self.sim = sim
        self.fld = fld
        self.error_log: List[FldError] = []
        self._handlers: List[Callable[[FldError], None]] = []
        #: (handler, error, exception) triples from handlers that raised;
        #: a faulty handler must not kill the pump or starve its peers.
        self.handler_failures: List[Tuple] = []
        self.stats_recoveries = 0
        sim.spawn(self._error_pump(), name=f"{fld.name}.kdriver")

    def on_error(self, handler: Callable[[FldError], None]) -> None:
        """Register an asynchronous error handler."""
        self._handlers.append(handler)

    def _error_pump(self):
        while True:
            error = yield self.fld.errors.channel.get()
            self.error_log.append(error)
            # Handlers run in registration order; one raising must not
            # abort the pump or skip the handlers behind it.
            for handler in list(self._handlers):
                try:
                    handler(error)
                except Exception as exc:
                    self.handler_failures.append((handler, error, exc))

    def errors_of_kind(self, kind: str) -> List[FldError]:
        return [e for e in self.error_log if e.kind == kind]

    # ------------------------------------------------------------------
    # QP recovery (Table 4)
    # ------------------------------------------------------------------

    def enable_qp_recovery(
            self, runtime,
            on_recovered: Optional[Callable[[RcQp], None]] = None) -> None:
        """Auto-recover the runtime's FLD-R QPs from transport failure.

        When a QP exhausts its retransmit budget the NIC flushes it to
        ERR and posts an error CQE onto its FLD completion ring; that
        surfaces here as a ``cqe_error``.  The recovery handler walks
        the QP RESET→INIT→RTR→RTS through the command unit against
        its previous remote endpoint (fresh PSNs), then invokes
        ``on_recovered`` so the application can resynchronize the peer.
        """

        def recover(error: FldError) -> None:
            if error.kind != FldError.CQE_ERROR:
                return
            qp = runtime.qp_for_cq(error.queue)
            if qp is None or qp.state != RcQp.ERR:
                return
            remote = (qp.remote_mac, qp.remote_ip, qp.remote_qpn)
            if remote[2] is None:
                return  # never connected; nothing to restore
            runtime.nic.cmd.connect_qp(qp, *remote)
            self.stats_recoveries += 1
            if on_recovered is not None:
                on_recovered(qp)

        self.on_error(recover)
