"""A DPDK-cryptodev-style API with software and FLD-R ZUC drivers (§7).

The paper's point: because the disaggregated accelerator hides behind
the standard cryptodev abstraction, applications swap a local device
(e.g. Intel QAT or the IPsec-MB software driver) for the remote FLD one
*without code changes*.  Both drivers below implement the same
``submit``/``completions`` interface:

* :class:`SwZucCryptodev` — the CPU baseline: the real ZUC cipher, timed
  with a cycles-per-byte cost model (Intel Multi-Buffer class).
* :class:`FldRZucCryptodev` — the paper's driver (Table 4: 732 LOC): a
  thin shim marshalling ops onto an FLD-R connection.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..accelerators.zuc.accel import (
    OP_EEA3,
    OP_EIA3,
    STATUS_OK,
    make_request,
    parse_response,
)
from ..accelerators.zuc.eea3 import eea3_encrypt
from ..accelerators.zuc.eia3 import eia3_mac
from ..host.cpu import CpuComputeCost
from ..sim import Pump, Simulator, Store
from .client import FldRConnection


class CryptoOp:
    """One cryptographic operation (the rte_crypto_op analogue)."""

    _ids = itertools.count()

    __slots__ = ("op_id", "kind", "key", "count", "bearer", "direction",
                 "payload", "result", "mac", "status", "submitted_at",
                 "completed_at")

    CIPHER = "cipher"      # 128-EEA3
    AUTH = "auth"          # 128-EIA3

    def __init__(self, kind: str, key: bytes, payload: bytes,
                 count: int = 0, bearer: int = 0, direction: int = 0):
        self.op_id = next(self._ids)
        self.kind = kind
        self.key = key
        self.count = count
        self.bearer = bearer
        self.direction = direction
        self.payload = payload
        self.result: Optional[bytes] = None
        self.mac: Optional[int] = None
        self.status: Optional[int] = None
        self.submitted_at = 0.0
        self.completed_at = 0.0

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at


class Cryptodev:
    """The device-independent API: submit ops, collect completions."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.completions = Store(sim, name=f"{name}.completions")
        self.stats_submitted = 0
        self.stats_completed = 0

    def submit(self, op: CryptoOp) -> None:
        raise NotImplementedError

    def _complete(self, op: CryptoOp) -> None:
        op.completed_at = self.sim._now
        self.stats_completed += 1
        self.completions.try_put(op)


class SwZucCryptodev(Cryptodev):
    """CPU software driver: one core running the real cipher.

    Timing follows a cycles/byte model calibrated to Intel IPsec-MB class
    ZUC performance (~1.6 cycles/byte plus a fixed per-op cost), which
    puts a 2.3 GHz core near the paper's ~4.4 Gbps at 512 B requests.
    """

    def __init__(self, sim: Simulator, compute: CpuComputeCost,
                 name: str = "sw-zuc"):
        super().__init__(sim, name)
        self.compute = compute
        self._queue = Store(sim, name=f"{name}.queue")
        # The compute time this driver schedules files under its core.
        self.profile_tag = f"{name}.core"
        self._pump = Pump(sim, self._queue, self._start, self.profile_tag)

    def submit(self, op: CryptoOp) -> None:
        op.submitted_at = self.sim._now
        self.stats_submitted += 1
        self._queue.try_put(op)

    def _start(self, op: CryptoOp) -> bool:
        self.sim.call_later(self.compute.seconds_for(len(op.payload)),
                            self._finish, op)
        return False    # one op at a time: _finish resumes the pump

    def _finish(self, op: CryptoOp) -> None:
        if op.kind == CryptoOp.CIPHER:
            op.result = eea3_encrypt(op.key, op.count, op.bearer,
                                     op.direction, op.payload)
        else:
            op.mac = eia3_mac(op.key, op.count, op.bearer,
                              op.direction, op.payload)
        op.status = STATUS_OK
        self._complete(op)
        self._pump.resume()


class FldRZucCryptodev(Cryptodev):
    """The disaggregated driver: ops ride an FLD-R connection."""

    def __init__(self, sim: Simulator, connection: FldRConnection,
                 name: str = "fldr-zuc"):
        super().__init__(sim, name)
        self.connection = connection
        self._inflight: Dict[int, CryptoOp] = {}
        Pump(sim, connection.responses, self._on_response, f"{name}.rx")

    def submit(self, op: CryptoOp) -> None:
        op.submitted_at = self.sim._now
        self.stats_submitted += 1
        request_id = op.op_id & 0xFFFFFFFF
        message = make_request(
            OP_EEA3 if op.kind == CryptoOp.CIPHER else OP_EIA3, op.key,
            op.payload, op.count, op.bearer, op.direction, request_id)
        self._inflight[request_id] = op
        self.connection.post(message)

    def _on_response(self, item) -> None:
        header, payload = parse_response(item[0])
        op = self._inflight.pop(header.request_id, None)
        if op is None:
            return  # stale or foreign response
        op.status = header.status
        if op.kind == CryptoOp.CIPHER:
            op.result = payload
        else:
            op.mac = header.mac
        self._complete(op)

