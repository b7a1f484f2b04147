"""The extended cryptodev driver: key caching + batching.

Implements the client half of the §8.2.1 future work built in
:mod:`repro.accelerators.zuc.extensions` — see that module and the
``test_ablation_zuc_batching`` bench for the performance story.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Pump, Simulator
from .client import FldRConnection
from .cryptodev import CryptoOp, Cryptodev

class BatchingZucCryptodev(Cryptodev):
    """The future-work driver (§8.2.1): cached keys + request batching.

    Keys are installed into accelerator slots once; operations then use
    16 B compact headers and are coalesced into batch messages.  Ops are
    flushed when ``batch_size`` accumulate or ``batch_delay`` elapses —
    the standard throughput/latency dial of any batching driver.
    """

    def __init__(self, sim: Simulator, connection: FldRConnection,
                 batch_size: int = 16, batch_delay: float = 5e-6,
                 name: str = "fldr-zuc-batched"):
        super().__init__(sim, name)
        from ..accelerators.zuc.extensions import (
            CompactRequest,
            OP_EEA3_CACHED,
            OP_EIA3_CACHED,
            OP_SET_KEY,
            make_compact_request,
            make_set_key,
            pack_batch,
            unpack_batch,
        )
        self._ext = {
            "CompactRequest": CompactRequest,
            "OP_EEA3_CACHED": OP_EEA3_CACHED,
            "OP_EIA3_CACHED": OP_EIA3_CACHED,
            "OP_SET_KEY": OP_SET_KEY,
            "make_compact_request": make_compact_request,
            "make_set_key": make_set_key,
            "pack_batch": pack_batch,
            "unpack_batch": unpack_batch,
        }
        self.connection = connection
        self.batch_size = batch_size
        self.batch_delay = batch_delay
        self._slots: Dict[bytes, int] = {}   # key -> installed slot
        self._next_slot = 0
        self._pending: list = []             # compact request bytes
        self._inflight: Dict[int, CryptoOp] = {}
        self._flush_scheduled = False
        self.stats_batches_sent = 0
        self.stats_keys_installed = 0
        Pump(sim, connection.responses, self._on_response, f"{name}.rx")

    # -- key slots ---------------------------------------------------------

    def _slot_for(self, key: bytes) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
            self._slots[key] = slot
            self.connection.post(self._ext["make_set_key"](slot, key))
            self.stats_keys_installed += 1
        return slot

    # -- submission ----------------------------------------------------------

    def submit(self, op: CryptoOp) -> None:
        op.submitted_at = self.sim.now
        self.stats_submitted += 1
        slot = self._slot_for(op.key)
        wire_op = (self._ext["OP_EEA3_CACHED"] if op.kind == CryptoOp.CIPHER
                   else self._ext["OP_EIA3_CACHED"])
        request = self._ext["make_compact_request"](
            wire_op, slot, op.payload, op.count, op.bearer, op.direction,
            request_id=op.op_id & 0xFFFFFFFF,
        )
        self._inflight[op.op_id & 0xFFFFFFFF] = op
        self._pending.append(request)
        if len(self._pending) >= self.batch_size:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.call_later(self.batch_delay, self._deadline_flush)

    def _deadline_flush(self) -> None:
        self._flush_scheduled = False
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        self.connection.post(self._ext["pack_batch"](batch))
        self.stats_batches_sent += 1

    # -- responses -------------------------------------------------------------

    def _on_response(self, item) -> None:
        message = item[0]
        entries = self._ext["unpack_batch"](message)
        if entries is None:
            entries = [message]
        for entry in entries:
            try:
                header = self._ext["CompactRequest"].unpack(entry)
            except ValueError:
                continue
            if header.op == self._ext["OP_SET_KEY"]:
                continue  # key-install ack
            op = self._inflight.pop(header.request_id, None)
            if op is None:
                continue
            payload = entry[16:]
            op.status = 0
            if op.kind == CryptoOp.CIPHER:
                op.result = payload
            else:
                op.mac = int.from_bytes(payload[:4], "big")
            self._complete(op)
