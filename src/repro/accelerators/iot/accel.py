"""The IoT token-authentication offload (§7, §8.2.3).

Validates the JWT carried in each CoAP message and drops packets with
invalid HMAC-SHA256 signatures.  The design leans on the NIC for
everything NICA had to reimplement (§7's comparison):

* the NIC's steering classifies flows and *tags* them with the tenant's
  context ID (§5.4) — the accelerator only keeps a **linear table of
  HMAC keys indexed by the tag**;
* per-tenant bandwidth caps come from the NIC's traffic shaper;
* valid packets return to the pipeline (resume table) for RSS/host
  delivery.

8 processing units sustain ~20 Mpps for 256 B packets (paper §7).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ...core import AxisMetadata
from ...net.parse import parse_frame
from ..base import DroppingAccelerator, Output
from .coap import CoapError, CoapMessage
from .jwt import verify_token

# 20 Mpps across 8 units at 256 B -> 400 ns per packet per unit.
_UNIT_SECONDS_PER_PACKET = 400e-9
_SECONDS_PER_BYTE = 0.4e-9  # SHA-256 pipeline cost beyond the fixed part


class IotAuthAccelerator(DroppingAccelerator):
    """Per-tenant JWT validation behind FLD-E."""

    MAX_TENANTS = 1024

    def __init__(self, sim, fld, units: int = 8, tx_queue: int = 0,
                 name: str = "iot-auth", **kwargs):
        super().__init__(sim, fld, units=units, name=name,
                         tx_queue=tx_queue, **kwargs)
        # The linear key table, indexed by the NIC-provided tenant tag.
        self._keys: List[Optional[bytes]] = [None] * self.MAX_TENANTS
        self.stats_valid = 0
        self.stats_invalid = 0
        self.stats_unknown_tenant = 0
        self.stats_tenant_valid_bytes: Dict[int, int] = {}
        # Optional throughput cap (bits/s) across all units — §8.2.3
        # configures the accelerator to accept only 12 Gbps.
        self.capacity_bps: Optional[float] = None

    # -- key management (control-plane calls) --------------------------------

    def set_tenant_key(self, tenant_id: int, key: bytes) -> None:
        if not 0 <= tenant_id < self.MAX_TENANTS:
            raise ValueError(f"tenant id {tenant_id} out of table range")
        self._keys[tenant_id] = key

    # -- data plane --------------------------------------------------------------

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        if self.capacity_bps is not None:
            return len(data) * 8 * self.units / self.capacity_bps
        return _UNIT_SECONDS_PER_PACKET + len(data) * _SECONDS_PER_BYTE

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        tenant_id = meta.context_id & 0xFFFF
        key = self._keys[tenant_id] if tenant_id < self.MAX_TENANTS else None
        if key is None:
            self.stats_unknown_tenant += 1
            return  # unknown tenant: drop
        packet = parse_frame(data, meta.layout)
        try:
            coap = CoapMessage.unpack(packet.payload)
        except CoapError:
            self.stats_invalid += 1
            return
        token = self._extract_token(coap)
        if token is None or verify_token(token, key) is None:
            self.stats_invalid += 1
            return  # invalid HMAC: the DDoS packet dies here
        self.stats_valid += 1
        self.stats_tenant_valid_bytes[tenant_id] = (
            self.stats_tenant_valid_bytes.get(tenant_id, 0) + len(data))
        yield data, self.reply_meta(meta)

    @staticmethod
    def _extract_token(coap: CoapMessage) -> Optional[bytes]:
        """The JWT travels as the CoAP payload up to the first NUL."""
        if not coap.payload:
            return None
        token = coap.payload.split(b"\x00", 1)[0]
        return token if token.count(b".") == 2 else None
