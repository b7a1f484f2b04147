"""Ethernet-mode tenant accelerator functions (§8/§9 multi-tenancy).

The N-tenant scaling experiment multiplexes a *mix* of accelerator
functions behind one FLD: plain echo, a ZUC crypto bump-in-the-wire,
and an IoT-style HMAC authenticator.  These two classes adapt the
paper's ZUC (§8.2.1) and IoT (§8.2.3) workloads to the FLD-E echo
shape the load generator measures: each does its real per-packet work
(ZUC keystream passes / HMAC-SHA256), charges the calibrated unit
time, then reflects the frame so round-trip latency is measurable
per tenant.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

from ..core import AxisMetadata
from ..host.testpmd import swap_directions
from ..net.parse import parse_frame
from .base import Accelerator, Output
from .zuc.accel import ZucAccelerator
from .zuc.eea3 import eea3_encrypt

#: Default per-tenant secrets; a real deployment provisions these via
#: the control plane (the linear key table of §5.4).
DEFAULT_ZUC_KEY = b"tenant-zuc-key-16"[:16]
DEFAULT_HMAC_KEY = b"tenant-hmac-secret-key"


class ZucEchoAccelerator(Accelerator):
    """Inline 128-EEA3 encrypt + decrypt, then echo (crypto offload).

    Models a bump-in-the-wire cipher tenant: every frame's payload runs
    through the ZUC keystream twice (encrypt for the backend, decrypt
    the verification read-back), so the echoed frame — and the load
    generator's sequence stamp — survives intact while the unit pays
    two real passes of keystream generation.
    """

    SETUP_SECONDS = ZucAccelerator.SETUP_SECONDS
    SECONDS_PER_BYTE = ZucAccelerator.SECONDS_PER_BYTE

    def __init__(self, sim, fld, units: int = 2, tx_queue: int = 0,
                 name: str = "zuc-echo", key: bytes = DEFAULT_ZUC_KEY,
                 **kwargs):
        super().__init__(sim, fld, units=units, name=name,
                         tx_queue=tx_queue, **kwargs)
        if len(key) != 16:
            raise ValueError("ZUC needs a 128-bit key")
        self.key = key
        self.stats_cipher_bytes = 0

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        # Two keystream passes over the payload, one key schedule.
        return self.SETUP_SECONDS + 2 * len(data) * self.SECONDS_PER_BYTE

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        packet = parse_frame(data, meta.layout)
        ciphertext = eea3_encrypt(self.key, 0, 0, 0, packet.payload)
        packet.payload = eea3_encrypt(self.key, 0, 0, 0, ciphertext)
        self.stats_cipher_bytes += 2 * len(ciphertext)
        yield swap_directions(packet).to_bytes(), self.reply_meta(meta)


class IotEchoAccelerator(Accelerator):
    """HMAC-SHA256 authentication, then echo (attestation offload).

    Models an IoT authenticator tenant in the echo shape: each frame's
    payload is MACed with the tenant key (the §8.2.3 HMAC units) before
    the frame is reflected, charging the calibrated fixed + per-byte
    SHA-256 pipeline cost.
    """

    # §7: 8 units sustain ~20 Mpps at 256 B -> 400 ns/packet/unit.
    UNIT_SECONDS_PER_PACKET = 400e-9
    SECONDS_PER_BYTE = 0.4e-9

    def __init__(self, sim, fld, units: int = 2, tx_queue: int = 0,
                 name: str = "iot-echo", key: bytes = DEFAULT_HMAC_KEY,
                 **kwargs):
        super().__init__(sim, fld, units=units, name=name,
                         tx_queue=tx_queue, **kwargs)
        self.key = key
        self.stats_authenticated = 0

    def processing_time(self, data: bytes, meta: AxisMetadata) -> float:
        return (self.UNIT_SECONDS_PER_PACKET
                + len(data) * self.SECONDS_PER_BYTE)

    def process(self, data: bytes, meta: AxisMetadata) -> Iterable[Output]:
        packet = parse_frame(data, meta.layout)
        hmac.new(self.key, packet.payload, hashlib.sha256).digest()
        self.stats_authenticated += 1
        yield swap_directions(packet).to_bytes(), self.reply_meta(meta)
