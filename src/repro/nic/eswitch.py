"""Embedded switch (eSwitch), vPorts and the physical Ethernet port (§2.3).

The eSwitch connects the NIC's uplink (wire) to its virtual ports.  A
hypervisor-managed FDB pipeline steers ingress traffic to vPorts (and can
decap tunnels / tag tenants on the way); each vPort then runs its own
guest-managed receive pipeline that picks the receive queue, RSS group or
accelerator.  Egress traffic from a vPort goes through the FDB too, which
may loop it back to another vPort — the configuration the paper's local
experiments use.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..net import Packet
from ..net.parse import BTH
from ..sim import Link, Simulator
from .steering import (
    Disposition, ForwardToUplink, SteeringError, SteeringPipeline,
)

DROP, UPLINK, VPORT = Disposition.DROP, Disposition.UPLINK, Disposition.VPORT
MAX_HOPS = SteeringPipeline.MAX_HOPS


class EthernetPort:
    """A MAC serializing frames onto a wire at the port's line rate."""

    def __init__(self, sim: Simulator, name: str, rate_bps: float = 25e9,
                 latency: float = 500e-9):
        self.sim = sim
        self.name = name
        self.link = Link(sim, rate_bps, latency, name=f"{name}.wire")
        self.link.trace_name = "Packet"
        # In-flight frames dispatch through the receiving port's
        # ``_receive``; the profiler attributes them to the wire stage.
        self.profile_tag = f"{name}.wire"
        self.peer: Optional["EthernetPort"] = None
        self.on_receive: Optional[Callable[[Packet], None]] = None
        self.stats_tx_packets = 0
        self.stats_rx_packets = 0
        self._spans = sim.telemetry.spans

    def connect(self, peer: "EthernetPort") -> None:
        """Connect both directions of a back-to-back cable.

        A port takes exactly one cable: re-connecting an already-wired
        port (either end) raises instead of silently re-pointing the
        link's receive callback at the new peer.
        """
        for port in (self, peer):
            if port.peer is not None:
                raise ValueError(
                    f"port {port.name} is already connected to "
                    f"{port.peer.name}; disconnect is not supported")
        self.link.connect(peer._receive)
        peer.link.connect(self._receive)
        self.peer = peer
        peer.peer = self

    def send(self, packet: Packet, arrival: Optional[float] = None) -> None:
        """Serialize ``packet`` onto the wire, handed over now or, for an
        egress stage that resolves a transmit before its pipeline
        occupancy has elapsed, at the future instant ``arrival``."""
        self.stats_tx_packets += 1
        if self._spans.enabled and "trace_ctx" in packet.meta:
            # Stamp serialization start; the receiving port closes the
            # span.  Retransmitted copies carry their own stamp (meta is
            # copied per frame), so every wire crossing is recorded.
            packet.meta["trace_wire_t0"] = (
                self.sim._now if arrival is None else arrival)
        self.link.send(packet, packet.wire_size() * 8, arrival)

    send_at = send

    def _receive(self, packet: Packet) -> None:
        self.stats_rx_packets += 1
        if self._spans.enabled:
            ctx = packet.meta.get("trace_ctx")
            if ctx is not None:
                t0 = packet.meta.pop("trace_wire_t0", None)
                if t0 is not None:
                    self._spans.record(ctx, "wire", t0, self.sim._now)
        if self.on_receive is not None:
            self.on_receive(packet)

    @property
    def rate_bps(self) -> float:
        return self.link.rate_bps


class VPort:
    """A virtual port: the eSwitch-facing side of a vNIC."""

    def __init__(self, number: int):
        self.number = number
        self.rx_root = f"vport{number}.rx"
        self.tx_root: Optional[str] = None  # optional guest egress table
        self.stats_rx = 0
        self.stats_tx = 0


class ESwitch:
    """FDB steering between the uplink and vPorts.

    ``deliver`` is the device callback that takes (vport, Disposition)
    for packets terminating at a receive queue; the eSwitch handles
    vPort-to-vPort loopback and uplink forwarding itself.
    """

    FDB_ROOT = "fdb"

    def __init__(self, sim: Simulator, port: EthernetPort,
                 deliver: Callable[[VPort, Disposition], None]):
        self.sim = sim
        self.port = port
        self.port.on_receive = self.ingress_from_wire
        self._deliver = deliver
        # Optional RoCE interception (the device's RC transport): each
        # frame with a BTH, before a vPort's guest pipeline; True when
        # it consumed the frame.
        self.pre_rx_hook: Optional[Callable[[Packet], bool]] = None
        self.pipeline = SteeringPipeline()
        self._index = self.pipeline.index
        # Default FDB behaviour: send everything out the wire.
        self.pipeline.table(self.FDB_ROOT, default_actions=[ForwardToUplink()])
        self.vports: Dict[int, VPort] = {}
        self.stats_loopback = 0
        self.stats_to_uplink = 0
        self.stats_fdb_drops = 0

    def add_vport(self, number: int) -> VPort:
        if number in self.vports:
            raise ValueError(f"vport {number} exists")
        vport = VPort(number)
        self.vports[number] = vport
        # Each vPort gets an rx pipeline table; default drop until the
        # guest installs rules.
        self.pipeline.table(vport.rx_root)
        return vport

    def remove_vport(self, number: int) -> None:
        """Detach a vPort and drop its (empty) rx pipeline table."""
        vport = self.vports.get(number)
        if vport is None:
            raise ValueError(f"vport {number} does not exist")
        self.pipeline.remove_table(vport.rx_root)
        del self.vports[number]

    # -- one crossing: FDB verdict, then vPort receive tables -----------

    def forward(self, packet: Packet,
                disposition: Optional[Disposition] = None,
                from_vport: Optional[VPort] = None) -> None:
        """Carry one frame across the switch in one pass: the FDB's
        verdict, then each vPort receive table it forwards into (at most
        ``MAX_HOPS``, each vPort offering a RoCE frame to
        ``pre_rx_hook``).  A table in the pipeline's ``index`` is looked
        up here, in this frame; any other runs its lowered form.

        No ``disposition``: ``packet`` is off the wire and runs the FDB
        here, a miss dropped (split horizon, no hairpin).  Otherwise it
        is an egress verdict, over its own packet, from ``from_vport``
        (None for an FLD-E resume table).
        """
        index = self._index
        vport = from_vport
        entered = 0
        if disposition is None:
            root = self.FDB_ROOT
        else:
            root = None
            verdict = disposition
            packet = disposition[2]
        while True:
            if root is not None:
                try:
                    key_of, hits, verdict = index[root]
                except KeyError:    # not indexed: its lowered form
                    verdict = self.pipeline.process(packet, root)
                    packet = verdict[2]
                else:
                    if key_of is not None:
                        key = key_of(packet.layout or packet.fields())
                        if key in hits:
                            verdict = hits[key]
            kind = verdict[0]
            if kind != VPORT:
                break
            if entered:
                if entered == MAX_HOPS:
                    raise SteeringError(
                        "vPort forwarding loop exceeded MAX_HOPS")
            elif from_vport is not None:
                self.stats_loopback += 1
            entered += 1
            try:
                vport = self.vports[verdict[1]]
            except KeyError:    # no such vPort: dropped, not raised
                self.stats_fdb_drops += 1
                return
            vport.stats_rx += 1
            hook = self.pre_rx_hook
            if (hook is not None
                    and (packet.layout or packet.fields())[BTH] is not None
                    and hook(packet)):
                return
            root = vport.rx_root
        if kind == UPLINK:
            if not entered:
                if disposition is None:
                    self.stats_fdb_drops += 1
                    return
                self.stats_to_uplink += 1
            self.port.send(packet)
        elif kind == DROP:
            self.stats_fdb_drops += 1
        elif verdict.__class__ is Disposition:
            self._deliver(vport, verdict)
        else:   # an index's verdict prefix for a queue, RSS or accelerator
            kind, target, context_id, next_table = verdict
            meta = packet.meta
            self._deliver(vport, Disposition((
                kind, target, packet, context_id or (
                    meta["context_id"] if "context_id" in meta else 0),
                next_table, [])))

    #: The port's receive callback: a frame off the wire.
    ingress_from_wire = forward

    # -- egress (vPort -> eSwitch -> wire or loopback) --------------------

    def egress_from_vport(self, vport_number: int, packet: Packet) -> None:
        disposition, vport = self.egress_resolve(vport_number, packet)
        self.forward(packet, disposition, vport)

    def egress_resolve(self, vport_number: int,
                       packet: Packet) -> Tuple[Disposition, VPort]:
        """First half of :meth:`egress_from_vport`: run the egress
        pipeline and return the resolved disposition without applying
        it, so a fused caller can defer the effect to a future instant.
        """
        vport = self.vports[vport_number]
        vport.stats_tx += 1
        root = vport.tx_root or self.FDB_ROOT
        try:
            key_of, hits, verdict = self._index[root]
        except KeyError:    # not indexed: its lowered form
            return self.pipeline.process(packet, root), vport
        if key_of is not None:
            key = key_of(packet.layout or packet.fields())
            if key in hits:
                verdict = hits[key]
        kind, target, context_id, next_table = verdict
        meta = packet.meta
        return Disposition((
            kind, target, packet, context_id or (
                meta["context_id"] if "context_id" in meta else 0),
            next_table, [])), vport
