"""Layered packet model.

A :class:`Packet` on the datapath is *frozen*: the frame's bytes
(``raw``) plus one immutable layout tuple (``layout``), computed once by
:func:`repro.net.parse.parse_layout` where bytes become a frame a NIC
steers (its transmit path; a RoCE frame is born with its layout).  The
NIC's steering, offloads, RSS and transport read that tuple; nothing
per-packet is rebuilt or re-serialised.  A received frame's layout
rides its completion's side band to the consumer, which reuses it only
while the bytes it read back are ``raw`` and parses them otherwise.

Code that *builds* frames works on the other form, an ordered stack of
header objects plus a payload.  Headers are small structs with real
``pack``/byte-accurate sizing, so wire sizes, checksums and fragmentation
behave like the real protocols.  A packet is in exactly one form at a
time — touching ``headers`` thaws it, :meth:`Packet.fields` freezes it —
so there is no cached copy to go stale.

The ``meta`` mapping carries simulation-side annotations (offload results,
queue/context IDs, timestamps) that in hardware would travel in completion
entries or sideband metadata — never on the wire.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Type, TypeVar

H = TypeVar("H")

# Ethernet wire overhead per frame: preamble+SFD (8) + FCS (4) + IFG (12).
ETHERNET_WIRE_OVERHEAD = 24


class Header:
    """Base class for protocol headers; subclasses define ``pack``."""

    name = "header"

    def pack(self) -> bytes:
        raise NotImplementedError

    def size(self) -> int:
        return len(self.pack())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


# Slots of a frozen packet's layout tuple.  Offsets are absolute in
# ``raw``; a field the frame does not have reads ``None`` (so it equals
# no match value), and ETHERTYPE is ``None`` only for a header-less
# payload (NO_LAYERS).  The L4 slots describe the header
# ``find(Tcp) or find(Udp)`` returns on the thawed stack: a VXLAN
# frame's *inner* TCP header when it has one, else the outermost UDP.
(L3, L4, PAYLOAD, DST_MAC, ETHERTYPE, SRC_IP, DST_IP, PROTO, IS_FRAGMENT,
 L4_PROTO, SRC_PORT, DST_PORT, VNI, BTH) = range(14)

#: Layout of a packet with no headers at all: everything is payload.
NO_LAYERS = (None, None, 0) + (None,) * 11


class Packet:
    """A frame: frozen bytes + layout, or a header stack over a payload.

    Headers are stored outermost-first (Ethernet, then IP, then L4...).
    Readers call ``packet.layout or packet.fields()`` and index the
    tuple; builders use ``headers``/``find``/``push``/``payload=``.
    """

    __slots__ = ("raw", "layout", "meta", "_headers", "_payload")

    def __init__(self, headers: Optional[List[Header]] = None,
                 payload: bytes = b"", meta: Optional[Dict[str, Any]] = None):
        self._headers: List[Header] = list(headers) if headers else []
        self._payload = payload
        self.raw: Optional[bytes] = None
        self.layout: Optional[tuple] = None
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    @classmethod
    def frozen(cls, raw: bytes, layout: tuple,
               meta: Dict[str, Any]) -> "Packet":
        """A frozen packet over ``raw``; ``layout`` must be its parse."""
        packet = cls.__new__(cls)
        packet.raw = raw
        packet.layout = layout
        packet.meta = meta
        return packet

    # -- the two forms ---------------------------------------------------

    def fields(self) -> tuple:
        """The layout tuple, freezing a header stack first.

        Serialises the stack once, parses the result and forgets the
        header objects.  A header-less packet is all payload, whatever
        its bytes look like.
        """
        layout = self.layout
        if layout is None:
            # Circular: the parser builds Packets.
            from .parse import parse_layout
            raw = self.to_bytes()
            # Parse before touching self: a stack that is no frame
            # raises here and stays the stack it was.
            layout = parse_layout(raw) if self._headers else NO_LAYERS
            self.raw, self.layout = raw, layout
            del self._headers, self._payload
        return layout

    def _thaw(self) -> None:
        """Rebuild header objects with the object parser, forget ``raw``.

        What the header classes do not carry (IPv4 options/ECN, the TCP
        urgent pointer, a wrong checksum) is lost.
        """
        raw = self.raw
        if self.layout is NO_LAYERS:
            self._headers, self._payload = [], raw
        else:
            # Circular: the parser builds Packets.
            from .parse import parse_headers
            self._headers, self._payload = parse_headers(raw)
        self.raw = self.layout = None

    @property
    def headers(self) -> List[Header]:
        """The header stack, thawing a frozen packet first."""
        if self.raw is not None:
            self._thaw()
        return self._headers

    @property
    def payload(self) -> bytes:
        raw = self.raw
        if raw is not None:
            return raw[self.layout[PAYLOAD]:]
        return self._payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        if self.raw is not None:
            self._thaw()
        self._payload = value

    # -- header access ---------------------------------------------------

    def push(self, header: Header) -> "Packet":
        """Prepend an outer header (encapsulation)."""
        self.headers.insert(0, header)
        return self

    def append(self, header: Header) -> "Packet":
        """Add an inner header (building a packet top-down)."""
        self.headers.append(header)
        return self

    def pop(self) -> Header:
        """Remove and return the outermost header (decapsulation)."""
        headers = self.headers
        if not headers:
            raise IndexError("no headers to pop")
        return headers.pop(0)

    def find(self, header_type: Type[H]) -> Optional[H]:
        """First header of the given type, outermost-first, or ``None``."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    def find_all(self, header_type: Type[H]) -> List[H]:
        return [h for h in self.headers if isinstance(h, header_type)]

    def index_of(self, header: Header) -> int:
        return self.headers.index(header)

    # -- sizing ----------------------------------------------------------

    def header_size(self) -> int:
        if self.raw is not None:
            return self.layout[PAYLOAD]
        return sum(h.size() for h in self._headers)

    def size(self) -> int:
        """Total frame size in bytes (headers + payload, no FCS/preamble)."""
        raw = self.raw
        if raw is not None:
            return len(raw)
        return self.header_size() + len(self._payload)

    def wire_size(self) -> int:
        """Bytes consumed on an Ethernet wire including overheads."""
        raw = self.raw
        size = len(raw) if raw is not None else self.size()
        return size + ETHERNET_WIRE_OVERHEAD

    def to_bytes(self) -> bytes:
        raw = self.raw
        if raw is not None:
            return raw
        return b"".join(h.pack() for h in self._headers) + self._payload

    def copy(self) -> "Packet":
        """A twin with its own ``meta``: shared bytes when frozen, else
        a deep copy of headers and a shallow copy of payload bytes."""
        if self.raw is not None:
            return Packet.frozen(self.raw, self.layout, dict(self.meta))
        return Packet(
            [copy.copy(h) for h in self._headers], self._payload,
            dict(self.meta)
        )

    def __repr__(self) -> str:
        if self.raw is not None:
            from .parse import layer_names
            layers = layer_names(self.raw, self.layout)
        else:
            layers = [type(h).__name__ for h in self._headers]
        return (f"Packet({'/'.join(layers) or 'raw'}, "
                f"payload={len(self.payload)}B)")
