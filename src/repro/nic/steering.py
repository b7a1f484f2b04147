"""Match-action flow steering (§2.3, §5.3).

The NIC processes packets through chains of flow tables.  Each table holds
priority-ordered rules; a rule is a :class:`MatchSpec` plus a list of
actions.  Terminal actions decide the packet's fate (deliver to a queue,
forward to a vPort, drop); non-terminal actions transform the packet or
its metadata (VXLAN decap, context-ID tagging) and processing continues.

FLD-E extends the model with :class:`ToAccelerator` (§5.3): the packet is
handed to an accelerator's receive queue together with a *context ID* and
the ID of the table where processing should resume once the accelerator
returns the packet — this is how acceleration is injected mid-pipeline
while NIC offloads still run before and after it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional

from ..net import Packet, vxlan_decapsulate
from ..net.parse import (
    DST_IP, DST_MAC, DST_PORT, ETHERTYPE, IS_FRAGMENT, PROTO, SRC_IP,
    SRC_PORT, VNI,
)


class SteeringError(RuntimeError):
    """Raised on pipeline misconfiguration (loops, dangling tables)."""


class MatchSpec:
    """Field-equality match over a parsed packet; ``None`` = wildcard."""

    __slots__ = ("dst_mac", "ethertype", "src_ip", "dst_ip", "ip_proto",
                 "src_port", "dst_port", "vni", "is_fragment",
                 "_pairs", "_dst_mac_only")

    def __init__(self, dst_mac=None, ethertype: Optional[int] = None,
                 src_ip=None, dst_ip=None, ip_proto: Optional[int] = None,
                 src_port: Optional[int] = None,
                 dst_port: Optional[int] = None, vni: Optional[int] = None,
                 is_fragment: Optional[bool] = None):
        from ..net import IpAddress, MacAddress
        self.dst_mac = MacAddress(dst_mac) if dst_mac is not None else None
        self.ethertype = ethertype
        self.src_ip = IpAddress(src_ip) if src_ip is not None else None
        self.dst_ip = IpAddress(dst_ip) if dst_ip is not None else None
        self.ip_proto = ip_proto
        self.src_port = src_port
        self.dst_port = dst_port
        self.vni = vni
        self.is_fragment = is_fragment
        # The (layout slot, value) pairs a packet must equal, built once
        # so a table walk compares them and calls nothing.  An absent
        # field reads None in the layout, which equals no match value.
        self._pairs = tuple(
            (slot, value) for slot, value in (
                (DST_MAC, self.dst_mac and self.dst_mac.value),
                (ETHERTYPE, ethertype),
                (SRC_IP, self.src_ip and self.src_ip.value),
                (DST_IP, self.dst_ip and self.dst_ip.value),
                (PROTO, ip_proto), (IS_FRAGMENT, is_fragment),
                (SRC_PORT, src_port), (DST_PORT, dst_port), (VNI, vni))
            if value is not None)
        # FDB rules match on destination MAC alone: the walk compares
        # that one slot directly.  The MAC's value, else None.
        pairs = self._pairs
        self._dst_mac_only = (pairs[0][1] if len(pairs) == 1
                              and pairs[0][0] == DST_MAC else None)

    def matches(self, packet: Packet) -> bool:
        layout = packet.layout or packet.fields()
        for slot, value in self._pairs:
            if layout[slot] != value:
                return False
        return True


# -- actions ---------------------------------------------------------------


class Action:
    """Base class; terminal actions end pipeline processing.

    ``_code`` is an integer dispatch tag: the pipeline's inner loop runs
    per packet per hop, and an int compare beats an isinstance chain.
    """

    terminal = False
    _code = 0


class Drop(Action):
    terminal = True
    _code = 1


class ForwardToVport(Action):
    terminal = True
    _code = 2

    def __init__(self, vport: int):
        self.vport = vport


class ForwardToUplink(Action):
    terminal = True
    _code = 3


class ForwardToQueue(Action):
    """Deliver to a specific receive queue."""

    _code = 4

    terminal = True

    def __init__(self, rq):
        self.rq = rq


class ForwardToRss(Action):
    """Deliver through an RSS group's indirection table."""

    _code = 5

    terminal = True

    def __init__(self, group):
        self.group = group


class ToAccelerator(Action):
    """FLD-E acceleration action (§5.3): detour through an accelerator.

    ``rq`` is the accelerator-facing receive queue (owned by FLD);
    ``next_table`` names the flow table where the packet resumes after the
    accelerator sends it back; ``context_id`` identifies the tenant (§5.4).
    """

    _code = 6

    terminal = True

    def __init__(self, rq, next_table: str, context_id: int = 0):
        self.rq = rq
        self.next_table = next_table
        self.context_id = context_id


class DecapVxlan(Action):
    """Strip the outer Eth/IP/UDP/VXLAN headers (NIC tunnel offload)."""

    _code = 7


class SetContextId(Action):
    """Stamp the flow's context/tenant ID into packet metadata (§5.4)."""

    _code = 8

    def __init__(self, context_id: int):
        self.context_id = context_id


class GotoTable(Action):

    _code = 9
    terminal = True

    def __init__(self, table: str):
        self.table = table


class Meter(Action):
    """Apply a named rate limiter (token bucket); may drop the packet."""

    _code = 10

    def __init__(self, meter_name: str):
        self.meter_name = meter_name


# -- tables and pipeline -----------------------------------------------------


class Rule:
    __slots__ = ("priority", "match", "actions")

    def __init__(self, match: MatchSpec, actions: List[Action],
                 priority: int = 0):
        if not actions:
            raise SteeringError("rule with no actions")
        self.priority = priority
        self.match = match
        self.actions = actions


class FlowTable:
    """Priority-ordered rules plus a default (miss) action list."""

    def __init__(self, name: str,
                 default_actions: Optional[List[Action]] = None):
        self.name = name
        self.rules: List[Rule] = []
        self.default_actions = default_actions or [Drop()]

    def add_rule(self, match: MatchSpec, actions: List[Action],
                 priority: int = 0) -> Rule:
        rule = Rule(match, actions, priority)
        self.rules.append(rule)
        self.rules.sort(key=lambda r: -r.priority)
        return rule

    def remove_rule(self, rule: Rule) -> None:
        self.rules.remove(rule)


class Disposition(tuple):
    """The pipeline's verdict for one packet: ``(kind, target, packet,
    context_id, next_table, meters)``.

    A tuple, so ``Disposition((...))`` runs no Python code; fields read
    by name, like :class:`~repro.nic.wqe.TxWqeRecord`'s.
    """

    __slots__ = ()

    DELIVER = "deliver"        # target: ReceiveQueue
    RSS = "rss"                # target: RssGroup
    VPORT = "vport"            # target: vport number
    UPLINK = "uplink"
    ACCELERATOR = "accelerator"  # target: ReceiveQueue owned by FLD
    DROP = "drop"

    kind = property(itemgetter(0))
    target = property(itemgetter(1))
    packet = property(itemgetter(2))
    context_id = property(itemgetter(3))
    next_table = property(itemgetter(4))
    meters = property(itemgetter(5))


class SteeringPipeline:
    """A named set of flow tables processed from a root (or resume) table."""

    MAX_HOPS = 32  # guards against GotoTable and vPort forwarding loops

    def __init__(self):
        self.tables: Dict[str, FlowTable] = {}
        self.stats_lookups = 0

    def table(self, name: str,
              default_actions: Optional[List[Action]] = None) -> FlowTable:
        """Get or create a table."""
        if name not in self.tables:
            self.tables[name] = FlowTable(name, default_actions)
        return self.tables[name]

    def remove_table(self, name: str) -> None:
        """Drop a table; it must be empty (rules removed first)."""
        table = self.tables.get(name)
        if table is None:
            raise SteeringError(f"no table named {name!r}")
        if table.rules:
            raise SteeringError(
                f"table {name!r} still holds {len(table.rules)} rule(s)")
        del self.tables[name]

    def process(self, packet: Packet, root: str) -> Disposition:
        """Run ``packet`` through the pipeline starting at table ``root``,
        the whole chain in this one frame: a hop scans its table's rules
        inline, then runs the first match's (or the miss) actions."""
        tables = self.tables
        try:
            table = tables[root]
        except KeyError:
            raise SteeringError(f"no table named {root!r}") from None
        meta = packet.meta
        context_id = meta["context_id"] if "context_id" in meta else 0
        meters: List[str] = []
        for _hop in range(self.MAX_HOPS):
            self.stats_lookups += 1
            actions = table.default_actions
            for rule in table.rules:
                layout = packet.layout or packet.fields()
                mac = rule.match._dst_mac_only
                if mac is not None:
                    if layout[DST_MAC] == mac:
                        actions = rule.actions
                        break
                    continue
                for slot, value in rule.match._pairs:
                    if layout[slot] != value:
                        break
                else:
                    actions = rule.actions
                    break
            next_table: Optional[FlowTable] = None
            for action in actions:
                code = action._code
                if code == 1:  # Drop
                    return Disposition((Disposition.DROP, None, packet,
                                        context_id, "", meters))
                if code == 4:  # ForwardToQueue
                    return Disposition((Disposition.DELIVER, action.rq,
                                        packet, context_id, "", meters))
                if code == 5:  # ForwardToRss
                    return Disposition((Disposition.RSS, action.group,
                                        packet, context_id, "", meters))
                if code == 2:  # ForwardToVport
                    return Disposition((Disposition.VPORT, action.vport,
                                        packet, context_id, "", meters))
                if code == 3:  # ForwardToUplink
                    return Disposition((Disposition.UPLINK, None, packet,
                                        context_id, "", meters))
                if code == 6:  # ToAccelerator
                    return Disposition((
                        Disposition.ACCELERATOR, action.rq, packet,
                        action.context_id or context_id, action.next_table,
                        meters))
                if code == 7:  # DecapVxlan
                    packet = vxlan_decapsulate(packet)
                elif code == 8:  # SetContextId
                    context_id = action.context_id
                    packet.meta["context_id"] = context_id
                elif code == 10:  # Meter
                    meters.append(action.meter_name)
                elif code == 9:  # GotoTable
                    try:
                        next_table = tables[action.table]
                    except KeyError:
                        raise SteeringError(
                            f"GotoTable to unknown table {action.table!r}"
                        ) from None
                else:
                    raise SteeringError(f"unhandled action {action!r}")
            if next_table is None:
                # Non-terminal actions exhausted without a verdict: drop,
                # matching hardware behaviour for incomplete rule chains.
                return Disposition((Disposition.DROP, None, packet,
                                    context_id, "", meters))
            table = next_table
        raise SteeringError("steering loop exceeded MAX_HOPS")
