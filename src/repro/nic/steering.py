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
from typing import Dict, List, Optional, Set, Tuple

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
                 "src_port", "dst_port", "vni", "is_fragment", "_pairs")

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
        # for lowering to key or scan on.  An absent field reads None in
        # the layout, which equals no match value.
        self._pairs = tuple(
            (slot, value) for slot, value in (
                (DST_MAC, self.dst_mac and self.dst_mac.value),
                (ETHERTYPE, ethertype),
                (SRC_IP, self.src_ip and self.src_ip.value),
                (DST_IP, self.dst_ip and self.dst_ip.value),
                (PROTO, ip_proto), (IS_FRAGMENT, is_fragment),
                (SRC_PORT, src_port), (DST_PORT, dst_port), (VNI, vni))
            if value is not None)

    def matches(self, packet: Packet) -> bool:
        layout = packet.layout or packet.fields()
        for slot, value in self._pairs:
            if layout[slot] != value:
                return False
        return True


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


# -- actions ---------------------------------------------------------------


class Action:
    """Base class.  Only lowering reads an action: a terminal action's
    ``verdict`` prefix ``(kind, target, context_id, next_table)`` (a
    context ID of 0 keeps the packet's) ends processing, a transform's
    ``step(packet, context_id, meters) -> (packet, context_id)`` does
    not, and a :class:`GotoTable` runs on in another table."""


class Drop(Action):
    verdict = (Disposition.DROP, None, 0, "")


class ForwardToVport(Action):
    verdict = property(lambda self: (Disposition.VPORT, self.vport, 0, ""))

    def __init__(self, vport: int):
        self.vport = vport


class ForwardToUplink(Action):
    verdict = (Disposition.UPLINK, None, 0, "")


class ForwardToQueue(Action):
    """Deliver to a specific receive queue."""

    verdict = property(lambda self: (Disposition.DELIVER, self.rq, 0, ""))

    def __init__(self, rq):
        self.rq = rq


class ForwardToRss(Action):
    """Deliver through an RSS group's indirection table."""

    verdict = property(lambda self: (Disposition.RSS, self.group, 0, ""))

    def __init__(self, group):
        self.group = group


class ToAccelerator(Action):
    """FLD-E acceleration action (§5.3): detour through an accelerator.

    ``rq`` is the accelerator-facing receive queue (owned by FLD);
    ``next_table`` names the flow table where the packet resumes after the
    accelerator sends it back; ``context_id`` identifies the tenant (§5.4).
    """

    verdict = property(lambda self: (Disposition.ACCELERATOR, self.rq,
                                     self.context_id, self.next_table))

    def __init__(self, rq, next_table: str, context_id: int = 0):
        self.rq = rq
        self.next_table = next_table
        self.context_id = context_id


class DecapVxlan(Action):
    """Strip the outer Eth/IP/UDP/VXLAN headers (NIC tunnel offload)."""

    def step(self, packet, context_id, meters):
        return vxlan_decapsulate(packet), context_id


class SetContextId(Action):
    """Stamp the flow's context/tenant ID into packet metadata (§5.4)."""

    def __init__(self, context_id: int):
        self.context_id = context_id

    def step(self, packet, context_id, meters):
        packet.meta["context_id"] = self.context_id
        return packet, self.context_id


class GotoTable(Action):

    def __init__(self, table: str):
        self.table = table


class Meter(Action):
    """Apply a named rate limiter (token bucket); may drop the packet."""

    def __init__(self, meter_name: str):
        self.meter_name = meter_name

    def step(self, packet, context_id, meters):
        meters.append(self.meter_name)
        return packet, context_id


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
    """Priority-ordered rules plus a default (miss) action list; made by
    :meth:`SteeringPipeline.table`.  A rule added or removed, or
    ``default_actions`` assigned, lowers the pipeline again, so
    ``lowered(packet, context_id, meters)`` is the table as it stands."""

    def __init__(self, pipeline: "SteeringPipeline", name: str,
                 default_actions: Optional[List[Action]] = None):
        self._pipeline = pipeline
        self.name = name
        self.rules: List[Rule] = []
        self._default_actions = default_actions or [Drop()]

    @property
    def default_actions(self) -> List[Action]:
        return self._default_actions

    @default_actions.setter
    def default_actions(self, actions: List[Action]) -> None:
        self._default_actions = actions
        self._pipeline._lower()

    def add_rule(self, match: MatchSpec, actions: List[Action],
                 priority: int = 0) -> Rule:
        rule = Rule(match, actions, priority)
        self.rules.append(rule)
        self.rules.sort(key=lambda r: -r.priority)
        self._pipeline._lower()
        return rule

    def remove_rule(self, rule: Rule) -> None:
        self.rules.remove(rule)
        self._pipeline._lower()


class SteeringPipeline:
    """A named set of flow tables, processed from a root (or resume)
    table and lowered whenever a table or the set changes."""

    MAX_HOPS = 32  # the vPorts one eSwitch crossing may enter

    def __init__(self):
        self.tables: Dict[str, FlowTable] = {}
        #: name -> ``(key_of, hits, miss)``, a table whose rules match the
        #: same slots and end in plain verdicts: a packet's verdict prefix
        #: is ``hits[key_of(layout)]`` if there, else ``miss`` (``key_of``
        #: None: no rules).  The eSwitch reads it in its own frame.
        self.index: Dict[str, Tuple] = {}

    def table(self, name: str,
              default_actions: Optional[List[Action]] = None) -> FlowTable:
        """Get or create a table."""
        if name not in self.tables:
            self.tables[name] = FlowTable(self, name, default_actions)
            self._lower()
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
        self._lower()

    def process(self, packet: Packet, root: str) -> Disposition:
        """Run ``packet`` through the pipeline from table ``root``: its
        index entry, looked up here, else its lowered callable."""
        meta = packet.meta
        context_id = meta["context_id"] if "context_id" in meta else 0
        try:
            key_of, hits, verdict = self.index[root]
        except KeyError:
            try:
                lowered = self.tables[root].lowered
            except KeyError:
                raise SteeringError(f"no table named {root!r}") from None
            return lowered(packet, context_id, [])
        if key_of is not None:
            key = key_of(packet.layout or packet.fields())
            if key in hits:
                verdict = hits[key]
        return Disposition((verdict[0], verdict[1], packet,
                            verdict[2] or context_id, verdict[3], []))

    def _lower(self) -> None:
        """Lower every table (DESIGN.md, "Flow steering"): one whose rules
        match the same slots and end in plain verdicts to an index entry
        (the first rule of a key wins), each to a scan of its rules, and
        each action list to one callable (:func:`_arm`).  A table on a
        goto cycle is guarded: a walk that enters it again with the same
        packet (no decap since) would loop for ever, so it raises."""
        tables, trail = self.tables, set()
        edges = {name: {action.table for actions in
                        (table.default_actions,
                         *(rule.actions for rule in table.rules))
                        for action in actions if isinstance(action, GotoTable)
                        and action.table in tables}
                 for name, table in tables.items()}
        self.index.clear()
        for name, table in tables.items():
            shapes = {tuple(slot for slot, _value in rule.match._pairs)
                      for rule in table.rules}
            key_of = (itemgetter(*shapes.pop())
                      if len(shapes) == 1 and () not in shapes else None)
            keyed = {}
            for rule in table.rules if key_of else ():
                keyed.setdefault(key_of(dict(rule.match._pairs)), rule.actions)
            miss = table.default_actions
            if (key_of or not table.rules) and all(
                    actions and hasattr(actions[0], "verdict")
                    for actions in (miss, *keyed.values())):
                self.index[name] = (key_of, {
                    key: actions[0].verdict for key, actions in keyed.items()
                }, miss[0].verdict)
            table.lowered = _scan([(rule.match._pairs,
                                    _arm(rule.actions, tables))
                                   for rule in table.rules],
                                  _arm(miss, tables))
            if name in _reach(edges, name):
                table.lowered = _guard(table, table.lowered, trail)


def _reach(edges: Dict[str, Set[str]], start: str) -> Set[str]:
    """The tables a goto chain from ``start`` can run on into."""
    seen, todo = set(), [start]
    while todo:
        new = edges[todo.pop()] - seen
        seen |= new
        todo += new
    return seen


def _arm(actions: List[Action], tables: Dict[str, FlowTable]):
    """An action list, lowered: its transforms' steps, then its end, a
    verdict prefix, the table a goto runs on into, or the error that an
    unknown goto target or action raises."""
    steps, end = [], Drop.verdict   # transforms alone: a drop
    for action in actions:
        if isinstance(action, GotoTable):
            end = tables.get(action.table,
                             f"GotoTable to unknown table {action.table!r}")
            if end.__class__ is str:
                break
        elif hasattr(action, "verdict"):
            end = action.verdict
            break
        elif hasattr(action, "step"):
            steps.append(action.step)
        else:
            end = f"unhandled action {action!r}"
            break

    def arm(packet, context_id, meters):
        for step in steps:
            packet, context_id = step(packet, context_id, meters)
        if end.__class__ is tuple:
            return Disposition((end[0], end[1], packet, end[2] or context_id,
                                end[3], meters))
        if end.__class__ is str:
            raise SteeringError(end)
        return end.lowered(packet, context_id, meters)
    return arm


def _guard(table: FlowTable, run, trail: Set[Tuple[FlowTable, int]]):
    """``run``, raising instead of entering ``table`` again with a packet
    the walk under way (``trail``) has brought into it."""
    def guarded(packet, context_id, meters):
        mark = (table, id(packet))
        if mark in trail:
            raise SteeringError("steering loop exceeded MAX_HOPS")
        trail.add(mark)
        try:
            return run(packet, context_id, meters)
        finally:
            trail.discard(mark)
    return guarded


def _scan(arms, miss):
    """A table, lowered: the arm of its first rule whose pairs all hold,
    else ``miss``.  (``process`` and the eSwitch read an index table's
    dict; a goto into one scans.)"""
    if not arms:
        return miss

    def scan(packet, context_id, meters):
        layout = packet.layout or packet.fields()
        for pairs, arm in arms:
            for slot, value in pairs:
                if layout[slot] != value:
                    break
            else:
                return arm(packet, context_id, meters)
        return miss(packet, context_id, meters)
    return scan
