"""Match-action steering, written the way the rule tables read.

This is the walk ``repro.nic.steering.SteeringPipeline.process`` had
before it became one frame per table chain: each hop asks the table for
its hit (``lookup``), which asks each rule's match in priority order
whether every non-wildcard field equals the packet's (``matches``).  The
property in ``tests/property/test_property_steering.py`` holds the
datapath's verdict to this one field by field, the packet's ``meta``
included.

The verdict is a plain tuple in :class:`repro.nic.Disposition`'s field
order: ``(kind, target, packet, context_id, next_table, meters)``.
"""

from repro.net import vxlan_decapsulate
from repro.net.parse import (
    DST_IP, DST_MAC, DST_PORT, ETHERTYPE, IS_FRAGMENT, PROTO, SRC_IP,
    SRC_PORT, VNI,
)
from repro.nic import Disposition, SteeringError

MAX_HOPS = 32


def matches(spec, packet) -> bool:
    layout = packet.layout or packet.fields()
    if spec.dst_mac is not None and layout[DST_MAC] != spec.dst_mac.value:
        return False
    if spec.ethertype is not None and layout[ETHERTYPE] != spec.ethertype:
        return False
    if spec.src_ip is not None and layout[SRC_IP] != spec.src_ip.value:
        return False
    if spec.dst_ip is not None and layout[DST_IP] != spec.dst_ip.value:
        return False
    if spec.ip_proto is not None and layout[PROTO] != spec.ip_proto:
        return False
    if (spec.is_fragment is not None
            and layout[IS_FRAGMENT] != spec.is_fragment):
        return False
    if spec.src_port is not None and layout[SRC_PORT] != spec.src_port:
        return False
    if spec.dst_port is not None and layout[DST_PORT] != spec.dst_port:
        return False
    if spec.vni is not None and layout[VNI] != spec.vni:
        return False
    return True


def lookup(table, packet):
    for rule in table.rules:
        if matches(rule.match, packet):
            return rule.actions
    return table.default_actions


def process(tables, packet, root: str) -> tuple:
    """Run ``packet`` through ``tables`` (name -> ``FlowTable``) from
    ``root``; the verdict tuple."""
    if root not in tables:
        raise SteeringError(f"no table named {root!r}")
    current = tables[root]
    context_id = packet.meta.get("context_id", 0)
    meters = []
    for _hop in range(MAX_HOPS):
        next_table = None
        for action in lookup(current, packet):
            name = type(action).__name__
            if name == "Drop":
                return (Disposition.DROP, None, packet, context_id, "",
                        meters)
            if name == "ForwardToQueue":
                return (Disposition.DELIVER, action.rq, packet, context_id,
                        "", meters)
            if name == "ForwardToRss":
                return (Disposition.RSS, action.group, packet, context_id,
                        "", meters)
            if name == "ForwardToVport":
                return (Disposition.VPORT, action.vport, packet, context_id,
                        "", meters)
            if name == "ForwardToUplink":
                return (Disposition.UPLINK, None, packet, context_id, "",
                        meters)
            if name == "ToAccelerator":
                return (Disposition.ACCELERATOR, action.rq, packet,
                        action.context_id or context_id, action.next_table,
                        meters)
            if name == "DecapVxlan":
                packet = vxlan_decapsulate(packet)
            elif name == "SetContextId":
                context_id = action.context_id
                packet.meta["context_id"] = context_id
            elif name == "Meter":
                meters.append(action.meter_name)
            elif name == "GotoTable":
                if action.table not in tables:
                    raise SteeringError(
                        f"GotoTable to unknown table {action.table!r}")
                next_table = tables[action.table]
            else:
                raise SteeringError(f"unhandled action {action!r}")
        if next_table is None:
            return (Disposition.DROP, None, packet, context_id, "", meters)
        current = next_table
    raise SteeringError("steering loop exceeded MAX_HOPS")
