"""The one-frame table walk against the rule-by-rule walk it replaced.

``SteeringPipeline.process`` runs each table as it was lowered when it
last changed: a table in ``SteeringPipeline.index`` is looked up by its
key, any other runs its lowered form, a scan over the ``(slot, value)``
pairs each :class:`MatchSpec` builds once.  The oracle in
``tests/nic/steering_oracle.py`` asks each rule's match field by field
through ``lookup``/``matches``.  Over random rule tables (field subsets,
priorities, ``GotoTable`` chains, decap, context tags, meters, miss
actions reassigned after rules went in) and packets that hit and miss
each field, fragments and VXLAN included, the verdict tuple must equal
the oracle's field by field, the packet's bytes and ``meta`` too, and a
goto loop or a decap of a plain frame must raise the same error.
"""

from hypothesis import given, strategies as st

from repro.net import (
    Flow, PROTO_TCP, PROTO_UDP, fragment_packet, vxlan_decapsulate,
    vxlan_encapsulate,
)
from repro.net.parse import (
    DST_IP, DST_MAC, DST_PORT, ETHERTYPE, IS_FRAGMENT, PROTO, SRC_IP,
    SRC_PORT, VNI, parse_frame,
)
from repro.nic import (
    DecapVxlan, Drop, ForwardToQueue, ForwardToRss, ForwardToUplink,
    ForwardToVport, GotoTable, MatchSpec, Meter, SetContextId,
    SteeringError, SteeringPipeline, ToAccelerator,
)

from ..nic import steering_oracle as oracle

MACS = ["02:00:00:00:00:01", "02:00:00:00:00:02"]
IPS = ["10.0.0.1", "10.0.0.2"]
PORTS = [100, 200]
VNIS = [5, 9]
TABLES = ["t0", "t1", "t2"]
#: Stand-ins for receive queues and RSS groups: compared by identity.
QUEUE, GROUP = object(), object()

#: MatchSpec keyword -> (layout slot, pool values that hit or miss).
FIELDS = {
    "dst_mac": (DST_MAC, MACS), "ethertype": (ETHERTYPE, [0x0800, 0x86DD]),
    "src_ip": (SRC_IP, IPS), "dst_ip": (DST_IP, IPS),
    "ip_proto": (PROTO, [PROTO_UDP, PROTO_TCP]),
    "src_port": (SRC_PORT, PORTS), "dst_port": (DST_PORT, PORTS),
    "vni": (VNI, VNIS), "is_fragment": (IS_FRAGMENT, [False, True]),
}


def match_specs(layouts):
    """Specs over up to three fields whose values come from one of
    ``layouts`` (the packet's, outer and inner) or from the pools, so a
    rule hits about as often as it misses, by one field or by all."""
    def spec(layout, names, picks):
        fields = {}
        for name, pick in zip(names, picks):
            slot, pool = FIELDS[name]
            own = layout[slot]
            use_own = pick > 1 and own is not None
            fields[name] = own if use_own else pool[pick % 2]
        return MatchSpec(**fields)
    return st.builds(spec, st.sampled_from(layouts),
                     st.lists(st.sampled_from(sorted(FIELDS)), max_size=3,
                              unique=True),
                     st.lists(st.integers(0, 3), min_size=3, max_size=3))


#: Every verdict but a goto.
verdicts = st.one_of(
    st.just(Drop()), st.just(ForwardToQueue(QUEUE)),
    st.just(ForwardToRss(GROUP)), st.builds(ForwardToVport, st.integers(1, 3)),
    st.just(ForwardToUplink()),
    st.builds(ToAccelerator, st.just(QUEUE), st.sampled_from(TABLES),
              st.integers(0, 3)))
transforms = st.sampled_from([
    SetContextId(0), SetContextId(2), Meter("m0"), Meter("m1")])


def action_lists(index):
    """Half the time a decap, then transforms, then one terminal or, half
    the time, up to two: none is a drop, and a verdict after a goto
    still ends the walk.  Half the terminals go from table ``index`` to
    a later table, from the last one to any (a loop)."""
    later = TABLES[index + 1:] or TABLES
    terminals = st.one_of(st.sampled_from(later).map(GotoTable), verdicts)
    return st.tuples(
        st.sampled_from([[], [DecapVxlan()]]),
        st.lists(transforms, max_size=2),
        st.one_of(st.lists(terminals, min_size=1, max_size=1),
                  st.lists(terminals, max_size=2)),
    ).map(lambda parts: sum(parts, [])).filter(bool)


def tables(layouts):
    """Per table: its rules, its miss actions at creation, and the miss
    actions assigned after the rules went in (None: kept)."""
    def table(index):
        actions = action_lists(index)
        rules = st.tuples(match_specs(layouts), actions, st.integers(0, 3))
        misses = st.one_of(st.none(), actions)
        return st.tuples(st.lists(rules, max_size=3), misses, misses)
    return st.tuples(*(table(index) for index in range(len(TABLES))))


#: (dst_mac, src_ip, dst_ip, sport, dport, proto, shape, vni, context,
#: frozen): ``shape`` 0 is whole, 1/2 the first/second fragment.
packets = st.tuples(
    st.sampled_from(MACS), st.sampled_from(IPS), st.sampled_from(IPS),
    st.sampled_from(PORTS), st.sampled_from(PORTS),
    st.sampled_from([PROTO_UDP, PROTO_TCP]), st.integers(0, 2),
    st.sampled_from([None] + VNIS), st.sampled_from([None, 0, 3]),
    st.booleans())


def make_packet(recipe):
    """A packet from ``recipe``; each walk steers its own ``copy()``."""
    dst_mac, src_ip, dst_ip, sport, dport, proto, shape, vni, context, \
        frozen = recipe
    packet = Flow(MACS[0], dst_mac, src_ip, dst_ip, sport, dport,
                  proto).make_packet(b"payload", fill_checksums=False)
    if shape:
        packet.payload = bytes(3000)
        packet = fragment_packet(packet, mtu=1500)[shape - 1]
    if vni is not None:
        packet = vxlan_encapsulate(packet, vni, MACS[1], MACS[0], IPS[1],
                                   IPS[0])
    if frozen:
        packet = parse_frame(packet.to_bytes())
    if context is not None:
        packet.meta["context_id"] = context
    return packet


def build_pipeline(table_shapes):
    pipeline = SteeringPipeline()
    for name, (table_rules, first_miss, later_miss) in zip(TABLES,
                                                          table_shapes):
        table = pipeline.table(name, first_miss)
        for spec, actions, priority in table_rules:
            table.add_rule(spec, actions, priority)
        if later_miss is not None:
            table.default_actions = later_miss   # no compile step
    return pipeline


def walk(run):
    """``run()``'s verdict fields as plain data, or the error it raised."""
    try:
        verdict = tuple(run())
    except (SteeringError, ValueError) as error:
        return type(error), str(error)
    kind, target, packet, context_id, next_table, meters = verdict
    return (kind, target, packet.to_bytes(), packet.layout or
            packet.fields(), packet.meta, context_id, next_table, meters)


def layouts_of(packet):
    """The layouts a rule can see: the packet's, and its inner frame's."""
    outer = packet.copy()
    layouts = [outer.fields()]
    if layouts[0][VNI] is not None:
        layouts.append(vxlan_decapsulate(outer).layout)
    return layouts


@given(data=st.data(), recipe=packets)
def test_process_equals_the_oracle(data, recipe):
    packet = make_packet(recipe)
    pipeline = build_pipeline(data.draw(tables(layouts_of(packet))))
    got = walk(lambda: pipeline.process(packet.copy(), "t0"))
    expected = walk(lambda: oracle.process(pipeline.tables, packet.copy(),
                                           "t0"))
    assert got == expected


@given(data=st.data(), recipe=packets)
def test_matches_equals_the_oracle(data, recipe):
    packet = make_packet(recipe)
    spec = data.draw(match_specs(layouts_of(packet)))
    assert spec.matches(packet.copy()) == oracle.matches(spec, packet.copy())


def test_verdict_fields_read_by_name():
    pipeline = SteeringPipeline()
    pipeline.table("t0").add_rule(
        MatchSpec(vni=9), [Meter("m0"), ToAccelerator(QUEUE, "t1", 2)])
    packet = make_packet((MACS[1], IPS[0], IPS[1], 100, 200, PROTO_UDP, 0,
                          9, None, True))
    verdict = pipeline.process(packet, "t0")
    assert (verdict.kind, verdict.target, verdict.packet,
            verdict.context_id, verdict.next_table, verdict.meters) == \
        tuple(verdict)
    assert tuple(verdict) == ("accelerator", QUEUE, packet, 2, "t1", ["m0"])
