"""The eSwitch's in-frame table index against the rule-by-rule walk.

``ESwitch.forward`` (a frame off the wire, or an egress verdict) and
``ESwitch.egress_resolve`` look a table in ``SteeringPipeline.index`` up
in their own frame and run any other table's lowered form.  The oracle
is ``tests/nic/steering_oracle.py``'s walk over the same ``FlowTable``s,
composed with the vPort loop as the eSwitch ran it before tables were
lowered (:class:`OracleSwitch`).  Between frames, rules come and go,
miss actions are reassigned, vPorts are added and removed and a vPort's
egress root moves: the lowering must follow each change.  Tables draw
MAC-only rules (the same MAC at several priorities), rules on other
fields, transforms (a decap among them; probes are VXLAN-wrapped or
not), gotos into a table that may not exist yet, and misses to every
terminal action.  Every frame's outcome (delivered
verdict, uplink bytes, drop, or the error raised), every egress verdict,
the vPorts' ``stats_rx``/``stats_tx`` and the switch's counters must
equal the oracle's.
"""

from collections import Counter

from hypothesis import given, strategies as st

from repro.net import Flow, PROTO_TCP, PROTO_UDP, vxlan_encapsulate
from repro.net.parse import parse_frame
from repro.nic import (
    DecapVxlan, Disposition, Drop, ESwitch, ForwardToQueue, ForwardToRss,
    ForwardToUplink, ForwardToVport, GotoTable, MatchSpec, Meter,
    SetContextId, SteeringError, SteeringPipeline, ToAccelerator,
)
from repro.sim import Simulator

from ..nic import steering_oracle as oracle

MACS = ["02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"]
IPS = ["10.0.0.1", "10.0.0.2"]
PORTS = [100, 200]
VPORTS = [1, 2, 3]
#: Stand-ins for receive queues and RSS groups: compared by identity.
QUEUE, GROUP = object(), object()
AUX = "aux"     # a table no vPort owns: a goto target and an egress root

terminals = st.one_of(
    st.just(Drop()), st.just(ForwardToUplink()),
    st.just(ForwardToQueue(QUEUE)), st.just(ForwardToRss(GROUP)),
    st.sampled_from(VPORTS).map(ForwardToVport),
    st.builds(ToAccelerator, st.just(QUEUE), st.sampled_from(["r0", "r1"]),
              st.integers(0, 2)))
#: Mostly a plain verdict; sometimes transforms first, or a goto into
#: the aux table or a vPort's receive table (which may not exist).
action_lists = st.one_of(
    terminals.map(lambda action: [action]),
    st.tuples(st.sampled_from([SetContextId(2), Meter("m0"), DecapVxlan()]),
              terminals).map(list),
    st.sampled_from([AUX, "vport1.rx", "vport3.rx"])
    .map(lambda table: [GotoTable(table)]))
#: MAC-only specs from a small pool, so one MAC recurs at several
#: priorities, and specs on other fields.
specs = st.one_of(
    st.sampled_from(MACS).map(lambda mac: MatchSpec(dst_mac=mac)),
    st.builds(MatchSpec, dst_port=st.sampled_from(PORTS)),
    st.builds(MatchSpec, dst_mac=st.sampled_from(MACS),
              ip_proto=st.sampled_from([PROTO_UDP, PROTO_TCP])),
    st.builds(MatchSpec, src_ip=st.sampled_from(IPS)))
#: A table: the FDB, the aux table or a vPort's receive table.
TABLES = [ESwitch.FDB_ROOT, AUX] + [f"vport{n}.rx" for n in VPORTS]
tables = st.sampled_from(TABLES)
#: (dst_mac, src_ip, dport, proto, frozen, context, VXLAN-wrapped)
packets = st.tuples(st.sampled_from(MACS), st.sampled_from(IPS),
                    st.sampled_from(PORTS),
                    st.sampled_from([PROTO_UDP, PROTO_TCP]), st.booleans(),
                    st.sampled_from([None, 0, 3]), st.booleans())
rule_ops = st.one_of(
    st.tuples(st.just("rule"), tables, specs, action_lists,
              st.integers(0, 2)),
    # One MAC twice in a table, at two priorities (or one, in order).
    st.tuples(st.just("twin"), tables, st.sampled_from(MACS), action_lists,
              action_lists, st.integers(0, 2), st.integers(0, 2)))
#: Changes between frames.
operations = st.one_of(
    rule_ops,
    st.tuples(st.just("unrule"), st.integers(0, 7)),
    st.tuples(st.just("miss"), tables, action_lists),
    st.tuples(st.just("vport"), st.sampled_from(VPORTS)),
    st.tuples(st.just("tx_root"), st.sampled_from(VPORTS),
              st.sampled_from([None, AUX, "ghost"])))

def make_packet(recipe):
    dst_mac, src_ip, dport, proto, frozen, context, wrapped = recipe
    packet = Flow(MACS[0], dst_mac, src_ip, IPS[1], 7000, dport,
                  proto).make_packet(b"payload", fill_checksums=False)
    if wrapped:     # the outer frame to the other MAC, port 4789
        packet = vxlan_encapsulate(packet, 5, MACS[0], MACS[1], IPS[0],
                                   IPS[1])
    if frozen:
        packet = parse_frame(packet.to_bytes())
    if context is not None:
        packet.meta["context_id"] = context
    return packet


def plain(verdict, vport=None):
    """A verdict's fields as plain data, and the vPort it reached."""
    kind, target, packet, context_id, next_table, meters = verdict
    return (vport, kind, target, packet.to_bytes(),
            packet.layout or packet.fields(), packet.meta, context_id,
            next_table, meters)


class Wire:
    """The uplink: records each frame sent."""

    on_receive = None

    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet.to_bytes())


class OracleSwitch:
    """The eSwitch's vPort loop over the oracle walk."""

    def __init__(self, tables):
        self.tables, self.vports, self.tx_roots = tables, {}, {}
        self.rx, self.tx = Counter(), Counter()
        self.loopback = self.to_uplink = self.fdb_drops = 0

    def forward(self, packet, disposition=None, from_vport=None):
        if disposition is None:
            disposition = oracle.process(self.tables, packet, "fdb")
            if disposition[0] == Disposition.UPLINK:
                self.fdb_drops += 1
                return ("dropped",)
        vport, entered = from_vport, 0
        while disposition[0] == Disposition.VPORT:
            if entered == SteeringPipeline.MAX_HOPS:
                raise SteeringError("vPort forwarding loop exceeded MAX_HOPS")
            if not entered and from_vport is not None:
                self.loopback += 1
            entered += 1
            if disposition[1] not in self.vports:
                self.fdb_drops += 1
                return ("dropped",)
            vport = self.vports[disposition[1]]
            self.rx[vport] += 1
            disposition = oracle.process(self.tables, disposition[2],
                                         f"vport{vport}.rx")
        if disposition[0] == Disposition.UPLINK:
            if not entered:
                self.to_uplink += 1
            return ("uplink", disposition[2].to_bytes())
        if disposition[0] == Disposition.DROP:
            self.fdb_drops += 1
            return ("dropped",)
        return ("delivered", plain(disposition, vport))

    def egress_resolve(self, number, packet):
        vport = self.vports[number]
        self.tx[vport] += 1
        return oracle.process(self.tables, packet,
                              self.tx_roots.get(number) or "fdb"), vport


def outcome(run):
    """``run()``'s result, or the error it raised."""
    try:
        return run()
    except (SteeringError, KeyError, ValueError) as error:
        return type(error), str(error)


def switch_outcome(eswitch, wire, delivered, run):
    """What ``run()`` did to the frame on the real switch."""
    def crossing():
        wire.sent.clear()
        delivered.clear()
        result = run()
        if delivered:
            return ("delivered", plain(delivered[0][1], delivered[0][0]))
        if wire.sent:
            return ("uplink", wire.sent[0])
        return result or ("dropped",)
    return outcome(crossing)


@given(st.lists(action_lists, min_size=len(TABLES), max_size=len(TABLES)),
       st.lists(rule_ops, max_size=8), st.lists(operations, max_size=20),
       st.lists(packets, min_size=1, max_size=3))
def test_eswitch_equals_the_rule_walk(misses, installed, ops, probes):
    """vPorts 1 and 2, the tables' ``misses`` and ``installed`` rules
    first, then ``ops``; after each step, every probe crosses from the
    wire and from each vPort."""
    wire, delivered = Wire(), []
    eswitch = ESwitch(Simulator(), wire, lambda vport, d: delivered.append(
        (vport and vport.number, d)))
    pipeline = eswitch.pipeline
    pipeline.table(AUX)
    expected = OracleSwitch(pipeline.tables)
    rules = []      # (table name, Rule)
    for op in [("vport", 1), ("vport", 2),
               *(("miss", *miss) for miss in zip(TABLES, misses)),
               *installed, *ops]:
        kind = op[0]
        if kind == "rule" and op[1] in pipeline.tables:
            _, name, spec, actions, priority = op
            rules.append((name, pipeline.tables[name].add_rule(
                spec, actions, priority)))
        elif kind == "twin" and op[1] in pipeline.tables:
            _, name, mac, first, second, high, low = op
            for actions, priority in ((first, high), (second, low)):
                rules.append((name, pipeline.tables[name].add_rule(
                    MatchSpec(dst_mac=mac), actions, priority)))
        elif kind == "unrule" and rules:
            name, rule = rules.pop(op[1] % len(rules))
            pipeline.tables[name].remove_rule(rule)
        elif kind == "miss" and op[1] in pipeline.tables:
            pipeline.tables[op[1]].default_actions = op[2]
        elif kind == "vport" and op[1] in eswitch.vports:
            rx_root = eswitch.vports[op[1]].rx_root
            for entry in [entry for entry in rules if entry[0] == rx_root]:
                rules.remove(entry)
                pipeline.tables[rx_root].remove_rule(entry[1])
            eswitch.remove_vport(op[1])
            del expected.vports[op[1]]
            for counts in (expected.rx, expected.tx, expected.tx_roots):
                counts.pop(op[1], None)
        elif kind == "vport":
            eswitch.add_vport(op[1])
            expected.vports[op[1]] = op[1]
        elif kind == "tx_root" and op[1] in eswitch.vports:
            eswitch.vports[op[1]].tx_root = expected.tx_roots[op[1]] = op[2]
        for packet in map(make_packet, probes):
            got = switch_outcome(eswitch, wire, delivered,
                                 lambda: eswitch.ingress_from_wire(
                                     packet.copy()))
            assert got == outcome(lambda: expected.forward(packet.copy()))
            for number in sorted(eswitch.vports):
                verdicts = []

                def egress(switch, resolve):
                    # As egress_from_vport: the frame, then its verdict
                    # (over the inner frame if the egress root decaps).
                    frame = packet.copy()
                    disposition, vport = resolve(number, frame)
                    verdicts.append(plain(disposition))
                    return switch.forward(frame, disposition, vport)
                got = switch_outcome(eswitch, wire, delivered, lambda: egress(
                    eswitch, eswitch.egress_resolve))
                assert got == outcome(lambda: egress(
                    expected, expected.egress_resolve))
                assert verdicts[:1] == verdicts[1:]
        assert {n: (v.stats_rx, v.stats_tx)
                for n, v in eswitch.vports.items()} == {
            n: (expected.rx[n], expected.tx[n]) for n in expected.vports}
        assert (eswitch.stats_loopback, eswitch.stats_to_uplink,
                eswitch.stats_fdb_drops) == (
            expected.loopback, expected.to_uplink, expected.fdb_drops)
