"""The ZUC request path: the 64 B header as a record, the accelerator's
replies to good, short and unknown requests, and traced requests over
FLD-R, one segment and more than an MTU."""

from collections import Counter
from functools import cache

from hypothesis import given, strategies as st

from repro.accelerators.zuc import (
    HEADER_SIZE, OP_EEA3, OP_EIA3, STATUS_OK, ZucHeader, eea3_encrypt,
    eia3_mac, make_request, parse_response,
)
from repro.accelerators.zuc.accel import (
    _HEADER, STATUS_BAD_OP, STATUS_BAD_REQUEST,
)
from repro.core import AxisMetadata
from repro.experiments.setups import zuc_service
from repro.nic.rdma import RdmaEngine
from repro.sim import Simulator
from repro.telemetry import Telemetry

key16 = st.binary(min_size=16, max_size=16)
u32 = st.integers(0, 0xFFFFFFFF)


@cache
def shared_accel():
    """One accelerator for the properties: ``process`` keeps no state
    but a bad-request count."""
    return zuc_service(Simulator()).accel


def reply(accel, data):
    """The accelerator's one output for ``data``: (header, payload)."""
    (out, _meta), = accel.process(data, AxisMetadata())
    return parse_response(out)


class TestHeaderRecord:
    @given(op=st.integers(0, 255), key=key16, payload=st.binary(max_size=80),
           count=u32, bearer=st.integers(0, 255),
           direction=st.integers(0, 255), request_id=u32)
    def test_a_request_reads_back_field_by_field(
            self, op, key, payload, count, bearer, direction, request_id):
        message = make_request(op, key, payload, count, bearer, direction,
                               request_id)
        header, rest = parse_response(message)
        assert isinstance(header, ZucHeader) and len(header) == 11
        assert (header.version, header.op, header.bearer, header.direction,
                header.count, header.length_bits, header.request_id,
                header.key, header.iv, header.mac, header.status) == (
            1, op, bearer, direction, count, 8 * len(payload), request_id,
            key, bytes(16), 0, STATUS_OK)
        assert rest == payload and len(message) == HEADER_SIZE + len(payload)

    @given(key=key16, payload=st.binary(min_size=1, max_size=80),
           count=u32, bearer=st.integers(0, 31),
           direction=st.integers(0, 1), request_id=u32,
           cut=st.integers(0, 7))
    def test_a_cipher_reply_is_the_request_header_and_the_ciphertext(
            self, key, payload, count, bearer, direction, request_id, cut):
        """A request whose bit length stops short of its last byte gets
        the cipher of that many bits; the header comes back unchanged."""
        accel = shared_accel()
        request = bytearray(make_request(OP_EEA3, key, payload, count, bearer,
                                         direction, request_id))
        nbits = 8 * len(payload) - cut
        request[8:12] = nbits.to_bytes(4, "big")
        header, result = reply(accel, bytes(request))
        assert _HEADER.pack(*header) == bytes(request[:HEADER_SIZE])
        assert result == eea3_encrypt(key, count, bearer, direction, payload,
                                      nbits=nbits)

    def test_an_integrity_reply_carries_the_mac_and_no_payload(self):
        accel = zuc_service(Simulator()).accel
        key, payload = bytes(range(16)), bytes(range(100))
        header, rest = reply(accel, make_request(OP_EIA3, key, payload, 5, 3,
                                                 1, request_id=42))
        assert header.mac == eia3_mac(key, 5, 3, 1, payload)
        assert (header.status, header.request_id, rest) == (STATUS_OK, 42, b"")

    def test_a_short_request_gets_bad_request(self):
        accel = zuc_service(Simulator()).accel
        header, rest = reply(accel, bytes(HEADER_SIZE - 1))
        assert header == ZucHeader((1, OP_EEA3, 0, 0, 0, 0, 0, bytes(16),
                                    bytes(16), 0, STATUS_BAD_REQUEST))
        assert rest == b"" and accel.stats_bad_requests == 1

    def test_an_unknown_op_gets_bad_op_and_its_own_header(self):
        accel = zuc_service(Simulator()).accel
        request = make_request(7, bytes(16), b"abc", count=9, request_id=3)
        header, rest = reply(accel, request)
        assert header.status == STATUS_BAD_OP and rest == b""
        assert header[:10] == parse_response(request)[0][:10]
        assert accel.stats_bad_requests == 1


class TestTracedRequestsOverFldR:
    """Each message's ``rdma`` span opens when the engine takes it and
    closes once, in the pass that handles its last segment's ACK."""

    def run(self, size):
        telemetry = Telemetry(trace=False, spans=True)
        sim = Simulator(telemetry=telemetry)
        spans = telemetry.spans
        setup = zuc_service(sim)
        exits = Counter()
        acks = set()
        close = spans.exit

        def exit(handle, now):
            if handle is not None:
                exits[id(handle[0]), handle[1]] += 1
            close(handle, now)
        spans.exit = exit
        for node in (setup.client, setup.server):
            engine = node.nic.rdma

            def handle_ack(qp, psn, engine=engine):
                acks.add(sim.now)
                RdmaEngine._handle_ack(engine, qp, psn)
            engine._handle_ack = handle_ack
        key, payload = bytes(range(16)), bytes(range(256)) * (size // 256)
        responses = []

        def client():
            ctx = spans.start_trace("zuc.request", sim.now)
            setup.connection.endpoint.post_send(
                make_request(OP_EEA3, key, payload, request_id=1),
                trace_ctx=ctx)
            message, cqe = yield setup.connection.responses.get()
            responses.append(message)
            spans.end_trace(cqe.trace_ctx, sim.now)
        sim.spawn(client())
        sim.run()
        header, result = parse_response(responses[0])
        assert header.request_id == 1 and header.status == STATUS_OK
        assert result == eea3_encrypt(key, 0, 0, 0, payload)
        return setup, spans, exits, acks

    def check(self, size, segments):
        setup, spans, exits, acks = self.run(size)
        mtu = setup.client.nic.rdma.mtu
        assert -(-(HEADER_SIZE + size) // mtu) == segments
        sent = [node.nic.rdma.stats_segments_sent
                for node in (setup.client, setup.server)]
        assert sent == [segments, segments]
        trace, = spans.finished_traces()
        rdma = [span for span in trace.spans if span.stage == "rdma"]
        # The request's span and the response's, each closed at an ACK
        # and exactly once (no other span on this path is entered and
        # exited: the rest are recorded whole).
        assert len(rdma) == 2 and all(span.end in acks for span in rdma)
        assert sum(exits.values()) == len(exits) == 2
        assert spans.orphan_spans() == [] and spans.pending_stashes() == []
        assert not any(node.nic.rdma.qps[qpn].outstanding
                       for node in (setup.client, setup.server)
                       for qpn in node.nic.rdma.qps)

    def test_a_one_segment_request(self):
        self.check(512, 1)

    def test_a_request_of_more_than_an_mtu(self):
        self.check(2048, 3)
