"""Unit tests for TLP sizing."""

from repro.pcie import (
    COMPLETION_HEADER,
    DLLP_FRAMING,
    MEM_REQUEST_HEADER,
    read_wire_bytes,
    write_wire_bytes,
)
from repro.pcie.tlp import completion_chunks, split_write_bytes


class TestTlpSizes:
    def test_read_request_is_header_only(self):
        request, _completion = read_wire_bytes(64, rcb=256)
        assert request == MEM_REQUEST_HEADER + DLLP_FRAMING

    def test_write_carries_payload(self):
        assert write_wire_bytes(64, 256) == \
            MEM_REQUEST_HEADER + DLLP_FRAMING + 64

    def test_completion_with_data(self):
        _request, completion = read_wire_bytes(128, rcb=256)
        assert completion == COMPLETION_HEADER + DLLP_FRAMING + 128


class TestSplitting:
    def test_write_split_at_mps(self):
        assert split_write_bytes(600, 256) == [256, 256, 88]

    def test_exact_multiple(self):
        assert split_write_bytes(512, 256) == [256, 256]

    def test_zero_length(self):
        assert split_write_bytes(0, 256) == []

    def test_completion_chunks_at_rcb(self):
        assert completion_chunks(300, 128) == [128, 128, 44]


class TestWireAccounting:
    def test_write_wire_bytes(self):
        # 600 B at MPS 256 -> 3 TLPs, each 24 B overhead.
        assert write_wire_bytes(600, 256) == 600 + 3 * 24

    def test_read_wire_bytes_small(self):
        request, completion = read_wire_bytes(64, rcb=256)
        assert request == 24
        assert completion == 64 + 20

    def test_read_wire_bytes_large_splits(self):
        request, completion = read_wire_bytes(1024, rcb=256,
                                              max_read_request=512)
        assert request == 2 * 24          # two read requests
        assert completion == 1024 + 4 * 20  # four RCB completions
