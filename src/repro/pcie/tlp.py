"""PCIe Transaction Layer Packets and their wire-size accounting.

FLD's whole performance story (paper §8.1, Fig. 7a) is about the PCIe
protocol bytes that accompany every network packet: descriptor reads,
completion writes, doorbells, and the TLP framing around each of them.
This module models TLP kinds and sizes at the fidelity the paper's
performance model uses.

Sizing model (PCIe Gen 3):
  * every TLP carries physical/data-link framing: STP token (4 B) +
    LCRC (4 B) = 8 B;
  * memory request headers are 3 DW (12 B) below 4 GiB or 4 DW (16 B)
    with 64-bit addresses — we use 4 DW for requests, as device BARs in
    modern hosts sit in high memory;
  * completion headers are 3 DW (12 B);
  * a memory write's payload is capped by the link's max payload size
    (MPS); larger writes split into multiple TLPs;
  * a memory read is header-only; its data returns in completion TLPs
    split at the read completion boundary (RCB).
"""

from __future__ import annotations

DLLP_FRAMING = 8        # STP token + LCRC per TLP
MEM_REQUEST_HEADER = 16  # 4 DW header (64-bit addressing)
COMPLETION_HEADER = 12   # 3 DW header


def split_write_bytes(length: int, mps: int) -> list:
    """TLP payload lengths for a write of ``length`` under MPS."""
    if length <= 0:
        return []
    full, tail = divmod(length, mps)
    return [mps] * full + [tail] if tail else [mps] * full


def completion_chunks(length: int, rcb: int) -> list:
    """Completion payload lengths for a read of ``length`` under RCB."""
    return split_write_bytes(length, rcb)


def write_wire_bytes(length: int, mps: int) -> int:
    """Total link bytes to write ``length`` payload bytes."""
    chunks = split_write_bytes(length, mps)
    return sum(MEM_REQUEST_HEADER + DLLP_FRAMING + c for c in chunks)


def read_wire_bytes(length: int, rcb: int,
                    max_read_request: int = 512) -> tuple:
    """(request_bytes, completion_bytes) for reading ``length`` bytes.

    Long reads first split into max-read-request-sized requests, each
    answered by RCB-sized completions.
    """
    request_bytes = 0
    completion_bytes = 0
    for request in split_write_bytes(length, max_read_request):
        request_bytes += MEM_REQUEST_HEADER + DLLP_FRAMING
        for chunk in completion_chunks(request, rcb):
            completion_bytes += COMPLETION_HEADER + DLLP_FRAMING + chunk
    return request_bytes, completion_bytes
