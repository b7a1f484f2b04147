"""FLD BAR layout (§5.1): "FLD's address space, exposed over its PCIe BAR,
is partitioned according to the various NIC data structures."

The regions are what the NIC believes it is talking to:

====================  ==========  ====================================
region                offset      backing
====================  ==========  ====================================
TX rings (virtual)    0x00_0000   generated on-the-fly from the shared
                                  descriptor pool via translation
TX data (virtual)     0x40_0000   gathered from the shared buffer pool
                                  via the data translation table
RX buffers            0x80_0000   real on-die SRAM the NIC DMA-writes
CQs                   0xC0_0000   decoded on write, stored compressed
Producer indices      0xE0_0000   per-queue PI registers
====================  ==========  ====================================

``FlexDriver.handle_read``/``handle_write`` decode an access against
these constants in their own frame, as the pipeline's first stage does.
"""

from __future__ import annotations

TX_RING_REGION = 0x00_0000
TX_DATA_REGION = 0x40_0000
RX_BUFFER_REGION = 0x80_0000
CQ_REGION = 0xC0_0000
PI_REGION = 0xE0_0000
FLD_BAR_SIZE = 0x100_0000  # 16 MiB of address space (not of SRAM!)

# Span reserved per queue inside the virtual regions.
TX_RING_SPAN = 0x1_0000   # 64 KiB: up to 1024 WQEs of 64 B
TX_DATA_SPAN = 0x8_0000   # 512 KiB virtual data window per queue

#: Transmit queues one FLD can bind: the data windows that fit in the
#: TX data region (the ring region and the tx CQ indices hold more).
MAX_TX_QUEUES = (RX_BUFFER_REGION - TX_DATA_REGION) // TX_DATA_SPAN

# CQ sub-layout: tx CQ ring first, rx CQ ring after.
CQ_SPAN = 0x1_0000


def tx_ring_address(queue: int, wqe_index: int = 0, entries: int = 1024) -> int:
    """BAR offset of a queue's virtual WQE ring slot."""
    return TX_RING_REGION + queue * TX_RING_SPAN + (wqe_index % entries) * 64


def tx_data_address(queue: int, virt_offset: int = 0) -> int:
    """BAR offset inside a queue's virtual data window."""
    return TX_DATA_REGION + queue * TX_DATA_SPAN + (virt_offset % TX_DATA_SPAN)


def cq_address(cq_index: int) -> int:
    """BAR offset of a completion ring (0 = tx CQ, 1 = rx CQ, ...)."""
    return CQ_REGION + cq_index * CQ_SPAN
