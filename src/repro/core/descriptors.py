"""FLD's compressed internal descriptor formats (§5.2 "Compression").

The NIC's descriptor formats are general: 64-bit addresses, 32-bit
lengths, many flag fields.  FLD's queues always point into small on-chip
buffer pools addressed by a handle of a few bits, so FLD stores a
compressed form and *expands it on the fly* when the NIC's PCIe read
arrives.  Sizes follow the paper's Table 2b:

=====================  ========  =====
structure              software  FLD
=====================  ========  =====
Tx descriptor           64 B      8 B
Rx descriptor           16 B      —  (ring lives in host memory)
Completion queue entry  64 B     15 B
=====================  ========  =====

FLD keeps a queued descriptor as a tuple in its descriptor pool and
expands it into the NIC's 64 B WQE when the NIC's PCIe read arrives
(:meth:`repro.core.tx.TxRingManager._expand`).  The two compressed
layouts are :class:`struct.Struct` s, and their sizes are the FLD
column above.
"""

import struct

#: 8 B transmit descriptor: buffer-pool handle u16 (chunk index), payload
#: length u16 (<= 16 KiB fits 14 bits), FLD-E resume/tenant context ID
#: u24, then a byte of bits 0-1 opcode, bit 2 signaled.
COMPRESSED_TX_DESC = struct.Struct("!HH3sB")

#: 15 B completion record, what FLD's ring managers and the accelerator
#: metadata need of the NIC's 64 B CQE: opcode u8, flags u8, wqe_counter
#: u16, qpn u24, byte_count u16, flow_tag u32, stride u16.
COMPRESSED_CQE = struct.Struct("!BBH3sHIH")

COMPRESSED_TX_DESC_SIZE = COMPRESSED_TX_DESC.size
COMPRESSED_CQE_SIZE = COMPRESSED_CQE.size
