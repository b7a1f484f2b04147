"""A CQE's bytes, by field name, for tests that hand a device a
completion: the NIC's layout (:data:`repro.nic.wqe.CQE`), with the
counter and hash cut to their widths as the NIC's producers do."""

from repro.nic.wqe import CQE


def cqe_bytes(opcode, qpn, wqe_counter, byte_count, flags=0, rss_hash=0,
        flow_tag=0, stride_index=0, owner=1, syndrome=0) -> bytes:
    return CQE.pack(opcode, flags, wqe_counter & 0xFFFF, qpn, byte_count,
                    rss_hash & 0xFFFFFFFF, flow_tag, stride_index, owner,
                    syndrome)
