"""Functional model of a ConnectX-like NIC ASIC."""

from .cmd import (
    CmdError,
    CmdStatus,
    CommandUnit,
    ObjectTable,
)
from .device import BAR_SIZE, DOORBELL_STRIDE, Nic, NicConfig, WQE_MMIO_BASE, WQE_MMIO_STRIDE
from .eswitch import ESwitch, EthernetPort, VPort
from .offloads import ChecksumOffload, SegmentationOffload
from .queues import (
    CompletionQueue,
    MultiPacketReceiveQueue,
    QueueError,
    ReceiveQueue,
    RssGroup,
    SendQueue,
)
from .rdma import RcQp, RdmaEngine, RdmaError
from .shaper import Shaper
from .steering import (
    Action,
    DecapVxlan,
    Disposition,
    Drop,
    FlowTable,
    ForwardToQueue,
    ForwardToRss,
    ForwardToUplink,
    ForwardToVport,
    GotoTable,
    MatchSpec,
    Meter,
    Rule,
    SetContextId,
    SteeringError,
    SteeringPipeline,
    ToAccelerator,
)
from .wqe import (
    CQE_FLAG_L3_OK,
    CQE_FLAG_L4_OK,
    CQE_FLAG_MSG_LAST,
    CQE_FLAG_VXLAN_DECAP,
    CQE_RECV_COMPLETION,
    CQE_SEND_COMPLETION,
    CQE_SIZE,
    OP_ETH_SEND,
    OP_RDMA_SEND,
    OP_RDMA_WRITE,
    RX_DESC_SIZE,
    TxWqe,
    WQE_FLAG_CSUM_L3,
    WQE_FLAG_CSUM_L4,
    WQE_FLAG_LSO,
    WQE_FLAG_SIGNALED,
    WQE_SIZE,
)

__all__ = [
    "Action", "BAR_SIZE", "CQE_FLAG_L3_OK", "CQE_FLAG_L4_OK",
    "CQE_FLAG_MSG_LAST", "CQE_FLAG_VXLAN_DECAP", "CQE_RECV_COMPLETION",
    "CQE_SEND_COMPLETION", "CQE_SIZE", "ChecksumOffload",
    "CmdError", "CmdStatus", "CommandUnit",
    "ObjectTable", "CompletionQueue",
    "DOORBELL_STRIDE", "DecapVxlan", "Disposition", "Drop", "ESwitch",
    "EthernetPort", "FlowTable", "ForwardToQueue", "ForwardToRss",
    "ForwardToUplink", "ForwardToVport", "GotoTable", "MatchSpec", "Meter",
    "MultiPacketReceiveQueue", "Nic", "NicConfig", "OP_ETH_SEND",
    "OP_RDMA_SEND", "OP_RDMA_WRITE", "QueueError", "RX_DESC_SIZE", "RcQp", "RdmaEngine",
    "RdmaError", "ReceiveQueue", "RssGroup", "Rule", "SendQueue",
    "SegmentationOffload", "SetContextId", "Shaper", "SteeringError", "SteeringPipeline",
    "ToAccelerator", "TxWqe", "VPort", "WQE_FLAG_CSUM_L3", "WQE_FLAG_CSUM_L4",
    "WQE_FLAG_LSO", "WQE_FLAG_SIGNALED", "WQE_MMIO_BASE", "WQE_MMIO_STRIDE", "WQE_SIZE",
]
