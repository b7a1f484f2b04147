"""ZUC cipher (128-EEA3/EIA3) and the disaggregated accelerator (§7)."""

from .extensions import (
    CachedKeyZucAccelerator,
    CompactRequest,
    OP_EEA3_CACHED,
    OP_EIA3_CACHED,
    OP_SET_KEY,
    make_compact_request,
    make_set_key,
    pack_batch,
    unpack_batch,
)
from .accel import (
    HEADER_SIZE,
    OP_EEA3,
    OP_EIA3,
    STATUS_OK,
    ZucAccelerator,
    ZucHeader,
    make_request,
    parse_response,
)
from .eea3 import DOWNLINK, UPLINK, eea3_decrypt, eea3_encrypt
from .eia3 import eia3_mac
from .zuc_core import Zuc

__all__ = [
    "CachedKeyZucAccelerator", "CompactRequest", "DOWNLINK", "HEADER_SIZE", "OP_EEA3", "OP_EIA3", "STATUS_OK", "UPLINK",
    "Zuc", "ZucAccelerator", "ZucHeader", "eea3_decrypt", "eea3_encrypt",
    "eia3_mac", "make_compact_request", "make_request",
    "make_set_key", "OP_EEA3_CACHED", "OP_EIA3_CACHED", "OP_SET_KEY",
    "pack_batch", "parse_response", "unpack_batch",
]
