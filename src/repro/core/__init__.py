"""FlexDriver (FLD): the paper's primary contribution, modelled behaviorally."""

from . import bar
from .axis import AxisMetadata, AxisStream, CreditInterface
from .buffers import BufferPool, BufferPoolError
from .cuckoo import CuckooFullError, CuckooHashTable, NUM_BANKS, STASH_SIZE
from .descriptors import (
    COMPRESSED_CQE,
    COMPRESSED_CQE_SIZE,
    COMPRESSED_TX_DESC,
    COMPRESSED_TX_DESC_SIZE,
)
from .errors import ErrorReporter, FldError
from .fld import FldConfig, FlexDriver
from .rx import RxError, RxRingManager
from .translation import (
    DataTranslationTable,
    DescriptorPool,
    TranslationError,
)
from .tx import TxQueueError, TxRingManager

__all__ = [
    "AxisMetadata", "AxisStream", "BufferPool", "BufferPoolError",
    "COMPRESSED_CQE", "COMPRESSED_CQE_SIZE", "COMPRESSED_TX_DESC",
    "COMPRESSED_TX_DESC_SIZE", "CreditInterface", "CuckooFullError",
    "CuckooHashTable", "DataTranslationTable", "DescriptorPool",
    "ErrorReporter", "FldConfig", "FldError", "FlexDriver", "NUM_BANKS",
    "RxError", "RxRingManager", "STASH_SIZE", "TranslationError",
    "TxQueueError", "TxRingManager", "bar",
]
