"""FLD software stack: runtime library, control planes, client library."""

from .client import FldRClient, FldRClientError, FldRConnection
from .batching import BatchingZucCryptodev
from .cryptodev import CryptoOp, Cryptodev, FldRZucCryptodev, SwZucCryptodev
from .flde import FldEControlPlane, FldEPolicyError
from .fldr import FldRConnectionInfo, FldRControlPlane
from .kdriver import FldKernelDriver
from .runtime import FldRuntime, FldRuntimeError

__all__ = [
    "BatchingZucCryptodev",
    "CryptoOp",
    "Cryptodev",
    "FldEControlPlane",
    "FldEPolicyError",
    "FldKernelDriver",
    "FldRClient",
    "FldRClientError",
    "FldRConnection",
    "FldRConnectionInfo",
    "FldRControlPlane",
    "FldRZucCryptodev",
    "FldRuntime",
    "FldRuntimeError",
    "SwZucCryptodev",
]
