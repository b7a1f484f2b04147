"""Host-side software: memory, CPU model, software driver, testpmd apps."""

from .cpu import CpuComputeCost, CpuCore, HostCpuPort
from .driver import EthQueuePair, RcEndpoint, SoftwareDriver
from .memory import BumpAllocator, HostMemory, PAGE_SIZE
from .testpmd import EchoApp, LoadGenerator, swap_directions, swap_frame

__all__ = [
    "BumpAllocator",
    "CpuComputeCost",
    "CpuCore",
    "EchoApp",
    "EthQueuePair",
    "HostCpuPort",
    "HostMemory",
    "LoadGenerator",
    "PAGE_SIZE",
    "RcEndpoint",
    "SoftwareDriver",
    "swap_directions",
    "swap_frame",
]
