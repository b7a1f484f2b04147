"""Experiment harnesses reproducing the paper's evaluation (§8).

The harness modules (``cpu_mediated``, ``defrag``, ``echo``, ``iot``,
``prog``, ``scale_tenants``, ``scaling``, ``zuc``) are imported by name
when a row or a sweep point needs them, not with the package.
"""

from .setups import (
    Calibration,
    cpu_echo_remote,
    flde_echo_local,
    flde_echo_remote,
    fldr_echo,
    zuc_service,
)

__all__ = [
    "Calibration",
    "cpu_echo_remote",
    "flde_echo_local",
    "flde_echo_remote",
    "fldr_echo",
    "zuc_service",
]
