"""FLD-E control plane (§5.3, §5.4): match-action with acceleration.

Extends the NIC's match-action abstraction with the new *acceleration
action*: matched packets detour through an FLD receive queue carrying a
context ID (tenant) and a resume-table ID; the accelerator's transmitted
packets re-enter steering at the resume table, so NIC offloads run both
before and after the accelerator.

For virtualization (§5.4) the control plane is the trusted entity: it
stamps context IDs via :class:`SetContextId` itself and rejects
tenant-supplied rules that try to forge them; per-tenant rate limits use
the NIC's shaper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..nic import (
    Action,
    DecapVxlan,
    ForwardToRss,
    MatchSpec,
    Meter,
    Rule,
    SetContextId,
    ToAccelerator,
)
from ..nic.queues import ReceiveQueue
from .runtime import FldRuntime


class FldEPolicyError(RuntimeError):
    """Raised when an untrusted rule tries to escalate (forge contexts)."""


class FldEControlPlane:
    """Installs acceleration/steering rules for one vPort's pipeline."""

    def __init__(self, runtime: FldRuntime, vport: int):
        self.runtime = runtime
        self.nic = runtime.nic
        self.ctrl = runtime.ctrl
        self.vport = vport
        self._vport = self.ctrl.ensure_vport(vport)
        self.table = self.nic.steering.table(self._vport.rx_root)
        self.stats_rules = 0
        # Teardown bookkeeping: rules and resume tables this control
        # plane installed, in install order.
        self._rules: List = []
        self._resume_tables: List = []  # ResumeTable firmware objects

    # ------------------------------------------------------------------
    # Acceleration rules
    # ------------------------------------------------------------------

    def _install(self, match: MatchSpec, actions: List[Action],
                 priority: int) -> Rule:
        """Install a rule on the vPort root through the command unit."""
        rule = self.ctrl.install_rule(self._vport.rx_root, match, actions,
                                      priority)
        self._rules.append(rule)
        self.stats_rules += 1
        return rule

    # ------------------------------------------------------------------
    # Virtualization (§5.4)
    # ------------------------------------------------------------------

    def add_tenant(self, tenant_id: int, match: MatchSpec,
                   accel_rq: ReceiveQueue, resume_actions: List[Action],
                   rate_bps: Optional[float] = None,
                   priority: int = 0) -> Rule:
        """Classify a tenant's flows: tag + optional rate limit + detour.

        The context ID is stamped by this (trusted) control plane; the
        tenant never controls it.
        """
        if not 0 < tenant_id <= 0xFFFF:
            raise FldEPolicyError("tenant IDs are 16-bit and nonzero")
        name = f"vport{self.vport}.tenant{tenant_id}.resume"
        table = self.nic.steering.table(name)
        table.default_actions = resume_actions
        self._resume_tables.append(self.ctrl.add_resume_table(name))
        actions: List[Action] = [SetContextId(tenant_id)]
        if rate_bps is not None:
            meter_name = f"tenant{tenant_id}"
            self.nic.shaper.add_limiter(meter_name, rate_bps)
            actions.append(Meter(meter_name))
        actions.append(ToAccelerator(accel_rq, name, tenant_id))
        rule = self._install(match, actions, priority)
        return rule

    def validate_tenant_rule(self, actions: List[Action]) -> None:
        """Reject untrusted rules that set context IDs (§5.4).

        Tenants may install classification rules for their own traffic,
        but only the control plane may tag contexts — a forged
        SetContextId would impersonate another tenant.
        """
        for action in actions:
            if isinstance(action, SetContextId):
                raise FldEPolicyError(
                    "untrusted rules must not set context IDs"
                )

    def install_tenant_rule(self, match: MatchSpec, actions: List[Action],
                            priority: int = 0) -> Rule:
        """Install a rule on behalf of an untrusted tenant, validated."""
        self.validate_tenant_rule(actions)
        return self._install(match, actions, priority)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Destroy every rule and resume table this plane installed.

        Leaves the vPort itself alive (the node owns it); after close
        the vPort's root table is rule-free again, so the node can
        destroy the vPort without tripping ``IN_USE``.
        """
        for rule in reversed(self._rules):
            self.ctrl.try_destroy(rule)
        self._rules.clear()
        for resume in reversed(self._resume_tables):
            self.ctrl.try_destroy(resume)
            self.nic.steering.remove_table(resume.table_name)
        self._resume_tables.clear()
