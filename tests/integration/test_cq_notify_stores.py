"""A completion queue has a notify store only if something consumes it.

Host drivers pump each CQ's ``notify`` store; FLD reads each CQE as its
write lands in FLD's BAR, so FLD's CQs are created without one.  (They
used to build the store and drop it, and under telemetry its depth gauge
and wait histogram stayed registered: every export carried
``store.cq<N>.notify.*`` at 0 for each FLD CQ.)
"""

import pytest

from repro.core.bar import FLD_BAR_SIZE
from repro.scenario import run
from repro.telemetry import Telemetry


def _cqs(testbed):
    """``(FLD's CQs, the host drivers' CQs)``: an FLD CQ's ring is in
    its node's FLD BAR."""
    fld, host = [], []
    for node in testbed.nodes.values():
        bars = [runtime.fld_bar_base for runtime in
                testbed.fld_runtimes.values() if runtime.node is node]
        for cq in node.nic.cqs.values():
            in_bar = any(base <= cq.ring_addr < base + FLD_BAR_SIZE
                         for base in bars)
            (fld if in_bar else host).append(cq)
    return fld, host


# fig7b's FLD and host CQs share numbers (one per NIC); fig7c-local's
# FLD CQs are cq1 and cq4 beside the host's cq2 and cq3; scale-tenants
# gives FLD eight.
@pytest.mark.parametrize("name", ["fig7b", "fig7c-local", "scale-tenants"])
def test_fld_cqs_export_no_notify_store_and_host_cqs_keep_theirs(name):
    telemetry = Telemetry(trace=False)
    _row, testbed = run(name, 8, telemetry=telemetry)
    fld, host = _cqs(testbed)
    assert fld and host
    assert [cq.notify for cq in fld] == [None] * len(fld)
    assert [cq.notify.name for cq in host] == [
        f"cq{cq.cqn}.notify" for cq in host]
    export = telemetry.metrics.to_dict()
    exported = {name for section in ("gauges", "histograms")
                for name in export[section] if ".notify." in name}
    assert exported == {f"store.cq{cq.cqn}.notify.{metric}"
                        for cq in host for metric in ("depth", "wait")}
