"""A completion queue builds no store: a CQE lands in its consumer.

FLD reads each CQE as its write lands in FLD's BAR; a host queue's
receive CQEs go to its dispatcher and its send completions to a
callback, each as the write lands.  No CQ owns a ``Store``, so no export
carries a ``store.cq<N>.notify.*`` gauge or histogram.  (Each host CQ
used to feed a ``notify`` store that a pump drained, and FLD's CQs built
one and dropped it, leaving its metrics in every export at 0.)
"""

import pytest

from repro.core.bar import FLD_BAR_SIZE
from repro.scenario import run
from repro.sim import Store
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
def test_no_cq_builds_a_store_and_no_export_has_a_notify_store(name):
    telemetry = Telemetry(trace=False)
    _row, testbed = run(name, 8, telemetry=telemetry)
    fld, host = _cqs(testbed)
    assert fld and host
    for cq in fld + host:
        assert not any(isinstance(value, Store)
                       for value in vars(cq).values())
    # Each host CQ has its consumer: the receive dispatcher or the send
    # completion callback.
    assert all((cq.fused_rx is None) != (cq.on_cqe is None) for cq in host)
    export = telemetry.metrics.to_dict()
    assert [name for section in ("gauges", "histograms")
            for name in export[section] if name.startswith("store.cq")] == []
