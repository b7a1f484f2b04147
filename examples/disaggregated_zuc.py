#!/usr/bin/env python3
"""A disaggregated LTE cipher accelerator over FLD-R (§7, §8.2.1).

The server exposes 8 real ZUC engine units behind FlexDriver's RDMA
interface; the client talks to it through a DPDK-cryptodev-style API —
the same API a local hardware cipher would use, which is the paper's
portability point.  Ciphertext is verified against a direct 128-EEA3
computation, one 128-EIA3 MAC against a direct computation too, and the
throughput is compared against the single-core software driver.

Run:  python examples/disaggregated_zuc.py
"""

from repro.accelerators.zuc import eea3_encrypt, eia3_mac
from repro.experiments.setups import Calibration, zuc_service
from repro.experiments.zuc import SW_CYCLES_PER_BYTE, SW_CYCLES_PER_OP
from repro.host import CpuComputeCost, CpuCore
from repro.sim import Simulator
from repro.sw import CryptoOp, FldRZucCryptodev, SwZucCryptodev


def run_device(make_device, label: str, size: int = 512, count: int = 200):
    """test-crypto-perf in miniature: a closed loop of cipher ops, then
    one integrity op."""
    sim = Simulator()
    dev, verify_key = make_device(sim)
    payload = bytes(range(256)) * (size // 256 or 1)
    payload = payload[:size]
    state = {"done": 0, "first": None, "last": None, "checked": False}

    def runner(sim):
        window = 32
        submitted = 0
        for _ in range(min(window, count)):
            dev.submit(CryptoOp(CryptoOp.CIPHER, verify_key, payload,
                                count=7, bearer=3))
            submitted += 1
        while state["done"] < count:
            op = yield dev.completions.get()
            if not state["checked"]:
                expected = eea3_encrypt(verify_key, 7, 3, 0, payload)
                assert op.result == expected, "ciphertext mismatch!"
                state["checked"] = True
            state["done"] += 1
            state["first"] = state["first"] or sim.now
            state["last"] = sim.now
            if submitted < count:
                dev.submit(CryptoOp(CryptoOp.CIPHER, verify_key, payload,
                                    count=7, bearer=3))
                submitted += 1
        dev.submit(CryptoOp(CryptoOp.AUTH, verify_key, payload, count=7,
                            bearer=3))
        op = yield dev.completions.get()
        assert op.mac == eia3_mac(verify_key, 7, 3, 0, payload), \
            "MAC mismatch!"

    sim.spawn(runner(sim))
    sim.run(until=5.0)
    duration = state["last"] - state["first"]
    gbps = (state["done"] - 1) * size * 8 / duration / 1e9
    print(f"{label:<28s} {gbps:6.2f} Gbps "
          f"({state['done']} x {size} B requests, ciphertext and MAC "
          "verified)")
    return gbps


def main():
    print("=== Disaggregated ZUC cipher (128-EEA3) ===")
    key = bytes(range(16))

    def make_fld(sim):
        setup = zuc_service(sim, Calibration())
        return FldRZucCryptodev(sim, setup.connection), key

    def make_cpu(sim):
        core = CpuCore(sim, os_jitter_probability=0.0)
        compute = CpuComputeCost(core, SW_CYCLES_PER_BYTE,
                                 SW_CYCLES_PER_OP)
        return SwZucCryptodev(sim, compute), key

    remote = run_device(make_fld, "remote FLD accelerator")
    local = run_device(make_cpu, "local software (1 core)")
    print(f"{'speedup':<28s} {remote / local:6.2f}x  (paper: ~4x at 512 B)")


if __name__ == "__main__":
    main()
