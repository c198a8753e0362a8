#!/usr/bin/env python
"""Quickstart: boot Mini-NOVA, run one guest, offload an FFT to the fabric.

Builds the full simulated Zynq-7000 platform, boots the microkernel with
the Hardware Task Manager service and a single paravirtualized uC/OS-II
guest, lets the guest request an fft1024 hardware task through the
3-argument hypercall of Section IV-E, and verifies the DMA'd result
against NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import cycles_to_ms, cycles_to_us
from repro.dsp import fft as fft_golden
from repro.eval.scenarios import build_virtualized
from repro.guest import api
from repro.guest.actions import Delay, Finish
from repro.kernel.hypercalls import HcStatus


def main() -> None:
    # A scenario with no pre-installed tasks: we add our own below.
    sc = build_virtualized(n_guests=1, seed=7, with_workloads=False,
                           iterations=0, task_set=("fft1024",))
    os_ = sc.guests[0].os
    results: dict = {}

    rng = np.random.default_rng(1234)
    signal = (rng.standard_normal(1024)
              + 1j * rng.standard_normal(1024)).astype(np.complex64)

    def fft_client(os):
        sem = os.create_semaphore("fft-done")
        handle = yield from api.hw_task_run(
            os, sc.directory["fft1024"], "fft1024", signal.tobytes(), sem=sem)
        results["handle"] = handle
        yield Finish()

    os_.create_task("fft-client", 6, fft_client)

    sc.kernel.run(until=lambda: "handle" in results,
                  until_cycles=660_000_000)   # 1 s cap

    handle = results["handle"]
    assert handle.status == HcStatus.SUCCESS, handle
    got = np.frombuffer(handle.output, dtype=np.complex64)
    want = fft_golden.fft(signal)
    ok = np.allclose(got, want, rtol=1e-3, atol=1e-2)

    m = sc.machine
    total = m.metrics.total
    print("=== Mini-NOVA quickstart ===")
    print(f"simulated time:        {cycles_to_ms(m.now):8.2f} ms")
    print(f"hardware task:         fft1024 on PRR{handle.prr_id} "
          f"(reconfigured: {handle.reconfigured})")
    print(f"PL IRQ used:           {handle.irq_id}")
    print(f"result matches NumPy:  {ok}")
    print(f"hypercalls served:     {total('kernel.hypercalls')}")
    print(f"VM switches:           {total('kernel.vm_switches')}")
    print(f"PCAP transfers:        {total('pcap.transfers')} "
          f"({total('pcap.bytes_moved') / 1024:.0f} KiB streamed)")
    l1d = m.mem.caches.l1d.stats
    print(f"L1D accesses/misses:   {l1d.accesses}/{l1d.misses}")
    if not ok:
        raise SystemExit("FFT result mismatch!")


if __name__ == "__main__":
    main()
