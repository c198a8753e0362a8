#!/usr/bin/env python
"""Inter-VM communication: a two-VM signal-processing pipeline.

VM1 (producer) encodes audio blocks with IMA-ADPCM and publishes each
block's checksum + length over Mini-NOVA's IVC channel; VM2 (consumer)
receives the notifications through its vGIC (IVC vIRQ), tallies them,
and acknowledges back.  Demonstrates the microkernel's third property —
communication — end to end: hypercall -> kernel mailbox -> vIRQ ->
receiving guest's ISR -> IVC_RECV.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import make_rng
from repro.common.units import cycles_to_ms
from repro.dsp import adpcm
from repro.eval.scenarios import build_virtualized
from repro.guest.actions import BindIrqSem, Compute, Delay, Finish, Hypercall, SemPend
from repro.kernel.hypercalls import Hc, HcStatus
from repro.kernel.ivc import IVC_IRQ
from repro.workloads.profiles import ADPCM_BLOCK

N_BLOCKS = 12


def main() -> None:
    sc = build_virtualized(2, seed=77, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    prod_os = sc.guests[0].os
    cons_os = sc.guests[1].os
    consumer_vm_id = sc.kernel.pd_of(3).vm_id       # vm2 (manager is id 1)
    log = {"sent": [], "received": [], "acks": 0}

    def producer(os):
        rng = make_rng(1, stream="audio")
        state = adpcm.AdpcmState()
        for i in range(N_BLOCKS):
            pcm = (rng.standard_normal(1024) * 6000).astype(np.int16)
            codes = adpcm.encode(pcm, state)
            checksum = int(codes.sum()) & 0xFFFF_FFFF
            yield Compute(ADPCM_BLOCK.instrs, ADPCM_BLOCK.mem_accesses,
                          ((0x0040_0000, ADPCM_BLOCK.ws_bytes),))
            status = yield Hypercall(int(Hc.IVC_SEND),
                                     (consumer_vm_id, i, checksum, len(codes)))
            assert status == HcStatus.SUCCESS
            log["sent"].append((i, checksum))
            yield Delay(1)
        yield Finish()

    def consumer(os):
        sem = os.create_semaphore("ivc")
        yield BindIrqSem(IVC_IRQ, sem)
        while len(log["received"]) < N_BLOCKS:
            yield SemPend(sem, timeout_ticks=50)
            while True:
                msg = yield Hypercall(int(Hc.IVC_RECV), ())
                if msg is None:
                    break
                src, seq, checksum, nbytes = msg
                log["received"].append((seq, checksum))
                log["acks"] += 1
        yield Finish()

    prod_os.create_task("adpcm-producer", 6, producer)
    cons_os.create_task("ivc-consumer", 6, consumer)
    sc.kernel.run(until=lambda: len(log["received"]) >= N_BLOCKS,
                  until_cycles=sc.machine.now + 3 * 660_000_000)

    print("=== IVC pipeline (VM1 -> VM2) ===")
    print(f"blocks sent:     {len(log['sent'])}")
    print(f"blocks received: {len(log['received'])}")
    print(f"in order + checksums match: "
          f"{log['received'] == log['sent']}")
    print(f"simulated time:  {cycles_to_ms(sc.machine.now):.1f} ms")
    print("IVC messages routed by the kernel: "
          f"{sc.metrics.total('kernel.ivc_sent')}")
    if log["received"] != log["sent"]:
        raise SystemExit("pipeline corrupted!")


if __name__ == "__main__":
    main()
