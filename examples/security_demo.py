#!/usr/bin/env python
"""Security mechanisms of Section IV-C, demonstrated live.

Three scenes:
1. **hwMMU** — a guest programs its hardware task to DMA into another
   VM's memory; the PRR controller blocks the transfer and the victim's
   data survives untouched.
2. **Exclusive interface mapping** — when a PRR is reclaimed for another
   VM, the old client's register-group page disappears from its address
   space; a stale access traps as a page fault handled by the guest OS,
   and the consistency flag in its data section tells it why.
3. **DACR split** — guest-user code cannot see guest-kernel pages, and
   nobody in PL0 can see the microkernel.
"""

from __future__ import annotations

from repro.common.errors import DataAbort
from repro.eval.scenarios import build_virtualized
from repro.fpga.prr import CTRL_START, PrrStatus, REG_CTRL, REG_DST, REG_LEN, REG_SRC
from repro.kernel import layout as L
from repro.kernel.memory import DACR_GUEST_KERNEL, DACR_GUEST_USER


def scene_1_hwmmu(sc) -> None:
    print("--- Scene 1: hwMMU blocks cross-VM DMA " + "-" * 30)
    kernel, machine = sc.kernel, sc.machine
    # Whoever currently owns a PRR plays the attacker; the other guest is
    # the victim.
    prr = next(p for p in machine.prrs if p.client_vm is not None)
    attacker = kernel.pd_of(prr.client_vm)
    victim = next(pd for pd in kernel.domains.values()
                  if pd.name.startswith("vm") and pd is not attacker)
    secret = victim.phys_base + L.GUEST_HWDATA_VA
    machine.mem.bus.dram.write_bytes(secret, b"victim-secret!" * 4)
    page = prr.prr_id * 4096
    ctl = machine.prr_controller
    ctl.mmio_write(page + REG_SRC, attacker.hw_data.pa + 64)
    ctl.mmio_write(page + REG_LEN, 512)
    ctl.mmio_write(page + REG_DST, secret)          # out of its window
    ctl.mmio_write(page + REG_CTRL, CTRL_START)
    status = PrrStatus(ctl.mmio_read(page + 0x04))
    survived = machine.mem.bus.dram.read_bytes(secret, 14) == b"victim-secret!"
    print(f"  attacker VM{attacker.vm_id} aimed PRR{prr.prr_id} DMA at "
          f"VM{victim.vm_id}'s section: status={status.name}")
    print("  hwMMU violations recorded: "
          f"{sc.metrics.total('prr.violations', prr=prr.prr_id)}")
    print(f"  victim memory intact: {survived}")
    assert status == PrrStatus.ERR_BOUNDS and survived


def scene_2_reclaim(sc) -> None:
    print("--- Scene 2: reclaim demaps the interface " + "-" * 27)
    kernel, machine = sc.kernel, sc.machine
    vm1 = next(pd for pd in kernel.domains.values()
               if pd.name.startswith("vm") and pd.prr_iface)
    prr_id = next(iter(vm1.prr_iface))
    # The manager reclaims it (as it would for another VM's request).
    kernel.service_save_reggroup(vm1, prr_id, machine.prrs[prr_id].reg_snapshot())
    kernel.service_unmap_iface(vm1, prr_id)
    flag = int.from_bytes(
        machine.mem.bus.dram.read_bytes(vm1.hw_data.pa, 4), "little")
    print(f"  PRR{prr_id} reclaimed from VM{vm1.vm_id}; "
          f"consistency flag in its data section = {flag}")
    kernel._vm_switch(vm1)
    try:
        machine.mem.read32(L.GUEST_PRR_IFACE_VA, privileged=False)
        print("  !! stale access succeeded — BUG")
        raise SystemExit(1)
    except DataAbort as e:
        print(f"  stale access to the old interface page: {e}")
    assert flag == 1


def scene_3_dacr(sc) -> None:
    print("--- Scene 3: DACR separation inside PL0 " + "-" * 29)
    kernel, machine = sc.kernel, sc.machine
    vm1 = kernel.pd_of(2)
    kernel._vm_switch(vm1)
    cpu = machine.cpu
    cpu.sysregs.write("DACR", DACR_GUEST_KERNEL, privileged=True)
    machine.mem.touch(L.GUEST_KERNEL_DATA, privileged=False)
    print("  guest-kernel view: guest kernel data accessible")
    cpu.sysregs.write("DACR", DACR_GUEST_USER, privileged=True)
    try:
        machine.mem.touch(L.GUEST_KERNEL_DATA, privileged=False)
        raise SystemExit("guest user saw guest kernel — BUG")
    except DataAbort as e:
        print(f"  guest-user view:   {e}")
    try:
        machine.mem.touch(L.KERNEL_BASE, privileged=False)
        raise SystemExit("PL0 saw the microkernel — BUG")
    except DataAbort as e:
        print(f"  microkernel from PL0: {e}")


def main() -> None:
    print("=== Mini-NOVA security demo (Section IV-C) ===")
    sc = build_virtualized(2, seed=99, iterations=2, with_workloads=False,
                           task_set=("qam16",))
    sc.run_until_completions(4, max_ms=4000)
    scene_1_hwmmu(sc)
    scene_2_reclaim(sc)
    scene_3_dacr(sc)
    print("all security properties held.")


if __name__ == "__main__":
    main()
