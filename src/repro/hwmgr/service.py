"""The Hardware Task Manager as a Mini-NOVA user-level service (Section IV-E).

A suspended-by-default PD at service priority: every HC_HWTASK_* hypercall
enqueues a request and resumes it, so it preempts guests, drains its
mailbox through the shared :class:`~repro.hwmgr.alloc.Allocator`, posts
results, and parks itself again.  All its accesses run de-privileged in
its own address space — page-table and vGIC manipulation goes through the
kernel crossings (`service_*`), which is precisely the virtualization
overhead Table III measures.
"""

from __future__ import annotations

from ..common.errors import DeviceError, ServiceCrashed
from ..faults.plan import SERVICE_CRASH, SERVICE_HANG
from ..fpga.prr import (
    Prr,
    REG_DST,
    REG_IRQ_EN,
    REG_LEN,
    REG_OUTLEN,
    REG_SRC,
    REG_STATUS,
)
from ..kernel import layout as L
from ..kernel.exits import ExitHypercall, ExitIdle
from ..kernel.hypercalls import HcStatus
from .alloc import AllocRequest, Allocator
from .tables import HardwareTaskTable, PrrTable

_PAGE = 4096


class ManagerService:
    """DomainRunner + ManagerPort for the virtualized system."""

    def __init__(self, *, block_on_pcap: bool = False) -> None:
        self.kernel = None
        self.pd = None
        self.allocator: Allocator | None = None
        #: The request being handled right now (crash-recovery reads this
        #: off the dead instance to bounce the in-flight requester).
        self.current_request = None
        #: Ablation knob: wait for PCAP completion inside the request
        #: instead of returning the RECONFIG status (Section IV-E stage 6
        #: explicitly chooses *not* to do this, to overlap the latency).
        self.block_on_pcap = block_on_pcap

    # -- DomainRunner ------------------------------------------------------

    def bind(self, kernel, pd) -> None:
        self.kernel = kernel
        self.pd = pd
        machine = kernel.machine
        task_table = HardwareTaskTable.build(
            machine.bitstreams, machine.prrs,
            machine.pcap.transfer_cycles,
            row_base=L.MANAGER_DATA_VA + 0x1000)
        prr_table = PrrTable(machine.prrs, row_base=L.MANAGER_DATA_VA + 0x3000)
        self.allocator = Allocator(self, task_table, prr_table, machine.prrs,
                                   kernel.metrics,
                                   journal=kernel.manager_journal)

    def step(self, budget: int):
        kernel = self.kernel
        req = kernel.manager_take_request()
        if req is None:
            return ExitIdle()
        while req is not None:
            if self._consult_hang():
                # The service wedges without draining its mailbox: put the
                # request back and park.  The supervisor's per-request
                # deadline detects the stall and restarts the PD.
                kernel.manager_queue.insert(0, req)
                return ExitIdle()
            self.current_request = req
            self.crashpoint("pickup")
            exec_start = kernel.sim.now
            # The mgr_exec span (Table III "HW Manager execution").
            with kernel.tracer.span("mgr_exec", cat="hwmgr", vm=req.pd.vm_id,
                                    rid=req.rid):
                result = self._handle(req)
            kernel.metrics.counter("hwmgr.requests", kind=req.kind).inc()
            kernel.metrics.histogram("hwmgr.exec_cycles").observe(
                kernel.sim.now - exec_start)
            # Every request can change fabric ownership (allocate, reclaim,
            # release): reconcile the per-VM PRR occupancy intervals.
            kernel.acct.sync_prr_occupancy(kernel.machine.prrs)
            if kernel.brownout is not None:
                # Fabric/queue pressure may have moved — let the brownout
                # controller flip mode (docs/FLEET.md §11).
                kernel.brownout.observe(kernel)
            kernel.manager_post_result(req, result)
            self.current_request = None
            req = kernel.manager_take_request()
        return ExitIdle()

    def deliver_virq(self, irq_id: int) -> None:
        pass  # the manager takes no virtual interrupts

    def complete_hypercall(self, exit_: ExitHypercall) -> None:
        pass  # its kernel crossings are inlined, not exit-based

    # -- request handling -------------------------------------------------------

    def _handle(self, req):
        alloc = self.allocator
        assert alloc is not None
        if req.kind == "request":
            pd = req.pd
            data_va = req.data_va
            if not pd.hw_data.configured:
                return (HcStatus.ERR_STATE, None, None)
            if not (pd.hw_data.va <= data_va
                    and data_va < pd.hw_data.va + pd.hw_data.size):
                return (HcStatus.ERR_ARG, None, None)
            data_pa = pd.phys_base + data_va
            size = pd.hw_data.va + pd.hw_data.size - data_va
            r = alloc.allocate(AllocRequest(
                client_vm=pd.vm_id, task_id=req.task_id,
                iface_va=req.iface_va, data_pa=data_pa, data_size=size,
                want_irq=req.want_irq, rid=req.rid))
            return (r.status, r.prr_id, r.irq_id)
        if req.kind == "release":
            r = alloc.release(req.pd.vm_id, req.task_id)
            return (r.status, r.prr_id, None)
        if req.kind == "irq_attach":
            # Attach an IRQ to a PRR the client already holds.
            for row in alloc.prr_table.rows_of_client(req.pd.vm_id):
                prr = alloc.prrs[row.prr_id]
                irq = alloc._attach_irq(prr, req.pd.vm_id)
                if irq is not None:
                    return (HcStatus.SUCCESS, row.prr_id, irq)
            return (HcStatus.ERR_STATE, None, None)
        if req.kind == "watchdog":
            # Kernel-originated (no requester to resume): the controller's
            # watchdog flagged PRR ``task_id`` as hung — force-reclaim it.
            prr_id = req.task_id
            hung_since = alloc.prrs[prr_id].busy_since
            old = alloc.force_reclaim(prr_id)
            k = self.kernel
            k.metrics.counter("recovery.watchdog_reclaims").inc()
            k.metrics.histogram("recovery.latency_cycles").observe(
                k.sim.now - hung_since)
            k.tracer.mark("watchdog_reclaim", cat="fault", prr=prr_id,
                          vm=old if old is not None else 0)
            return (HcStatus.SUCCESS, prr_id, None)
        if req.kind == "client_died":
            # Kernel-originated on VM death: PRR ``task_id``'s client PD
            # was killed, so its fabric region must return to the free
            # pool.  Same consistency protocol as the watchdog path
            # (idempotent — a watchdog reclaim racing the kill is fine).
            prr_id = req.task_id
            old = alloc.force_reclaim(prr_id, reason="client_died")
            k = self.kernel
            k.metrics.counter("vm.lifecycle.client_reclaims").inc()
            k.tracer.mark("client_died_reclaim", cat="lifecycle", prr=prr_id,
                          vm=old if old is not None else 0)
            return (HcStatus.SUCCESS, prr_id, None)
        raise DeviceError(f"unknown manager request kind {req.kind!r}")

    # -- fault-site consults (untimed; no-ops without an injector) -----------------

    def crashpoint(self, point: str) -> None:
        """Die here iff a ``service.crash`` fault fires at this point.

        A spec may target one point by name (``params={"point": ...}``);
        non-matching consults then don't count as occurrences, so
        ``after=N`` still indexes occurrences *of the targeted point*.
        Suppressed while the supervisor is mid-restart (recovery itself
        is not a crashable region in this model).
        """
        kernel = self.kernel
        faults = kernel.faults
        if faults is None or kernel.supervisor.in_restart:
            return
        spec = faults.plan.spec_for(SERVICE_CRASH)
        if spec is None:
            return
        want = spec.params.get("point")
        if want is not None and want != point:
            return
        if faults.fire(SERVICE_CRASH, point=point) is not None:
            raise ServiceCrashed(point)

    def _consult_hang(self) -> bool:
        kernel = self.kernel
        faults = kernel.faults
        if faults is None or kernel.supervisor.in_restart:
            return False
        if faults.plan.spec_for(SERVICE_HANG) is None:
            return False
        return faults.fire(SERVICE_HANG) is not None

    # -- ManagerPort (timed environment hooks) -------------------------------------

    @property
    def cpu(self):
        return self.kernel.cpu

    def code(self, off: int, n_instr: int) -> None:
        self.cpu.code(L.MANAGER_CODE_VA + off, n_instr)

    def touch(self, addr: int, *, write: bool = False) -> None:
        # Table rows are addressed by manager VA already.
        if write:
            self.cpu.store(addr)
        else:
            self.cpu.load(addr)

    def ctl_write(self, prr_id: int, field: int, value: int) -> None:
        self.cpu.write32(L.MANAGER_CTL_VA + prr_id * 0x20 + field, value)

    def _iface_va(self, prr_id: int) -> int:
        """Manager's own mapping of PRR ``prr_id``'s register page."""
        return L.GUEST_PRR_IFACE_VA + prr_id * _PAGE

    def reg_group_save(self, old_client_vm: int, prr: Prr) -> None:
        cpu = self.cpu
        base = self._iface_va(prr.prr_id)
        regs = {}
        for name, off in (("status", REG_STATUS), ("src", REG_SRC),
                          ("len", REG_LEN), ("dst", REG_DST),
                          ("outlen", REG_OUTLEN), ("irq_en", REG_IRQ_EN)):
            regs[name] = cpu.read32(base + off)
        old = self.kernel.domains[old_client_vm]
        if old.hw_data.configured:
            self.kernel.service_save_reggroup(old, prr.prr_id, regs)

    def map_iface(self, client_vm: int, prr_id: int, va: int) -> None:
        self.kernel.service_map_iface(self.kernel.domains[client_vm],
                                      prr_id, va)

    def unmap_iface(self, client_vm: int, prr_id: int) -> None:
        self.kernel.service_unmap_iface(self.kernel.domains[client_vm],
                                        prr_id)

    def mark_consistent(self, client_vm: int) -> None:
        client = self.kernel.domains[client_vm]
        if client.hw_data.configured:
            self.kernel.service_mark_consistent(client)

    def register_irq(self, client_vm: int, irq_id: int) -> None:
        self.kernel.service_register_plirq(self.kernel.domains[client_vm],
                                           irq_id)

    def unregister_irq(self, client_vm: int, irq_id: int) -> None:
        self.kernel.service_unregister_plirq(self.kernel.domains[client_vm],
                                             irq_id)

    def pcap_available(self) -> bool:
        return not self.kernel.machine.pcap.busy

    def pcap_launch(self, entry, prr_id: int, client_vm: int,
                    rid: int | None) -> None:
        from ..fpga.pcap import PCAP_LEN, PCAP_SRC, PCAP_TARGET
        cpu = self.cpu
        pcap_va = L.MANAGER_CTL_VA + _PAGE
        cpu.write32(pcap_va + PCAP_SRC, entry.bitstream.paddr)
        cpu.write32(pcap_va + PCAP_LEN, entry.bitstream.size)
        cpu.write32(pcap_va + PCAP_TARGET, prr_id)
        self.kernel.service_set_pcap_client(self.kernel.domains[client_vm])
        self.kernel.machine.pcap.start_transfer(entry.bitstream, prr_id, rid)
        if self.block_on_pcap:
            from ..fpga.pcap import PCAP_STATUS
            while self.kernel.machine.pcap.busy:
                cpu.read32(pcap_va + PCAP_STATUS)      # poll the DONE bit
                if self.kernel.machine.pcap.busy:
                    self.kernel.sim.advance_to_next_event()

    def pcap_cancel(self, prr_id: int) -> int | None:
        return self.kernel.machine.pcap.cancel_transfer(prr_id)

    def iface_va_of(self, client_vm: int, prr_id: int) -> int | None:
        return self.kernel.domains[client_vm].prr_iface.get(prr_id)

    def prr_mapped_at(self, client_vm: int, va: int) -> int | None:
        for prr_id, mapped_va in self.kernel.domains[client_vm].prr_iface.items():
            if mapped_va == va:
                return prr_id
        return None
