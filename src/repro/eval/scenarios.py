"""Scenario builders: the experimental setups of Section V.

``build_virtualized(n)`` = Mini-NOVA + Hardware Task Manager service + n
uC/OS-II guests, each running GSM + ADPCM heavy workloads and the T_hw
request generator against 4 PRRs (Fig. 8).  ``build_native()`` = the same
OS image and manager logic directly on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..guest.ports.native import NativeSystem
from ..guest.ports.paravirt import ParavirtUcos
from ..guest.ucos import Ucos
from ..kernel.core import KernelConfig, MiniNova
from ..hwmgr.service import ManagerService
from ..machine import Machine, MachineConfig
from ..workloads.t_hw import DEFAULT_TASK_SET, ThwStats, make_t_hw_task
from ..workloads.tasks import WorkloadStats, make_adpcm_task, make_gsm_task

#: Task priorities inside each guest (uC/OS-II: lower = more urgent).
PRIO_T_HW = 5
PRIO_GSM = 10
PRIO_ADPCM = 11


def task_directory(machine: Machine) -> dict[str, int]:
    """Name -> Hardware-Task-Table ID (IDs are assigned in sorted order by
    :meth:`HardwareTaskTable.build`, for both ports)."""
    return {name: i + 1 for i, name in enumerate(sorted(machine.bitstreams.tasks()))}


@dataclass
class GuestSetup:
    os: Ucos
    thw_stats: ThwStats
    gsm_stats: WorkloadStats | None = None
    adpcm_stats: WorkloadStats | None = None


def _populate_guest(os_: Ucos, directory: dict[str, int], *, seed: int,
                    use_irq: bool, verify: bool, iterations: int | None,
                    with_workloads: bool,
                    task_set: tuple[str, ...]) -> GuestSetup:
    setup = GuestSetup(os=os_, thw_stats=ThwStats())
    os_.create_task("t_hw", PRIO_T_HW, make_t_hw_task(
        directory, stats=setup.thw_stats, task_set=task_set, seed=seed,
        use_irq=use_irq, verify=verify, iterations=iterations))
    if with_workloads:
        setup.gsm_stats = WorkloadStats()
        setup.adpcm_stats = WorkloadStats()
        os_.create_task("gsm", PRIO_GSM, make_gsm_task(stats=setup.gsm_stats))
        os_.create_task("adpcm", PRIO_ADPCM,
                        make_adpcm_task(stats=setup.adpcm_stats))
    return setup


@dataclass
class VirtScenario:
    machine: Machine
    kernel: MiniNova
    guests: list[GuestSetup]
    directory: dict[str, int]
    #: The fault injector, when the scenario was built with a fault plan
    #: (``None`` for the default healthy-fabric runs).
    injector: "object | None" = None

    @property
    def manager(self) -> ManagerService:
        """The live manager service: the supervisor respawns it in place
        after a crash or a hang, so this is not always the one the
        scenario was built with."""
        return self.kernel.manager_pd.runner

    @property
    def tracer(self):
        return self.kernel.tracer

    @property
    def metrics(self):
        return self.kernel.metrics

    def total_completions(self) -> int:
        return sum(g.thw_stats.completions for g in self.guests)

    def run_until_completions(self, n: int, *, max_ms: float = 20_000.0) -> None:
        cap = self.machine.now + int(max_ms * 1e-3 * self.machine.params.cpu.hz)
        self.kernel.run(until=lambda: self.total_completions() >= n,
                        until_cycles=cap)

    def run_ms(self, ms: float) -> None:
        self.kernel.run(
            until_cycles=self.machine.now
            + int(ms * 1e-3 * self.machine.params.cpu.hz))


@dataclass
class NativeScenario:
    machine: Machine
    system: NativeSystem
    guest: GuestSetup
    directory: dict[str, int]

    @property
    def tracer(self):
        return self.system.tracer

    @property
    def metrics(self):
        return self.system.metrics

    def total_completions(self) -> int:
        return self.guest.thw_stats.completions

    def run_until_completions(self, n: int, *, max_ms: float = 20_000.0) -> None:
        cap = self.machine.now + int(max_ms * 1e-3 * self.machine.params.cpu.hz)
        self.system.run(until=lambda: self.total_completions() >= n,
                        until_cycles=cap)

    def run_ms(self, ms: float) -> None:
        self.system.run(
            until_cycles=self.machine.now
            + int(ms * 1e-3 * self.machine.params.cpu.hz))


def build_virtualized(n_guests: int, *, seed: int = 1,
                      use_irq: bool = True, verify: bool = False,
                      iterations: int | None = None,
                      with_workloads: bool = True,
                      task_set: tuple[str, ...] = DEFAULT_TASK_SET,
                      kernel_config: KernelConfig | None = None,
                      machine_config: MachineConfig | None = None,
                      manager: ManagerService | None = None,
                      fault_plan=None,
                      tick_hz: int = 100) -> VirtScenario:
    machine = Machine(machine_config)
    kernel = MiniNova(machine, kernel_config)
    kernel.boot()
    injector = None
    if fault_plan is not None:
        from ..faults.inject import FaultInjector
        injector = FaultInjector(fault_plan)
        injector.attach(machine, kernel)
    kernel.attach_manager(manager or ManagerService())
    directory = task_directory(machine)
    guests: list[GuestSetup] = []
    for g in range(n_guests):
        os_ = Ucos(f"vm{g + 1}", tick_hz=tick_hz)
        setup = _populate_guest(os_, directory, seed=seed * 1000 + g,
                                use_irq=use_irq, verify=verify,
                                iterations=iterations,
                                with_workloads=with_workloads,
                                task_set=task_set)
        kernel.create_vm(os_.name, ParavirtUcos(os_))
        guests.append(setup)
    return VirtScenario(machine=machine, kernel=kernel, guests=guests,
                        directory=directory, injector=injector)


def build_native(*, seed: int = 1, verify: bool = False,
                 iterations: int | None = None, with_workloads: bool = True,
                 task_set: tuple[str, ...] = DEFAULT_TASK_SET,
                 machine_config: MachineConfig | None = None
                 ) -> NativeScenario:
    machine = Machine(machine_config)
    os_ = Ucos("native", tick_hz=100)
    directory = task_directory(machine)
    setup = _populate_guest(os_, directory, seed=seed * 1000,
                            use_irq=True, verify=verify,
                            iterations=iterations,
                            with_workloads=with_workloads,
                            task_set=task_set)
    system = NativeSystem(machine, os_)
    system.boot()
    return NativeScenario(machine=machine, system=system, guest=setup,
                          directory=directory)
