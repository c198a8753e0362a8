"""Platform assembly: one simulated Zynq-7000-like machine.

Wires the DES engine, CPU, memory system, GIC, timers, and the PL side
(PRR controller + PCAP + bitstream store) onto the physical bus, matching
Fig. 4 of the paper.  Both the virtualized system (Mini-NOVA + guests) and
the native baseline run on an identical ``Machine``.

The machine also owns the one observability layer every component of it
reports to: a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer` bound to the engine clock, handed to the
engine, the memory system and the PCAP at construction and used by
whichever system (kernel or native port) drives the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .common.params import DEFAULT_PARAMS, PlatformParams
from .cpu.core import Cpu
from .fpga.bitstream import BitstreamStore
from .fpga.controller import PrrController
from .fpga.ip import PlResources
from .fpga.pcap import PCAP_WINDOW_SIZE, Pcap
from .fpga.prr import Prr
from .gic.gic import GIC_WINDOW_SIZE, Gic
from .io.uart import UART_WINDOW_SIZE, Uart
from .mem.system import MemorySystem
from .obs.metrics import MetricsRegistry
from .obs.trace import Tracer
from .sim.engine import Simulator
from .timerhw.timers import TIMER_WINDOW_SIZE, GlobalTimer, PrivateTimer

# Physical placement of devices (our SoC's memory map).
GIC_BASE = 0xF8F0_0000
PRIV_TIMER_BASE = 0xF8F0_2000
GLOBAL_TIMER_BASE = 0xF8F0_2200
PCAP_BASE = 0xF800_7000
UART_BASE = 0xE000_0000

#: Large PRR — fits every FFT plus the QAM cores (paper: PRR1/PRR2).
PRR_LARGE = PlResources(luts=26_000, bram=24, dsp=64)
#: Small PRR — QAM-class tasks only (paper: PRR3/PRR4).
PRR_SMALL = PlResources(luts=2_200, bram=4, dsp=8)


@dataclass
class MachineConfig:
    """What to build: platform knobs + fabric floorplan + task library."""

    params: PlatformParams = field(default_factory=lambda: DEFAULT_PARAMS)
    #: Capacity of each PRR, in order (paper evaluation: 2 large + 2 small).
    prr_capacities: tuple[PlResources, ...] = (PRR_LARGE, PRR_LARGE,
                                               PRR_SMALL, PRR_SMALL)
    #: Hardware tasks whose bitstreams are installed at boot.
    tasks: tuple[str, ...] = ("fft256", "fft512", "fft1024", "fft2048",
                              "fft4096", "fft8192", "qam4", "qam16", "qam64")


class Machine:
    """A powered-on platform, before any kernel boots on it."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        params = self.config.params
        self.params = params
        self.metrics = MetricsRegistry()
        self.sim = Simulator(self.metrics)
        self.tracer = Tracer(self.sim.clock)
        self.mem = MemorySystem(params, self.metrics)
        self.cpu = Cpu(self.sim, self.mem, params)
        self.gic = Gic()
        self.gic.irq_line_cb = self._set_irq_line
        self.private_timer = PrivateTimer(self.sim, self.gic)
        self.global_timer = GlobalTimer(self.sim)
        self.uart = Uart()

        self.prrs = [Prr(prr_id=i, capacity=cap)
                     for i, cap in enumerate(self.config.prr_capacities)]
        self.prr_controller = PrrController(
            self.sim, self.gic, self.mem.bus, self.prrs, params.fpga,
            params.cpu.hz)
        self.pcap = Pcap(self.sim, self.gic, self.prr_controller,
                         params.fpga, params.cpu.hz, self.tracer,
                         self.metrics)
        self.bitstreams = BitstreamStore(self.mem.bus, self.mem.kernel_frames)
        for task in self.config.tasks:
            self.bitstreams.install(task)

        bus = self.mem.bus
        bus.map_device(GIC_BASE, GIC_WINDOW_SIZE, self.gic, "gic")
        bus.map_device(PRIV_TIMER_BASE, TIMER_WINDOW_SIZE,
                       self.private_timer, "private-timer")
        bus.map_device(GLOBAL_TIMER_BASE, TIMER_WINDOW_SIZE,
                       self.global_timer, "global-timer")
        bus.map_device(PCAP_BASE, PCAP_WINDOW_SIZE, self.pcap, "pcap")
        bus.map_device(UART_BASE, UART_WINDOW_SIZE, self.uart, "uart0")
        bus.map_device(params.memmap.prr_reg_base,
                       self.prr_controller.window_size,
                       self.prr_controller, "prr-controller")

    def _set_irq_line(self, level: bool) -> None:
        self.cpu.irq_line = level

    @property
    def now(self) -> int:
        return self.sim.clock.now

    def prr_reg_page_paddr(self, prr_id: int) -> int:
        """Physical base of PRR ``prr_id``'s register-group page."""
        return self.params.memmap.prr_reg_base + prr_id * 4096

    def prr_ctl_page_paddr(self) -> int:
        """Physical base of the controller's manager-only control page."""
        return self.params.memmap.prr_reg_base + len(self.prrs) * 4096
