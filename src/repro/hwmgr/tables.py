"""The Hardware Task Manager's two bookkeeping tables (Fig. 7).

* **Hardware task table** — indexed by unique task ID: bitstream address &
  size, reconfiguration latency, and the list of PRRs the task fits in.
* **PRR table** — per region: current client VM, implemented task, and
  execution state (idle/busy).

Both live in the manager's data area so lookups are *timed* through the
cache model (the paper attributes part of the execution-cost growth with
VM count to this bookkeeping getting colder).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DeviceError
from ..fpga.bitstream import Bitstream, BitstreamStore
from ..fpga.prr import Prr


@dataclass
class HwTaskEntry:
    task_id: int
    name: str
    bitstream: Bitstream
    prr_list: tuple[int, ...]          # PRRs big enough to host the task
    reconfig_cycles: int               # PCAP latency for this bitstream
    #: Physical address of this row (timed lookups touch it).
    row_addr: int = 0


@dataclass
class PrrRow:
    prr_id: int
    client_vm: int | None = None
    task_name: str | None = None
    #: Manager-visible state; the live truth is the PRR controller's.
    busy: bool = False
    row_addr: int = 0


class HardwareTaskTable:
    """task_id -> HwTaskEntry, plus name lookup."""

    def __init__(self) -> None:
        self._by_id: dict[int, HwTaskEntry] = {}
        self._by_name: dict[str, HwTaskEntry] = {}

    @classmethod
    def build(cls, store: BitstreamStore, prrs: list[Prr],
              pcap_cycles_of, row_base: int = 0) -> "HardwareTaskTable":
        """Derive the table from the installed bitstreams and floorplan.

        ``pcap_cycles_of(size)`` converts bitstream bytes to latency; rows
        get consecutive addresses starting at ``row_base`` (64 B apart).
        """
        table = cls()
        for i, name in enumerate(store.tasks()):
            core = store.core(name)
            fits = tuple(p.prr_id for p in prrs if core.resources.fits_in(p.capacity))
            if not fits:
                raise DeviceError(f"task {name} fits no PRR")
            bit = store.get(name)
            table.add(HwTaskEntry(
                task_id=i + 1, name=name, bitstream=bit, prr_list=fits,
                reconfig_cycles=pcap_cycles_of(bit.size),
                row_addr=row_base + i * 64))
        return table

    def add(self, entry: HwTaskEntry) -> None:
        if entry.task_id in self._by_id:
            raise DeviceError(f"duplicate task id {entry.task_id}")
        self._by_id[entry.task_id] = entry
        self._by_name[entry.name] = entry

    def by_id(self, task_id: int) -> HwTaskEntry | None:
        return self._by_id.get(task_id)

    def by_name(self, name: str) -> HwTaskEntry | None:
        return self._by_name.get(name)

    def ids(self) -> list[int]:
        return sorted(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)


class PrrTable:
    def __init__(self, prrs: list[Prr], row_base: int = 0) -> None:
        self.rows = [PrrRow(prr_id=p.prr_id, row_addr=row_base + p.prr_id * 64)
                     for p in prrs]

    def row(self, prr_id: int) -> PrrRow:
        return self.rows[prr_id]

    def rows_of_client(self, vm_id: int) -> list[PrrRow]:
        return [r for r in self.rows if r.client_vm == vm_id]
