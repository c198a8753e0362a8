"""Fig. 9: performance degradation ratio R_D of the Hardware Task Manager.

R_D = t_virtualization / t_native (eq. 1).  For the classes that are zero
natively (entry, exit, PL-IRQ entry) the paper uses the 1-VM measurement
as the baseline "to present the tendency of overhead along with increasing
virtual machines"; execution and total use the true native baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .table3 import ROW_LABELS, ROW_ORDER, Table3Result

#: Ratios digitized from the paper's Fig. 9 source data (the HAL preprint
#: embeds the numeric series).
PAPER_FIG9 = {
    "entry": {1: 1.0, 2: 1.2698, 3: 1.4433, 4: 1.6546},
    "exit": {1: 1.0, 2: 1.2552, 3: 1.3278, 4: 1.3655},
    "plirq": {1: 1.0, 2: 1.9808, 3: 2.1154, 4: 2.2208},
    "execution": {1: 1.0315, 2: 1.0563, 3: 1.0749, 4: 1.0846},
    "total": {1: 1.1380, 2: 1.1909, 3: 1.2230, 4: 1.2273},
}

#: Classes whose native value is zero -> 1-VM baseline.
ONE_VM_BASELINE = ("entry", "exit", "plirq")


@dataclass
class Fig9Result:
    guest_counts: list[int]
    ratios: dict[str, dict[int, float]]

    def format(self) -> str:
        head = "DEGRADATION RATIO R_D = t_virt / t_native (Fig. 9)"
        lines = [head, "=" * len(head)]
        lines.append("overhead class".ljust(24)
                     + "".join(f"{n} OS".rjust(10) for n in self.guest_counts))
        for row in ROW_ORDER:
            cells = [ROW_LABELS[row].ljust(24)]
            for n in self.guest_counts:
                cells.append(f"{self.ratios[row].get(n, float('nan')):.3f}".rjust(10))
            lines.append("".join(cells))
        return "\n".join(lines)


def degradation_from_table3(t3: Table3Result) -> Fig9Result:
    guest_counts = sorted(int(c) for c in t3.columns if c != "native")
    ratios: dict[str, dict[int, float]] = {}
    for row in ROW_ORDER:
        if row in ONE_VM_BASELINE:
            base = t3.measured.get("1", {}).get(row, 0.0)
        else:
            base = t3.measured.get("native", {}).get(row, 0.0)
        ratios[row] = {}
        for n in guest_counts:
            val = t3.measured[str(n)][row]
            ratios[row][n] = val / base if base else float("nan")
    return Fig9Result(guest_counts=guest_counts, ratios=ratios)
