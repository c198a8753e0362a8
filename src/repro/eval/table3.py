"""Table III: overhead of hardware task management (µs) vs. #guest OSes.

Runs the native baseline and 1..4-guest virtualized configurations until
each has served a target number of T_hw requests, then reports the
trimmed-mean overhead classes.  Paper reference values are included so the
report and the tests can check *shape* (orderings, growth, ratios), which
is the reproduction contract (our substrate is a simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

from .measures import extract_overheads
from .scenarios import build_native, build_virtualized

#: Paper Table III (µs).
PAPER_TABLE3 = {
    "native": {"entry": 0.0, "exit": 0.0, "plirq": 0.0,
               "execution": 15.01, "total": 15.01},
    1: {"entry": 0.87, "exit": 0.72, "plirq": 0.23,
        "execution": 15.46, "total": 17.06},
    2: {"entry": 1.11, "exit": 0.91, "plirq": 0.46,
        "execution": 15.83, "total": 17.84},
    3: {"entry": 1.26, "exit": 0.96, "plirq": 0.50,
        "execution": 16.11, "total": 18.33},
    4: {"entry": 1.29, "exit": 0.99, "plirq": 0.51,
        "execution": 16.31, "total": 18.57},
}

ROW_ORDER = ("entry", "exit", "plirq", "execution", "total")
ROW_LABELS = {
    "entry": "HW Manager entry",
    "exit": "HW Manager exit",
    "plirq": "PL IRQ entry",
    "execution": "HW Manager execution",
    "total": "Total overhead",
}


@dataclass
class Table3Result:
    columns: list[str]                       # "native", "1", "2", ...
    measured: dict[str, dict[str, float]]    # col -> class -> µs
    n_requests: dict[str, int]

    def format(self) -> str:
        head = "OVERHEAD OF HARDWARE TASK MANAGEMENT (us)"
        lines = [head, "=" * len(head)]
        cols = ["Guest OS number"] + list(self.columns)
        widths = [max(len(ROW_LABELS[r]) for r in ROW_ORDER) + 2] \
            + [10] * len(self.columns)
        lines.append("".join(c.ljust(w) for c, w in zip(cols, widths)))
        for row in ROW_ORDER:
            cells = [ROW_LABELS[row].ljust(widths[0])]
            for i, col in enumerate(self.columns):
                cells.append(f"{self.measured[col][row]:.2f}".ljust(widths[i + 1]))
            lines.append("".join(cells))
        lines.append("")
        lines.append("requests measured: "
                     + ", ".join(f"{c}:{self.n_requests[c]}" for c in self.columns))
        return "\n".join(lines)


def run_table3(*, completions_per_config: int = 60, seed: int = 1,
               max_ms: float = 30_000.0) -> Table3Result:
    """The native column and 1..4 guests, each run until
    ``completions_per_config`` T_hw requests completed (PL IRQ
    completion)."""
    columns: list[str] = []
    measured: dict[str, dict[str, float]] = {}
    n_requests: dict[str, int] = {}

    native = build_native(seed=seed)
    native.run_until_completions(completions_per_config, max_ms=max_ms)
    hz = native.machine.params.cpu.hz
    samples = extract_overheads(native.tracer)
    columns.append("native")
    measured["native"] = samples.summary_us(hz)
    n_requests["native"] = samples.n_requests

    for n in (1, 2, 3, 4):
        sc = build_virtualized(n, seed=seed)
        # Scale the target so per-VM request counts stay comparable.
        sc.run_until_completions(completions_per_config, max_ms=max_ms)
        samples = extract_overheads(sc.tracer)
        col = str(n)
        columns.append(col)
        measured[col] = samples.summary_us(hz)
        n_requests[col] = samples.n_requests

    return Table3Result(columns=columns, measured=measured,
                        n_requests=n_requests)
