#!/usr/bin/env python3
"""Regenerate the measured rows of EXPERIMENTS.md's Table III and Fig. 9.

Runs ``run_table3(completions_per_config=50, seed=1)`` and
``degradation_from_table3``, then rewrites every ``**measured**`` row
between a ``<!-- generated: NAME -->`` marker and the next
``<!-- end generated -->``, in the order of ``ROW_ORDER``.  Paper rows
and everything outside the markers stay as written.

    python tools/gen_experiments.py           # rewrite EXPERIMENTS.md
    python tools/gen_experiments.py --check   # print the diff; exit 1 if any

Run by CI next to ``check_event_catalog.py``; a change that moves Table III
regenerates the tables with the first form.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "EXPERIMENTS.md"
MEASURED = "|  | **measured** |"
END = "<!-- end generated -->"


def _cells(values: list[str]) -> str:
    return f"{MEASURED} {' | '.join(values)} |"


def measured_rows() -> dict[str, list[str]]:
    """Each generated block's measured rows, from one seed-1 run."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.eval.fig9 import ONE_VM_BASELINE, degradation_from_table3
    from repro.eval.table3 import ROW_ORDER, run_table3

    t3 = run_table3(completions_per_config=50, seed=1)
    fig9 = degradation_from_table3(t3)
    return {
        "table3": [_cells([f"**{t3.measured[c][row]:.2f}**"
                           if t3.measured[c][row] else "0"
                           for c in t3.columns])
                   for row in ROW_ORDER],
        "fig9": [_cells(["1.000" if n == 1 and row in ONE_VM_BASELINE
                         else f"**{fig9.ratios[row][n]:.2f}**"
                         for n in fig9.guest_counts])
                 for row in ROW_ORDER],
    }


def regenerate(text: str, rows: dict[str, list[str]]) -> str:
    lines = text.split("\n")
    for name, new in rows.items():
        start = lines.index(f"<!-- generated: {name} -->")
        end = lines.index(END, start)
        slots = [i for i in range(start, end)
                 if lines[i].startswith(MEASURED)]
        if len(slots) != len(new):
            raise SystemExit(f"{DOC.name}: block {name!r} has {len(slots)} "
                             f"measured rows, expected {len(new)}")
        for i, row in zip(slots, new):
            lines[i] = row
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="print the diff and exit 1 instead of writing")
    args = ap.parse_args(argv)
    old = DOC.read_text()
    new = regenerate(old, measured_rows())
    if not args.check:
        DOC.write_text(new)
        return 0
    diff = list(difflib.unified_diff(
        old.splitlines(), new.splitlines(), f"a/{DOC.name}",
        f"b/{DOC.name}", lineterm=""))
    print("\n".join(diff) if diff else f"{DOC.name}: generated rows in sync")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
