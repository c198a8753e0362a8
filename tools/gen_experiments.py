#!/usr/bin/env python3
"""Regenerate the measured rows of EXPERIMENTS.md's Table III, Fig. 9 and
Section V-B.

Runs ``run_table3(completions_per_config=50, seed=1)`` and
``degradation_from_table3`` and reads ``kernel_stats()``, then rewrites
the generated rows between a ``<!-- generated: NAME -->`` marker and the
next ``<!-- end generated -->``.  A row's first two cells name its slot:
Table III and Fig. 9 fill their ``**measured**`` rows in the order of
``ROW_ORDER``, and each Section V-B row replaces the row of its metric.
Paper rows and everything outside the markers stay as written.

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


def _slot(row: str) -> str:
    """A table row's first two cells, ``| a | b |``: what names its slot."""
    return "|".join(row.split("|")[:3]) + "|"


def measured_rows() -> dict[str, list[str]]:
    """Each generated block's measured rows, from one seed-1 run."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.eval.fig9 import ONE_VM_BASELINE, degradation_from_table3
    from repro.eval.kernel_stats import kernel_stats
    from repro.eval.table3 import ROW_ORDER, run_table3

    t3 = run_table3(completions_per_config=50, seed=1)
    fig9 = degradation_from_table3(t3)
    ks = kernel_stats()
    return {
        "table3": [_cells([f"**{t3.measured[c][row]:.2f}**"
                           if t3.measured[c][row] else "0"
                           for c in t3.columns])
                   for row in ROW_ORDER],
        "fig9": [_cells(["1.000" if n == 1 and row in ONE_VM_BASELINE
                         else f"**{fig9.ratios[row][n]:.2f}**"
                         for n in fig9.guest_counts])
                 for row in ROW_ORDER],
        "section5b": [
            f"| hypercalls | 25 | {ks['hypercalls_public']} "
            f"(`kernel/hypercalls.py`) |",
            f"| used by uCOS patch | 17 | {ks['hypercalls_ucos']} |",
            f"| kernel image | ~40 KB ELF | "
            f"{ks['kernel_image_bytes'] // 1024} KB (modelled image, "
            f"`kernel/layout.py`) |",
            f"| kernel complexity | 5,363 LOC | {ks['kernel_pkg_loc']:,} LOC "
            f"(kernel + hwmgr packages) |",
            f"| porting patch | ~200 LOC | {ks['paravirt_patch_loc']:,} LOC "
            f"(both ports) |",
        ],
    }


def regenerate(text: str, rows: dict[str, list[str]]) -> str:
    lines = text.split("\n")
    for name, new in rows.items():
        start = lines.index(f"<!-- generated: {name} -->")
        end = lines.index(END, start)
        wanted = [_slot(row) for row in new]
        slots = [i for i in range(start, end) if _slot(lines[i]) in wanted]
        found = [_slot(lines[i]) for i in slots]
        if found != wanted:
            raise SystemExit(f"{DOC.name}: block {name!r} has rows {found}, "
                             f"expected {wanted}")
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
