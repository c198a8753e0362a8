"""Section V-B's kernel characteristics, measured on this source tree.

The paper reports Mini-NOVA at 5,363 LOC / ~40 KB ELF with 25 hypercalls,
of which the paravirtualized uC/OS-II uses 17 via a ~200-LOC patch.
:func:`kernel_stats` gives this reproduction's analogues: the real
hypercall tables, the modelled image size and the source lines of the
corresponding packages.  ``benchmarks/test_bench_kernel_stats.py`` prints
and checks them, and ``tools/gen_experiments.py`` writes them into
EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

from ..kernel import layout as L
from ..kernel.hypercalls import PUBLIC_HYPERCALLS, UCOS_HYPERCALLS

_PKG = Path(__file__).resolve().parent.parent


def source_loc(pkg: str) -> int:
    """Non-blank, non-comment lines of the ``.py`` files under
    ``repro/<pkg>``."""
    total = 0
    for path in (_PKG / pkg).rglob("*.py"):
        total += sum(1 for line in path.read_text().splitlines()
                     if line.strip() and not line.strip().startswith("#"))
    return total


def kernel_stats() -> dict[str, int]:
    return {
        "hypercalls_public": len(PUBLIC_HYPERCALLS),
        "hypercalls_ucos": len(UCOS_HYPERCALLS),
        "kernel_image_bytes": L.KERNEL_CODE_SIZE,
        "kernel_pkg_loc": source_loc("kernel") + source_loc("hwmgr"),
        "paravirt_patch_loc": source_loc("guest/ports"),
    }
