"""Section V-B prose metrics: kernel complexity, hypercall counts, patch size.

The paper reports Mini-NOVA at 5,363 LOC / ~40 KB ELF with 25 hypercalls,
of which the paravirtualized uC/OS-II uses 17 via a ~200-LOC patch.
This bench reports our analogues (``repro.eval.kernel_stats``, the
function that also writes EXPERIMENTS.md's Section V-B rows).
"""

from __future__ import annotations

from repro.eval.kernel_stats import kernel_stats


def test_bench_kernel_stats(benchmark):
    stats = kernel_stats()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    print()
    print("KERNEL CHARACTERISTICS (paper -> this reproduction)")
    print(f"  hypercalls:          25 -> {stats['hypercalls_public']}")
    print(f"  used by uCOS patch:  17 -> {stats['hypercalls_ucos']}")
    print(f"  kernel image:     ~40KB -> "
          f"{stats['kernel_image_bytes'] // 1024}KB (modelled)")
    print(f"  kernel complexity: 5363 LOC -> {stats['kernel_pkg_loc']} LOC "
          f"(kernel+hwmgr pkgs)")
    print(f"  porting patch:     ~200 LOC -> {stats['paravirt_patch_loc']} "
          f"LOC (both ports)")

    assert stats["hypercalls_public"] == 25
    assert stats["hypercalls_ucos"] == 17
    assert stats["kernel_image_bytes"] == 40 * 1024
    assert stats["kernel_pkg_loc"] > 1000   # the kernel is a real implementation
