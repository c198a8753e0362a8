"""Page-image checkpoints: per-page write stamps, shared pages, and
restores that roll back every page written since the snapshot
(docs/PERFORMANCE.md §7, docs/RECOVERY.md §9).

The golden-output tests elsewhere cannot see a restore that leaves
dirtied pages behind: a restartable frame is a pure function of its
index, so a stale frame a dying epoch wrote still matches.  These tests
compare the guest chunk with the image byte for byte instead.
"""

import copy
import pickle

from repro.kernel.lifecycle import ZERO_PAGE, PageImage, VmPolicy
from repro.mem import PAGE_SIZE
from repro.workloads.restartable import expected_output, read_output_region
from tests.kernel.test_checkpoint_adversity import (FRAMES, GUEST_VM,
                                                    build_source)


def chunk(kernel, pd) -> bytes:
    return kernel.mem.bus.dram.read_bytes(pd.phys_base, pd.phys_size)


def page(data: bytes, i: int) -> bytes:
    return data[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]


def record_snapshots(kernel):
    """(snapshot, chunk bytes when it was taken), for every checkpoint
    the kernel takes from now on."""
    taken = []
    checkpoint = kernel.lifecycle.checkpoint

    def spy(pd, *, reason):
        snap = checkpoint(pd, reason=reason)
        taken.append((snap, chunk(kernel, pd)))
        return snap

    kernel.lifecycle.checkpoint = spy
    return taken


def record_restores(kernel):
    """(checkpoint, chunk bytes right after it was applied), for every
    resurrection or adoption from now on."""
    applied = []
    apply = kernel.lifecycle._apply_checkpoint

    def spy(pd, ckpt):
        apply(pd, ckpt)
        applied.append((ckpt, chunk(kernel, pd)))

    kernel.lifecycle._apply_checkpoint = spy
    return applied


def run_until(kernel, done, *, step=500_000, cap=80_000_000):
    deadline = kernel.sim.now + cap
    while not done():
        assert kernel.sim.now < deadline, "condition never held"
        kernel.run(until_cycles=kernel.sim.now + step)


def test_page_image_is_an_immutable_value_that_pickles_shared_pages_once():
    shared = PageImage((ZERO_PAGE,) * 4096)
    assert copy.deepcopy(shared) is shared
    assert len(shared) == 16 << 20
    distinct = PageImage(tuple(bytes(PAGE_SIZE) for _ in range(4096)))
    assert distinct == shared
    assert PageImage((b"\x01" * PAGE_SIZE,) + shared.pages[1:]) != shared
    wire = pickle.dumps(shared)
    assert len(wire) < 64 << 10             # one page, then references
    assert pickle.loads(wire) == shared
    assert len(pickle.dumps(distinct)) > 16 << 20


def test_snapshot_copies_exactly_the_pages_written_since_the_last():
    """A block write across three pages and a word write to the last word
    of a page stamp every page they touch, and only those pages."""
    _, kernel, _ = build_source("fft", seed=3, checkpoint_every=0)
    kernel.run(until_cycles=kernel.sim.now + 2_000_000)
    pd = kernel.domains[GUEST_VM]
    lc, dram = kernel.lifecycle, kernel.mem.bus.dram
    first = lc.checkpoint(pd, reason="test").memory_image
    stamps = dram.page_epochs(pd.phys_base, pd.phys_size)
    assert all(p is ZERO_PAGE for p, s in zip(first.pages, stamps) if s == 0)
    copied_before = kernel.metrics.total("vm.lifecycle.checkpoint_bytes")

    base = pd.phys_base + 0x40 * PAGE_SIZE
    dram.write_bytes(base + PAGE_SIZE - 2, b"\xa5" * (PAGE_SIZE + 4))
    dram.write32(base + 10 * PAGE_SIZE - 4, 0x1234_5678)
    second = lc.checkpoint(pd, reason="test").memory_image

    copied = [i for i, (a, b) in enumerate(zip(first.pages, second.pages))
              if a is not b]
    assert copied == [0x40, 0x41, 0x42, 0x49]
    assert kernel.metrics.total("vm.lifecycle.checkpoint_bytes") \
        - copied_before == 4 * PAGE_SIZE
    assert second.tobytes() == chunk(kernel, pd)


def test_restore_rolls_back_every_page_written_since_the_snapshot():
    _, kernel, stats = build_source("fft", seed=3, checkpoint_every=0)
    lc = kernel.lifecycle
    lc.set_policy(GUEST_VM, VmPolicy(action="restart_from_checkpoint",
                                     max_restarts=1, backoff_cycles=10_000))
    taken = record_snapshots(kernel)
    applied = record_restores(kernel)
    run_until(kernel, lambda: stats.frames_done >= 1)
    pd = kernel.domains[GUEST_VM]
    snap = lc.checkpoint(pd, reason="test")
    done = stats.frames_done
    # The doomed epoch writes another frame, into a page the snapshot
    # holds as never written.
    run_until(kernel, lambda: stats.frames_done > done)
    assert stats.frames_done < FRAMES
    dirty = chunk(kernel, pd)
    assert any(p is ZERO_PAGE and page(dirty, i) != ZERO_PAGE
               for i, p in enumerate(snap.memory_image.pages))

    kernel.kill_vm(pd, reason="test")
    run_until(kernel, lambda: applied)
    assert [(ckpt.seq, at) for ckpt, at in applied] == \
        [(snap.seq, snap.memory_image.tobytes())]
    assert kernel.metrics.total("vm.lifecycle.restore_bytes") > 0

    # Snapshots taken after the restore share its pages and stay exact.
    # (``frames_done`` counts the doomed epoch's frame too.)
    pd = kernel.domains[GUEST_VM]
    run_until(kernel, lambda: stats.frames_done > done + 1)
    lc.checkpoint(pd, reason="test")
    kernel.run(until_cycles=kernel.sim.now + 80_000_000)
    lc.checkpoint(pd, reason="test")
    assert len(taken) == 3
    for s, at in taken:
        assert s.memory_image.tobytes() == at, f"seq {s.seq}"
    assert read_output_region(kernel, pd, frames=FRAMES) == \
        expected_output("fft", frames=FRAMES, seed=3)


def test_adopt_onto_a_dirtied_chunk_leaves_exactly_the_image():
    _, src, src_stats = build_source("fft", seed=3, checkpoint_every=1)
    src_taken = record_snapshots(src)
    run_until(src, lambda: src_stats.frames_done >= 2)
    ckpt = src.lifecycle.latest(GUEST_VM)
    assert 0 < ckpt.runner_state["persist"]["frame"] < FRAMES

    # The target VM already ran a different workload to completion, so
    # its chunk holds frames where the image has never-written pages.
    _, dst, dst_stats = build_source("qam", seed=9, checkpoint_every=1)
    dst_taken = record_snapshots(dst)
    run_until(dst, lambda: dst_stats.frames_done == FRAMES)
    pd = dst.domains[GUEST_VM]
    dirty = chunk(dst, pd)
    assert any(p is ZERO_PAGE and page(dirty, i) != ZERO_PAGE
               for i, p in enumerate(ckpt.memory_image.pages))

    applied = record_restores(dst)
    dst.lifecycle.adopt(pd, ckpt)
    assert [at for _, at in applied] == [ckpt.memory_image.tobytes()]
    # The next snapshot shares pages with the filler's last one.
    dst.lifecycle.checkpoint(pd, reason="test")
    assert len(src_taken) >= 2 and len(dst_taken) == FRAMES + 1
    for s, at in src_taken + dst_taken:
        assert s.memory_image.tobytes() == at, f"vm {s.vm_id} seq {s.seq}"
