"""Fast-path equivalence: fastpath on/off must be cycle-for-cycle identical.

docs/PERFORMANCE.md §5 is the contract these tests pin: the fused bulk
loop, the fused touch path, the fetch run, the closed-form idle spin and
the walk memo are pure reformulations of the cost model.  Every simulated-cycle quantity —
the clock, stats, accounting, fault-schedule results, bench series — must
not move when ``PlatformParams.fastpath`` is flipped.  Plus unit tests for the
walk memo's validity rule (TTBR and DACR writes keep it, a write to an
entry's descriptor page drops that entry) and the per-DACR-value tables.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.machine as machine_mod
from repro.common.errors import DataAbort
from repro.common.params import DEFAULT_PARAMS
from repro.machine import MachineConfig
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.mem.tlb import TlbEntry
from repro.obs.metrics import MetricsRegistry

SLOW_PARAMS = DEFAULT_PARAMS.with_(fastpath=False)


def _patch_default_params(monkeypatch, params):
    """Make every internally-constructed Machine use ``params``.

    MachineConfig's default factory closes over the module-global
    DEFAULT_PARAMS in repro.machine, so patching that name reaches the
    builders (bench, the fault-schedule runner) that take no
    machine_config.
    """
    monkeypatch.setattr(machine_mod, "DEFAULT_PARAMS", params)


def _scenario_state(sc):
    """Every cycle-domain observable of a virtualized run."""
    k = sc.kernel
    caches = sc.machine.mem.caches
    tlb = sc.machine.mem.mmu.tlb
    return {
        "now": k.sim.now,
        "caches": {n: vars(s) for n, s in caches.snapshot().items()},
        "dram_accesses": caches.dram_accesses,
        "tlb": vars(tlb.stats.snapshot()),
        "walks": sc.machine.mem.mmu.walks,
        "accounting": k.acct.snapshot(),
        "switches": k.vm_switch_count,
        "hypercalls": k.hypercall_count,
        "irqs": k.metrics.total("kernel.irq_entries"),
    }


class TestRunEquivalence:
    def test_virtualized_run_state_identical(self):
        from repro.eval.scenarios import build_virtualized

        states = []
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            sc = build_virtualized(
                2, seed=3, machine_config=MachineConfig(params=params))
            sc.run_ms(40.0)
            states.append(_scenario_state(sc))
        assert states[0] == states[1]

    def test_bench_cycle_series_identical(self, monkeypatch):
        from repro.eval.bench import run_bench

        fast = run_bench("quick", guests=2, ms=40.0, seed=5)
        _patch_default_params(monkeypatch, SLOW_PARAMS)
        slow = run_bench("quick", guests=2, ms=40.0, seed=5)
        assert fast == slow

    def test_fault_matrix_identical(self, monkeypatch):
        """Every named inline schedule: same results on both paths."""
        from repro.faults.explore import NAMED, run_explore

        fast = run_explore(budget=0, named=list(NAMED), seed=7)
        _patch_default_params(monkeypatch, SLOW_PARAMS)
        slow = run_explore(budget=0, named=list(NAMED), seed=7)
        assert fast == slow
        assert fast["ok"]

    def test_vm_soak_with_restores_identical(self, monkeypatch):
        """Random ``vm.kill`` mode with checkpoint restores: restores
        rewrite guest memory images through the DRAM write epoch, so
        this exercises the memo invalidation path end to end."""
        from repro.faults.explore import run_explore

        kw = dict(budget=0, seed=1, random_target=4,
                  random_sites=("vm.kill",), max_runs=6)
        fast = run_explore(**kw)
        _patch_default_params(monkeypatch, SLOW_PARAMS)
        slow = run_explore(**kw)
        assert fast == slow
        assert fast["ok"]
        assert any("restart_from_checkpoint" in s["paths"]
                   for s in fast["schedules"])

    def test_fastpath_counters_only_move_on_fast_path(self):
        from repro.eval.scenarios import build_virtualized

        sc = build_virtualized(
            1, seed=2, machine_config=MachineConfig(params=DEFAULT_PARAMS))
        sc.run_ms(20.0)
        m = sc.kernel.metrics
        assert m.total("sim.fastpath.batched_cycles") > 0
        assert m.total("sim.fastpath.walk_cache_hits") > 0

        sc = build_virtualized(
            1, seed=2, machine_config=MachineConfig(params=SLOW_PARAMS))
        sc.run_ms(20.0)
        m = sc.kernel.metrics
        assert m.total("sim.fastpath.batched_cycles") == 0
        assert m.total("sim.fastpath.walk_cache_hits") == 0


def _board_state(board):
    """``_scenario_state`` of one fleet board, plus its kernel's trace."""
    return {**_scenario_state(board), "trace": list(board.kernel.tracer.events)}


class TestIdleSpinEquivalence:
    """The closed-form idle spin (docs/PERFORMANCE.md §2) against the
    reference loop that ``fastpath=False`` runs: one idle chunk and one
    poll per yield."""

    def test_fleet_with_crash_and_migration_identical(self, monkeypatch):
        """Tenants spin between frames; the crashed board's tenants are
        migrated, and their restores rewrite DRAM under the spin."""
        from repro.faults.plan import BOARD_CRASH
        from repro.fleet import harness
        from repro.fleet.dispatcher import FleetConfig, KillSpec

        boards = []

        class Capturing(harness.Dispatcher):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                boards.append([link.host._server for link in self.links])

        monkeypatch.setattr(harness, "Dispatcher", Capturing)
        cfg = FleetConfig(boards=3, tenants_per_board=2, seed=3, ticks=40,
                          rate_per_tick=0.05, workers="inline")
        kills = (KillSpec(tick=10, board=1, site=BOARD_CRASH),)
        runs = []
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            _patch_default_params(monkeypatch, params)
            payload = harness.run_fleet(cfg, kills=kills)
            runs.append((payload, [_board_state(b) for b in boards[-1]]))
        assert runs[0] == runs[1]
        payload = runs[0][0]
        assert payload["ok"] and payload["fleet"]["migrations"] > 0

    def test_native_table3_identical(self):
        from repro.eval.scenarios import build_native

        states = []
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            sc = build_native(seed=2,
                              machine_config=MachineConfig(params=params))
            sc.run_until_completions(6)
            caches = sc.machine.mem.caches
            states.append({
                "now": sc.machine.now,
                "caches": {n: vars(s) for n, s in caches.snapshot().items()},
                "l1d_tags": [list(t) for t in caches.l1d._tags],
                "tlb": vars(sc.machine.mem.mmu.tlb.stats.snapshot()),
                "irqs": sc.metrics.total("kernel.irq_entries"),
                "os": vars(sc.system.os.stats),
                "trace": list(sc.tracer.events),
                "completions": sc.total_completions(),
            })
        assert states[0] == states[1]
        assert states[0]["completions"] >= 6

    @pytest.mark.parametrize("disturb", ["tlb_flush", "evict_idle_line",
                                         "kill_vm"])
    def test_events_landing_mid_spin_identical(self, disturb):
        """Events that fire while the idle task spins change what the
        spin probes (the TLB, the idle task's L1D lines) or end the VM."""
        from repro.eval.scenarios import build_virtualized
        from repro.guest import layout_guest as GL
        from repro.guest.ucos import IDLE_PRIO

        def run(params):
            sc = build_virtualized(
                2, seed=4, with_workloads=False,
                machine_config=MachineConfig(params=params))
            k, mem = sc.kernel, sc.machine.mem
            sc.run_ms(5.0)
            idle_at_event = []

            def fire():
                pd = k.current
                os_ = getattr(pd.runner, "os", None) if pd else None
                idle_at_event.append(os_ is not None and os_.current.prio
                                     == IDLE_PRIO)
                if not idle_at_event[-1]:
                    return
                if disturb == "tlb_flush":
                    mem.mmu.tlb.flush_all()
                elif disturb == "evict_idle_line":
                    page = mem.mmu.probe(GL.KERNEL_DATA).pfn << 12
                    for off in range(0, 4096, sc.machine.params.l1d.line):
                        mem.caches.l1d.invalidate_line(page + off)
                elif not k.metrics.total("kernel.vm_kills"):
                    k.kill_vm(pd, reason="test")

            # Odd offsets land inside idle chunks, not on their edges.
            for i in range(12):
                k.sim.schedule(1_000_003 + i * 700_001, fire)
            sc.run_ms(15.0)
            return (_scenario_state(sc), k.metrics.total("kernel.vm_kills"),
                    idle_at_event)

        fast, slow = run(DEFAULT_PARAMS), run(SLOW_PARAMS)
        assert fast == slow
        state, kills, idle_at_event = fast
        if disturb == "kill_vm":
            assert kills == 1 and idle_at_event[0]
        else:                             # most events hit a spinning guest
            assert sum(idle_at_event) >= 6

    def test_spin_engages(self, monkeypatch):
        """Non-vacuity: the equality tests above prove nothing if the spin
        never books chunks in closed form.  A spy (not a product counter)
        counts idle chunks that ran inside ``spin`` without reaching
        ``sample_block`` against every idle chunk run."""
        from repro.eval.scenarios import build_virtualized
        from repro.guest import layout_guest as GL
        from repro.guest.exec import GuestExecutor
        from repro.guest.ucos import IDLE_CHUNK

        idle = (IDLE_CHUNK.instrs, IDLE_CHUNK.mem_accesses, GL.OS_IDLE_CTR)
        counts = {"closed_form": 0, "one_by_one": 0}
        inside = []
        spin, word = GuestExecutor.spin, GuestExecutor.word
        sample_block = MemorySystem.sample_block

        def spy_spin(self, *args):
            assert args[:3] == idle
            inside.append(True)
            try:
                n = spin(self, *args)
            finally:
                inside.pop()
            counts["closed_form"] += n
            return n

        def spy_word(self, *args):
            assert args == idle
            if not inside:
                counts["one_by_one"] += 1
            return word(self, *args)

        def spy_sample_block(self, *args, **kw):
            if inside:             # a chunk the spin handed back
                counts["closed_form"] -= 1
                counts["one_by_one"] += 1
            return sample_block(self, *args, **kw)

        monkeypatch.setattr(GuestExecutor, "spin", spy_spin)
        monkeypatch.setattr(GuestExecutor, "word", spy_word)
        monkeypatch.setattr(MemorySystem, "sample_block", spy_sample_block)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
        total = counts["closed_form"] + counts["one_by_one"]
        assert total > 1000
        assert counts["closed_form"] >= 0.9 * total, counts


HOLE_VA = 0x7000_0000


def _kernel_space_cpu(params):
    """A machine's CPU, privileged, on the kernel's address space (the
    kernel image, its linear map of DRAM and the device windows), plus
    one 4 KB page at ``HOLE_VA`` whose successor is unmapped."""
    from repro.kernel import layout as L
    from repro.kernel.memory import KernelMemory
    from repro.machine import Machine

    machine = Machine(MachineConfig(params=params, tasks=("fft256",)))
    km = KernelMemory(machine)
    km.kernel_pt.map_page(HOLE_VA, machine.mem.guest_frames.alloc(4096),
                          ap=AP.PRIV_ONLY, domain=L.DOMAIN_HK)
    cpu = machine.cpu
    cpu.sysregs.write("TTBR0", km.kernel_pt.l1_base, privileged=True)
    cpu.sysregs.write("DACR", dacr_set(0, L.DOMAIN_HK, DomainType.CLIENT),
                      privileged=True)
    cpu.sysregs.write("SCTLR", 1, privileged=True)
    return cpu


def _fetch_state(cpu):
    """Everything a code block can change: the clock, the TLB, L1I and
    L2 stats, tags, occupancy and dirty lines, the DRAM access count and
    the walk count."""
    mem = cpu.mem
    caches, tlb = mem.caches, mem.mmu.tlb
    return {
        "now": cpu.sim.now,
        "tlb": (vars(tlb.stats.snapshot()), tlb._resident,
                [list(s) for s in tlb._sets]),
        **{name: (vars(level.stats.snapshot()), level._resident,
                  [list(t) for t in level._tags],
                  set(level._dirty))
           for name, level in (("l1i", caches.l1i), ("l2", caches.l2))},
        "dram_accesses": caches.dram_accesses,
        "walks": mem.mmu.walks,
    }


class TestFetchRunEquivalence:
    """``MemorySystem.fetch_run`` (docs/PERFORMANCE.md §2) against the
    per-line ``touch`` loop that ``fastpath=False`` runs."""

    @staticmethod
    def _both(script):
        """Run ``script(cpu)`` on both paths; return both final states."""
        out = []
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            cpu = _kernel_space_cpu(params)
            script(cpu)
            out.append(_fetch_state(cpu))
        return out

    @pytest.mark.parametrize("offset, n_instr", [
        (0x840, 64),          # starts mid-page, stays on it
        (0xFF4, 40),          # starts mid-line, crosses one page
        (0xF00, 128),         # crosses one page
        (0x0A0, 7600),        # the manager's bookkeeping block: 8 pages
        (0xE00, 128),         # ends exactly on a page boundary
        (0x800, 2560),        # several pages, ends on a boundary
    ], ids=["in_page", "mid_line", "one_crossing", "eight_pages",
            "ends_on_boundary", "pages_end_on_boundary"])
    def test_blocks_across_pages_identical(self, offset, n_instr):
        """Cold walks, warm hits, L1I conflict evictions 8 KB apart, and
        L2 misses that write dirty victims back after a store sweep."""
        from repro.kernel import layout as L

        va = L.KERNEL_BASE + offset

        def script(cpu):
            cpu.code(va, n_instr)
            cpu.code(va, n_instr)
            for k in range(1, 6):
                cpu.code(va + k * 8192, n_instr)
            for a in range(L.KERNEL_LINEAR_BASE + 0x40_0000,
                           L.KERNEL_LINEAR_BASE + 0x4A_0000, 32):
                cpu.store(a)
            cpu.mem.mmu.tlb.flush_all()
            cpu.code(va, n_instr)
            cpu.code(va + 8192, n_instr)

        fast, slow = self._both(script)
        assert fast == slow
        l1i_stats, l2_stats = fast["l1i"][0], fast["l2"][0]
        assert l1i_stats["evictions"] and l2_stats["writebacks"]
        assert fast["tlb"][0]["misses"]

    def test_fault_on_second_page_identical(self):
        """The block's second page is unmapped: the same abort, reason
        and walk cycles; the first page's lines are in the stats; nothing
        is charged."""
        from repro.common.errors import PrefetchAbort

        faults = []

        def script(cpu):
            cpu.code(HOLE_VA + 0xF00, 64)          # pays the first walk
            cpu.mem.mmu.tlb.flush_all()
            t0 = cpu.sim.now
            with pytest.raises(PrefetchAbort) as info:
                cpu.code(HOLE_VA + 0xE00, 160)     # 16 lines, then the hole
            assert cpu.sim.now == t0
            faults.append((info.value.vaddr, info.value.reason,
                           info.value.cycles))

        fast, slow = self._both(script)
        assert fast == slow
        assert faults[0] == faults[1]
        assert faults[0][:2] == (HOLE_VA + 0x1000, "translation fault (L2)")
        # 8 + 16 lines on the first page, 8 of them twice; three walks.
        assert (fast["l1i"][0]["hits"], fast["l1i"][0]["misses"]) == (8, 16)
        assert (fast["tlb"][0]["hits"], fast["tlb"][0]["misses"]) == (22, 3)

    @pytest.mark.parametrize("va", [
        0xF8F0_0040,        # the GIC page: the first line is a device
        0xF8F0_2100,        # a timer window starts mid-page, after line 0
        0xF800_6F00,        # crosses into the PCAP page
    ], ids=["gic", "window_mid_page", "into_pcap"])
    def test_device_pages_identical(self, va):
        def script(cpu):
            cpu.code(va, 160)
            cpu.code(va, 160)

        fast, slow = self._both(script)
        assert fast == slow

    def test_mmu_off_identical(self):
        from repro.kernel import layout as L

        def script(cpu):
            cpu.sysregs.write("SCTLR", 0, privileged=True)
            for _ in range(2):
                cpu.code(L.KERNEL_BASE + 0xF40, 2000)

        fast, slow = self._both(script)
        assert fast == slow
        assert fast["l1i"][0]["hits"] and not fast["tlb"][0]["hits"]

    def test_fetch_run_engages(self, monkeypatch):
        """Non-vacuity: the tests above prove nothing if every line still
        goes through ``touch``.  A spy (not a product counter) counts the
        lines fetched against the ``touch`` calls made inside
        ``fetch_run``."""
        from repro.eval.scenarios import build_virtualized

        counts = {"lines": 0, "touched": 0}
        inside = []
        fetch_run, touch = MemorySystem.fetch_run, MemorySystem.touch

        def spy_fetch_run(self, vaddr, lines, **kw):
            counts["lines"] += lines
            inside.append(True)
            try:
                return fetch_run(self, vaddr, lines, **kw)
            finally:
                inside.pop()

        def spy_touch(self, *args, **kw):
            if inside:
                counts["touched"] += 1
            return touch(self, *args, **kw)

        monkeypatch.setattr(MemorySystem, "fetch_run", spy_fetch_run)
        monkeypatch.setattr(MemorySystem, "touch", spy_touch)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
        assert counts["lines"] > 20_000
        inline = counts["lines"] - counts["touched"]
        assert inline >= 0.9 * counts["lines"], counts


# The bulk address space: 4 KB pages whose frames lie 64 KB apart, so
# the same line of every page falls in one L1D set and one L2 set.  The
# first four RW pages and RO share TLB set 0 (a 2-way set).
RW = (0x4000_0000, 0x4004_0000, 0x4008_0000, 0x400C_0000,
      0x4000_1000, 0x4000_2000)
RO = 0x4010_0000                  # user read-only
PRIV = 0x4000_3000                # privileged only
GLOBAL = 0x4000_4000              # a global (nG = 0) mapping
HOLE_L2 = 0x4000_5000             # unmapped, in a mapped megabyte
HOLE_L1 = 0x5000_0000             # unmapped megabyte
BULK_PAGES = RW + (RO, PRIV, GLOBAL, HOLE_L2, HOLE_L1)
FRAME_BASE = 0x0400_0000

#: Cache geometries for the bulk loop: the default, whose L1D and L2 lines
#: are both 32 B, and one with 64 B L2 lines, on which an L2 tag differs
#: from the L1D tag it is taken from.
GEOMETRIES = {"l2_32": DEFAULT_PARAMS,
              "l2_64": DEFAULT_PARAMS.with_(l2=replace(DEFAULT_PARAMS.l2,
                                                       line=64))}


def _bulk_space(fast, params=DEFAULT_PARAMS):
    """A memory system on ``params`` with the MMU on over the bulk pages,
    at ASID 1, and its registry.  ``fast=False`` keeps the walk memo but
    runs ``sample_block``'s per-access reference loop, which is the loop
    ``fastpath=False`` runs, so every walk-memo counter compares too."""
    metrics = MetricsRegistry()
    mem = MemorySystem(params, metrics)
    mem.fastpath = fast
    pt = PageTable(mem.bus, mem.kernel_frames)
    aps = {RO: AP.PRIV_RW_USER_RO, PRIV: AP.PRIV_ONLY}
    for k, va in enumerate(RW + (RO, PRIV, GLOBAL)):
        pt.map_page(va, FRAME_BASE + k * 0x1_0000, ap=aps.get(va, AP.FULL),
                    domain=0, ng=va != GLOBAL)
    mmu = mem.mmu
    mmu.set_ttbr(pt.l1_base)
    mmu.set_dacr(dacr_set(0, 0, DomainType.CLIENT))
    mmu.set_asid(1)
    mmu.enabled = True
    return mem, metrics


def _bulk_state(mem, metrics):
    """Everything a bulk block can change except the batched-cycles
    counter, which only the fast path keeps.  The TLB sets, tags and
    dirty sets are the live lists: compare before the next block."""
    caches, mmu = mem.caches, mem.mmu
    tlb = mmu.tlb
    return {
        "tlb": (vars(tlb.stats.snapshot()), tlb._resident, tlb._sets),
        **{name: (vars(level.stats.snapshot()), level._resident,
                  level._tags, level._dirty)
           for name, level in (("l1d", caches.l1d), ("l2", caches.l2))},
        "dram_accesses": caches.dram_accesses,
        "walks": mmu.walks,
        "memo": (dict(mmu._walk_memo),
                 metrics.total("sim.fastpath.walk_cache_hits"),
                 metrics.total("sim.fastpath.walk_cache_invalidations")),
        "pressure": (mem._l2_fill_acc, mem._tlb_fill_acc),
    }


def _run_block(mem, vaddrs, writes, privileged=False, scale=64):
    """``sample_block``'s cycles, or the fault it raised."""
    try:
        return mem.sample_block(vaddrs, write_mask=writes,
                                privileged=privileged, scale=scale)
    except DataAbort as exc:
        return (type(exc), exc.vaddr, exc.reason, exc.write, exc.cycles)


# One access per line of RW[4], far from every other page's TLB set: it
# makes a block longer than the TLB has sets without touching the sets
# under test.
PAD = [RW[4] + 0x20 * i for i in range(80)]


class TestSampleBlockEquivalence:
    """The fused bulk loop (docs/PERFORMANCE.md §2) against the
    per-access loop, on the same MMU."""

    @staticmethod
    def _both(blocks, prepare=None):
        """Run each ``(vaddrs, writes, privileged)`` block on both paths;
        return both runs' outcomes and final states."""
        out = []
        for fast in (True, False):
            mem, metrics = _bulk_space(fast)
            if prepare is not None:
                prepare(mem)
            results = [_run_block(mem, *b) for b in blocks]
            out.append((results, _bulk_state(mem, metrics)))
        assert out[0] == out[1]
        return out[0]

    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_insert_displaces_a_front_entry_used_again(self, pad):
        """RW[1] is the front of TLB set 0 when the block starts.  The
        walk for RW[2] evicts RW[0] and moves RW[1] behind RW[2], so the
        later accesses to RW[1] and RW[0] must be an LRU-moving hit and
        a miss, not free hits."""
        warm = ([RW[0], RW[1]], [False, False], False)
        block = [RW[1], RW[2], RW[1] + 8, RW[2] + 4, RW[0], RW[1]]
        results, state = self._both(
            [warm, (pad + block, [False] * len(pad) + [True] * 6, False)])
        tlb = state["tlb"][0]
        # The block misses on RW[2], RW[0] and, evicted by RW[0], RW[1].
        assert tlb["misses"] == 2 + (pad != []) + 3
        assert tlb["hits"] == len(pad) - (pad != []) + 3
        assert [e.vpn for e in state["tlb"][2][0]] == [RW[1] >> 12,
                                                      RW[0] >> 12]

    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_hit_behind_the_front_moves_it(self, pad):
        warm = ([RW[0], RW[1]], [False, False], False)
        block = pad + [RW[0], RW[0] + 4, RW[1]]
        results, state = self._both([warm, (block, [True] * len(block),
                                            False)])
        assert [e.vpn for e in state["tlb"][2][0]] == [RW[1] >> 12,
                                                      RW[0] >> 12]

    @pytest.mark.parametrize("hole, reason", [
        (HOLE_L2, "translation fault (L2)"),
        (HOLE_L1, "translation fault (L1)")], ids=["l2", "l1"])
    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_translation_fault_mid_block(self, pad, hole, reason):
        """Accesses before the hole are booked; the hole counts as a
        TLB miss and reaches no cache; nothing after it runs."""
        block = pad + [RW[0], RW[1] + 0x40, hole + 8, RW[2]]
        results, state = self._both([(block, [True] * len(block), False)])
        assert results[0][:3] == (DataAbort, hole + 8, reason)
        assert results[0][4] > 0                  # the walk's cycles
        assert state["tlb"][0]["misses"] == (pad != []) + 3
        assert state["l1d"][0]["hits"] + state["l1d"][0]["misses"] == \
            len(pad) + 2

    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_permission_faults(self, pad):
        """A user write to the read-only page after reads of it, with
        its entry at the front of its TLB set (no walk cycles), and a
        user read of the privileged page on a TLB miss (the walk's
        cycles)."""
        ro_write = (pad + [RO, RO + 4, RW[5], RO + 8],
                    [False] * (len(pad) + 3) + [True], False)
        priv_read = ([RW[0], PRIV], [False, False], False)
        results, state = self._both([ro_write, priv_read])
        assert results[0] == (DataAbort, RO + 8,
                              "permission fault (user read-only)", True, 0)
        assert results[1][:3] == (DataAbort, PRIV,
                                  "permission fault (privileged only)")
        assert results[1][4] > 0
        # Privileged, both pages are fine.
        results, _ = self._both([(ro_write[0], ro_write[1], True),
                                 (priv_read[0], priv_read[1], True)])
        assert all(isinstance(r, int) for r in results)

    def test_dirty_victims_into_a_full_l2_set_with_a_dirty_lru_line(self):
        """A write miss evicts a dirty L1D line, whose fill lands in a full
        L2 set with a dirty least-recently-used line and writes it back;
        the block's own L2 lookups then miss in that set and evict dirty
        lines too."""
        # Line 1 of every bulk frame lies in L1D set 1 and L2 set 1.
        frame = [FRAME_BASE + k * 0x1_0000 + 32 for k in range(17)]

        def prepare(mem):
            for va in RW[4:6]:                   # walk them beforehand
                mem.mmu.translate(va, privileged=True, write=False)
            l1, l2 = mem.caches.l1d, mem.caches.l2
            for f in frame[9:]:                  # L2: 8 dirty lines of
                l2.fill(f, write=True)           # frames no page maps
            for f in frame[:4]:                  # L1D: 4 lines, the LRU
                l1.fill(f, write=f == frame[0])  # one dirty
        block = [RW[4] + 32, RW[5] + 32]
        results, state = self._both([(block, [True, True], True)], prepare)
        l1, l2 = state["l1d"][0], state["l2"][0]
        assert (l1["misses"], l1["evictions"], l1["writebacks"]) == (2, 2, 1)
        # Two L2 misses are the walks' beforehand.
        assert (l2["misses"], l2["writebacks"]) == (2 + 2, 3)
        assert state["l2"][2][1][:4] == [frame[5] >> 5, frame[4] >> 5,
                                         frame[0] >> 5, frame[16] >> 5]

    def test_mmu_off(self):
        def prepare(mem):
            mem.mmu.enabled = False
        block = [FRAME_BASE + 0x40 * i for i in range(100)] * 2
        results, state = self._both(
            [(block, [i % 3 == 0 for i in range(200)], False)], prepare)
        assert state["l1d"][0]["hits"] and not state["tlb"][0]["hits"]

    def test_one_address_and_empty_blocks(self):
        results, state = self._both([([], [], False), ([RW[0]], [True],
                                                       False),
                                     ([RW[0] + 4], [False], False),
                                     ([], [], True)])
        assert results[0] == results[3] == 0
        assert state["tlb"][0] == {"hits": 1, "misses": 1, "flushes": 0}

    @pytest.mark.parametrize("params", GEOMETRIES.values(),
                             ids=GEOMETRIES.keys())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.one_of(
        st.tuples(st.just("block"), st.booleans(), st.booleans(),
                  st.lists(st.tuples(st.sampled_from(BULK_PAGES),
                                     st.integers(0, 7), st.integers(0, 7),
                                     st.booleans()), max_size=30)),
        st.tuples(st.just("asid"), st.integers(1, 3)),
        st.tuples(st.just("mmu"), st.booleans())), min_size=1, max_size=12))
    def test_random_blocks_on_a_warm_system(self, params, steps):
        """Random blocks (holes, read-only and privileged-only pages, the
        global page; a long one repeats its accesses past the TLB's set
        count) between ASID switches and MMU toggles, on a system warmed
        by a block over every mapped line, on each geometry."""
        warm = [va + 32 * i for va in RW + (RO, PRIV, GLOBAL)
                for i in range(8)]
        sides = [_bulk_space(fast, params) for fast in (True, False)]
        for mem, _ in sides:
            mem.sample_block(warm, write_mask=[True] * len(warm),
                             privileged=True, scale=64)
        for step in steps:
            results = []
            for mem, _ in sides:
                if step[0] == "asid":
                    mem.mmu.set_asid(step[1])
                elif step[0] == "mmu":
                    mem.mmu.enabled = step[1]
                else:
                    _, priv, long, accesses = step
                    if long and accesses:
                        accesses = accesses * (len(PAD) // len(accesses) + 1)
                    vaddrs = [va + 32 * ln + 4 * wd
                              for va, ln, wd, _ in accesses]
                    writes = [w for *_, w in accesses]
                    results.append(_run_block(mem, vaddrs, writes, priv))
            assert results[:1] == results[1:]
            assert _bulk_state(*sides[0]) == _bulk_state(*sides[1])


@pytest.fixture
def walked(memsys):
    """A memo-warm MMU: one mapped page, one completed timed walk."""
    pt = PageTable(memsys.bus, memsys.kernel_frames)
    mmu = memsys.mmu
    mmu.set_ttbr(pt.l1_base)
    mmu.set_dacr(dacr_set(0, 0, DomainType.CLIENT))
    mmu.enabled = True
    pt.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=0)
    mmu.translate(0x8000_0000, privileged=True, write=False)
    assert mmu._walk_memo      # the successful walk was memoized
    return memsys, pt, mmu


class TestWalkMemo:
    def _rewalk(self, mmu, va=0x8000_0000):
        mmu.tlb.flush_all()
        hits = mmu.walk_memo_hits
        mmu.translate(va, privileged=True, write=False)
        return mmu.walk_memo_hits - hits

    def test_memo_hit_on_rewalk(self, walked):
        _, _, mmu = walked
        assert self._rewalk(mmu) == 1

    def test_ttbr_switch_away_and_back_keeps_memo(self, walked):
        memsys, _, mmu = walked
        home = mmu.ttbr
        other = PageTable(memsys.bus, memsys.kernel_frames, name="other")
        other.map_page(0x8000_0000, 0x0030_0000, ap=AP.FULL, domain=0)
        mmu.set_ttbr(other.l1_base)
        mmu.tlb.flush_all()
        paddr, _ = mmu.translate(0x8000_0000, privileged=True, write=False)
        assert paddr == 0x0030_0000       # keyed by TTBR: no cross-space hit
        mmu.set_ttbr(home)
        assert self._rewalk(mmu) == 1

    def test_dacr_write_keeps_memo_and_checks_new_dacr(self, walked):
        from repro.common.errors import DataAbort

        _, _, mmu = walked
        client = mmu.dacr
        mmu.set_dacr(dacr_set(client, 0, DomainType.NO_ACCESS))
        mmu.tlb.flush_all()
        hits = mmu.walk_memo_hits
        with pytest.raises(DataAbort, match="domain fault"):
            mmu.translate(0x8000_0000, privileged=True, write=False)
        assert mmu.walk_memo_hits == hits + 1
        mmu.set_dacr(client)
        assert self._rewalk(mmu) == 1

    def test_unrelated_dram_write_keeps_entry(self, walked, metrics):
        memsys, _, mmu = walked
        memsys.bus.dram.write32(0x0020_0000, 0xDEAD_BEEF)   # the data page
        assert self._rewalk(mmu) == 1
        assert metrics.total("sim.fastpath.walk_cache_invalidations") == 0

    @pytest.mark.parametrize("table", ["l1", "l2"])
    def test_descriptor_page_write_rewalks(self, walked, metrics, table):
        memsys, pt, mmu = walked
        # A word on the same table page as the memoized descriptors, but
        # not one of them: the walk's result is unchanged, yet it must
        # re-read its descriptors once and memoize them afresh.
        entry = (pt.l1_entry_addr(0x8000_0000) if table == "l1"
                 else pt.l2_entry_addr(0x8000_0000))
        neighbour = entry ^ 0x8
        memsys.bus.dram.write32(neighbour,
                                memsys.bus.dram.read32(neighbour))
        assert self._rewalk(mmu) == 0
        assert metrics.total("sim.fastpath.walk_cache_invalidations") == 1
        assert self._rewalk(mmu) == 1

    def test_dram_write_epoch_invalidates(self, walked):
        memsys, pt, mmu = walked
        # Unmapping the page writes its L2 descriptor; the next timed
        # walk must re-read the descriptors and fault instead of
        # replaying the stale memoized translation.
        pt.unmap_page(0x8000_0000)
        from repro.common.errors import DataAbort

        mmu.tlb.flush_all()
        with pytest.raises(DataAbort):
            mmu.translate(0x8000_0000, privileged=True, write=False)

    def test_faulting_walks_never_memoized(self, walked):
        memsys, _, mmu = walked
        from repro.common.errors import DataAbort

        memo = dict(mmu._walk_memo)
        with pytest.raises(DataAbort):
            mmu.translate(0x9000_0000, privileged=True, write=False)
        assert mmu._walk_memo == memo

    def test_slowpath_mmu_never_memoizes(self):
        memsys = MemorySystem(SLOW_PARAMS, MetricsRegistry())
        pt = PageTable(memsys.bus, memsys.kernel_frames)
        mmu = memsys.mmu
        mmu.set_ttbr(pt.l1_base)
        mmu.set_dacr(dacr_set(0, 0, DomainType.CLIENT))
        mmu.enabled = True
        pt.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=0)
        mmu.translate(0x8000_0000, privileged=True, write=False)
        assert not mmu._walk_memo


class TestFlattenedTables:
    def test_tables_per_dacr_value_equal_a_fresh_build(self, memsys):
        mmu = memsys.mmu
        values = [dacr_set(0, 0, DomainType.CLIENT),
                  dacr_set(dacr_set(0, 0, DomainType.CLIENT),
                           1, DomainType.MANAGER),
                  dacr_set(0, 2, DomainType.NO_ACCESS) | 0b10 << 6,
                  0xFFFF_FFFF]
        for order in (values, values[::-1], values[1::2] + values[::2]):
            for dacr in order:
                mmu.set_dacr(dacr)
                fresh = type(mmu)._build_dacr_tables(dacr)
                assert (mmu._dacr_types, mmu._allow) == fresh
                assert mmu._dacr_types is mmu._dacr_tables[dacr][0]

    def test_tlb_entry_perm_key(self):
        for domain in (0, 3, 15):
            for ap in AP:
                e = TlbEntry(vpn=1, pfn=2, asid=0, ap=ap, domain=domain)
                assert e.perm == domain * 4 + int(ap)

    def test_allow_table_matches_check(self, memsys):
        """The 64-entry tables must be the exact truth table of _check."""
        from repro.common.errors import DataAbort

        mmu = memsys.mmu
        mmu.set_dacr(dacr_set(dacr_set(dacr_set(0, 0, DomainType.CLIENT),
                                       1, DomainType.MANAGER),
                              2, DomainType.NO_ACCESS))
        for priv in (False, True):
            for write in (False, True):
                tab = mmu.allow_table(privileged=priv, write=write)
                for domain in range(16):
                    for ap in AP:
                        e = TlbEntry(vpn=0, pfn=0, asid=0, ap=ap,
                                     domain=domain)
                        try:
                            mmu._check(0, e, privileged=priv, write=write,
                                       fetch=False, cycles=0)
                            allowed = True
                        except DataAbort:
                            allowed = False
                        assert tab[e.perm] == allowed, (priv, write, domain, ap)
