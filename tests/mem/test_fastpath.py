"""Fast-path equivalence: fastpath on/off must be cycle-for-cycle identical.

docs/PERFORMANCE.md §5 is the contract these tests pin: the fused
data-run loop, the fused touch path, the fetch run and its plans, the
closed-form idle spin and the walk memo are pure reformulations of the
cost model.  Every simulated-cycle quantity —
the clock, stats, accounting, fault-schedule results, bench series — must
not move when ``PlatformParams.fastpath`` is flipped.  Plus unit tests for the
walk memo's validity rule (TTBR and DACR writes keep it, a write to an
entry's descriptor page drops that entry) and the per-DACR-value tables.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat

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


def _mem_state(mem):
    """Everything an access can change: the TLB, L1I, L1D and L2 stats,
    sets or tags, dirty lines and occupancy, the walks, the walk memo with
    its counters and the fill-pressure accumulators.  The lists are the
    live ones: compare before the next access."""
    caches, mmu = mem.caches, mem.mmu
    tlb = mmu.tlb
    return {
        "tlb": (vars(tlb.stats.snapshot()), tlb._resident, tlb._sets),
        **{name: (vars(level.stats.snapshot()), level._resident,
                  level._tags, level._dirty)
           for name, level in (("l1i", caches.l1i), ("l1d", caches.l1d),
                               ("l2", caches.l2))},
        "walks": mmu.walks,
        "memo": (dict(mmu._walk_memo), mmu.walk_memo_hits,
                 mmu._m_walk_invals.value),
        "pressure": (mem._l2_fill_acc, mem._tlb_fill_acc),
    }


class TestFetchRunEquivalence:
    """``MemorySystem.fetch_run`` (docs/PERFORMANCE.md §2) against the
    per-line ``touch`` loop that ``fastpath=False`` runs."""

    @staticmethod
    def _both(script):
        """Run ``script(cpu)`` on both paths; return both final states.
        The reference has the whole fast path off, the walk memo included,
        so the memo is left out of the comparison."""
        out = []
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            cpu = _kernel_space_cpu(params)
            script(cpu)
            state = _mem_state(cpu.mem)
            del state["memo"]
            out.append({"now": cpu.sim.now, **state})
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

    def test_plans_reused_after_flushes(self):
        """A plan holds set lists, not their contents: reused after every
        level is cleaned and invalidated, and after half the L2 sets are
        dropped, it walks the emptied sets."""
        import numpy as np
        from repro.kernel import layout as L

        va = L.KERNEL_BASE + 0x840
        plans = []

        def script(cpu):
            mem = cpu.mem
            cpu.code(va, 400)                       # a TLB miss
            cpu.code(va, 400)                       # the front entry
            built = dict(mem._fetch_plans)
            cpu.sim.clock.advance(mem.caches.flush_all())
            cpu.code(va, 400)
            mem.caches.l2.clear_random_sets(0.5, np.random.default_rng(3))
            mem.caches.l1i.invalidate_all()
            cpu.code(va, 400)
            plans.append((built, dict(mem._fetch_plans)))

        fast, slow = self._both(script)
        assert fast == slow
        built, final = plans[0]
        assert built and final == built         # reused, none rebuilt
        assert not plans[1][1]                  # the reference builds none

    def test_one_code_va_under_two_asids(self):
        """One code VA, not global, mapped to a different frame in each of
        two address spaces: plans are keyed by physical address, so each
        space's fetches walk its own frame's lines."""
        from repro.kernel import layout as L

        va = 0x6000_0000

        def script(cpu):
            mem = cpu.mem
            spaces = []
            for asid in (1, 2):
                pt = PageTable(mem.bus, mem.kernel_frames, name=f"as{asid}")
                pt.map_page(va, mem.guest_frames.alloc(4096),
                            ap=AP.PRIV_ONLY, domain=L.DOMAIN_HK, ng=True)
                spaces.append((pt.l1_base, asid))
            for ttbr, asid in spaces * 2:
                cpu.sysregs.write("TTBR0", ttbr, privileged=True)
                cpu.sysregs.write("CONTEXTIDR", asid, privileged=True)
                cpu.code(va + 0x100, 64)

        fast, slow = self._both(script)
        assert fast == slow
        # Both frames' 8 lines are resident; the second visits all hit.
        assert (fast["l1i"][0]["misses"], fast["l1i"][0]["hits"]) == (16, 16)

    def test_first_line_behind_the_front(self):
        """The code page's TLB entry sits behind a data page's in its
        2-way set: the block's first line goes through ``touch``, which
        moves it to the front."""
        from repro.kernel import layout as L

        va = L.KERNEL_BASE + 0x840
        data = L.KERNEL_LINEAR_BASE + 0x40_0000     # the same TLB set
        assert (va >> 12) % 64 == (data >> 12) % 64

        def script(cpu):
            cpu.code(va, 64)
            cpu.load(data)
            entries = cpu.mem.mmu.tlb._sets[(va >> 12) % 64]
            assert [e.vpn for e in entries] == [data >> 12, va >> 12]
            cpu.code(va, 64)
            assert [e.vpn for e in entries] == [va >> 12, data >> 12]

        fast, slow = self._both(script)
        assert fast == slow

    def test_first_line_l2_miss_with_a_dirty_victim(self):
        """The block's first line is on a page whose entry is the front of
        its set, misses L1I, and misses L2 in a full set whose LRU line is
        dirty: it pays its full latency, writeback included."""
        from repro.kernel import layout as L

        va = L.KERNEL_BASE + 0x2840
        costs = []

        def script(cpu):
            mem = cpu.mem
            cpu.code(va - 0x800, 8)                 # the page's entry
            paddr = mem.mmu.probe(va).pfn << 12 | (va & 0xFFF)
            l2 = mem.caches.l2
            stride = l2._sets * l2.params.line
            for k in range(1, l2._ways + 1):        # a full set, all dirty
                l2.fill(paddr + k * stride, write=True)
            wb, t0 = l2.stats.writebacks, cpu.sim.now
            cpu.code(va, 40)
            costs.append((cpu.sim.now - t0, l2.stats.writebacks - wb))

        fast, slow = self._both(script)
        assert fast == slow
        assert costs[0] == costs[1]
        t = DEFAULT_PARAMS.cpu
        first = t.l1_hit + t.l2_hit + t.dram + t.dram // 4
        assert costs[0] == (first + 4 * 10 + t.instr_cycles(40), 1)

    def test_first_line_forbidden_raises_touchs_abort(self):
        """A user-mode fetch from a privileged-only page whose entry is
        the front of its set: ``touch`` raises the prefetch abort, and
        nothing is charged."""
        from repro.common.errors import PrefetchAbort
        from repro.cpu.modes import Mode

        faults = []

        def script(cpu):
            cpu.code(HOLE_VA, 8)                    # privileged: the front
            cpu.set_mode(Mode.USR)
            t0 = cpu.sim.now
            with pytest.raises(PrefetchAbort) as info:
                cpu.code(HOLE_VA + 0x100, 16)
            assert cpu.sim.now == t0
            faults.append((info.value.vaddr, info.value.reason,
                           info.value.cycles))

        fast, slow = self._both(script)
        assert fast == slow
        assert faults[0] == faults[1] == (
            HOLE_VA + 0x100, "permission fault (privileged only)", 0)

    def test_fetch_run_engages(self, monkeypatch):
        """Non-vacuity: the tests above prove nothing if every line still
        goes through ``touch``.  A spy (not a product counter) counts the
        lines fetched against the ``touch`` calls made inside
        ``fetch_run``: every other line comes from a plan.  Most blocks
        start on a page whose entry is already the front of its set, so
        they make no ``touch`` at all."""
        from repro.eval.scenarios import build_virtualized

        counts = {"lines": 0, "touched": 0, "calls": 0, "untouched": 0}
        inside = []
        fetch_run, touch = MemorySystem.fetch_run, MemorySystem.touch

        def spy_fetch_run(self, vaddr, lines, **kw):
            counts["lines"] += lines
            counts["calls"] += 1
            touched = counts["touched"]
            inside.append(True)
            try:
                return fetch_run(self, vaddr, lines, **kw)
            finally:
                inside.pop()
                counts["untouched"] += counts["touched"] == touched

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
        planned = counts["lines"] - counts["touched"]
        assert planned >= 0.9 * counts["lines"], counts
        assert counts["untouched"] >= 0.8 * counts["calls"], counts


def _data_runs(mem, fast, log):
    """``run(vaddrs, writes, privileged=True, scale=None)``: one data run on
    ``mem``.  It logs the cycles the run charged and its fault (address,
    reason, kind and walk cycles), or None.  With ``scale`` it is a
    ``sample_block``, whose cycles are its return value.  Without, it is a
    ``touch_run``, or one ``touch`` per access on the reference side
    (``fast`` False)."""
    def run(vaddrs, writes, privileged=True, scale=None):
        charged, fault = [], None
        try:
            if scale is not None:
                charged.append(mem.sample_block(
                    vaddrs, write_mask=writes, privileged=privileged,
                    scale=scale))
            elif fast:
                mem.touch_run(vaddrs, writes, privileged=privileged,
                              charge=charged.append)
            else:
                for w, va in zip(writes, vaddrs):
                    charged.append(mem.touch(va, write=w,
                                             privileged=privileged))
        except DataAbort as exc:
            fault = (exc.vaddr, exc.reason, exc.write, exc.cycles)
        log.append((sum(charged), fault))
    return run


class DataRuns:
    """The one equivalence of every data run (docs/PERFORMANCE.md §2):
    ``touch_run``'s fused loop, which the kernel's record walks and context
    moves, uC/OS-II's TCB walk and the guests' sample blocks all run,
    against one ``touch`` per access.  Its cases are grouped by the shape
    of the run: word moves, strided record walks and guest sample blocks.
    """

    @staticmethod
    def _both(script, space, params=DEFAULT_PARAMS):
        """Run ``script(mem, run)`` on two ``space(params)`` memory systems
        and assert equal logs and final states; return one.  On the first,
        runs go through ``touch_run``.  The second, the reference, has
        ``MemorySystem.fastpath`` off, so each run is one ``touch`` per
        access and each sample block runs ``touch_run``'s reference loop.
        Its MMU keeps the walk memo, so the memo's counters compare too."""
        out = []
        for fast in (True, False):
            mem = space(params)
            mem.fastpath = fast and mem.fastpath
            log = []
            script(mem, _data_runs(mem, fast, log))
            out.append((log, _mem_state(mem)))
        assert out[0] == out[1]
        return out[0]


def _kernel_space(params):
    return _kernel_space_cpu(params).mem


#: Every caller of a data run, as (class, method).
RUN_CALLERS = (("MiniNova", "_inject_virq"), ("MiniNova", "_gic_mask_set"),
               ("MiniNova", "_vm_switch"), ("MiniNova", "_route_pl_irq"),
               ("MiniNova", "_handle_hypercall"), ("MiniNova", "_hc_hwtask"),
               ("Ucos", "_on_tick"), ("GuestExecutor", "word"))


@pytest.fixture(scope="module")
def data_run_spy():
    """Non-vacuity for the data-run tests: the equality tests prove nothing
    for a caller whose runs never reach the fused loop.  In the 4-guest
    run of the fetch spy, a spy (not a product counter) counts, per
    caller in ``RUN_CALLERS``, its calls, the runs that reach
    ``MemorySystem._data_run`` with their addresses (runs of two or more
    consecutive words apart as word runs), the caller's own single loads,
    and the ``touch`` calls the loop makes for accesses on DRAM pages.
    Returns the counts by method name and the run's PRR count."""
    from collections import Counter

    from repro.cpu.core import Cpu
    from repro.eval.scenarios import build_virtualized
    from repro.guest.exec import GuestExecutor
    from repro.guest.ucos import Ucos
    from repro.kernel.core import MiniNova

    classes = {"MiniNova": MiniNova, "Ucos": Ucos,
               "GuestExecutor": GuestExecutor}
    counts = {name: Counter() for _, name in RUN_CALLERS}
    inside, in_loop = [], []

    def spy_caller(fn, name):
        def spy(*args, **kw):
            counts[name]["calls"] += 1
            inside.append(name)
            try:
                return fn(*args, **kw)
            finally:
                inside.pop()
        return spy

    load, data_run, touch = Cpu.load, MemorySystem._data_run, \
        MemorySystem.touch

    def spy_load(self, va):
        if inside:
            counts[inside[-1]]["loads"] += 1
        return load(self, va)

    def spy_data_run(self, vaddrs, *args):
        c = counts[inside[-1]]
        c["runs"] += 1
        c["addrs"] += len(vaddrs)
        if len(vaddrs) > 1 and all(b - a == 4 for a, b in
                                   zip(vaddrs, vaddrs[1:])):
            c["word_runs"] += 1
            c["words"] += len(vaddrs)
        in_loop.append(True)
        try:
            return data_run(self, vaddrs, *args)
        finally:
            in_loop.pop()

    def spy_touch(self, va, **kw):
        if in_loop and self.mmu.probe(va).pfn not in self.bus.device_pages:
            counts[inside[-1]]["dram_touches"] += 1
        return touch(self, va, **kw)

    with pytest.MonkeyPatch.context() as mp:
        for cls, name in RUN_CALLERS:
            fn = getattr(classes[cls], name)
            mp.setattr(classes[cls], name, spy_caller(fn, name))
        mp.setattr(Cpu, "load", spy_load)
        mp.setattr(MemorySystem, "_data_run", spy_data_run)
        mp.setattr(MemorySystem, "touch", spy_touch)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
    return counts, len(sc.machine.prrs)


class KernelRuns(DataRuns):
    """The cases that word moves and record walks share, on the kernel's
    address space, for runs whose addresses lie ``STRIDE`` bytes apart."""

    STRIDE = None

    def _vas(self, va, n):
        return range(va, va + self.STRIDE * n, self.STRIDE)

    @pytest.mark.parametrize("va", [0xF8F0_0100, 0xF8F0_21F0],
                             ids=["gic", "into_timer_window"])
    def test_device_pages_identical(self, va):
        """The GIC's page, a run into the timer window that starts
        mid-page, and a run that moves between a device page and a DRAM
        page, loads and stores mixed: device words cost a bus round-trip,
        the page's other words a cache access, and a device page never
        enters the loop's page map."""
        from repro.kernel import layout as L

        lin = L.KERNEL_LINEAR_BASE + 0x40_0000

        def script(mem, run):
            for write in (False, True, False):
                run(self._vas(va, 27), repeat(write))
                run([lin, lin + 32, va, va + 4, lin + 64, va + 8, va + 12],
                    [write, True, not write, False, True, write, True])

        self._both(script, _kernel_space)

    @pytest.mark.parametrize("params, mmu", [(SLOW_PARAMS, True),
                                             (DEFAULT_PARAMS, False),
                                             (SLOW_PARAMS, False)],
                             ids=["fastpath_off", "mmu_off", "both_off"])
    def test_reference_loop_cases_identical(self, params, mmu):
        """The fast path off, the MMU off, and both: the runs take
        ``touch_run``'s reference loop, checked against one ``touch`` per
        access, on one page and across a page boundary."""
        from repro.kernel import layout as L

        def script(mem, run):
            mem.mmu.enabled = mmu
            va = (L.KERNEL_LINEAR_BASE if mmu else L.KERNEL_BASE) + 0x40_0004
            for write in (False, True, False):
                run(self._vas(va, 27), repeat(write))
                run(self._vas(va + 0x1000 - 40, 66), repeat(write))

        _, state = self._both(script, _kernel_space, params)
        assert state["l1d"][0]["hits"]


class TestWordRunEquivalence(KernelRuns):
    """Word moves: the kernel's context saves and restores, its hypercall
    spill and its request mailbox copy."""

    STRIDE = 4

    @pytest.mark.parametrize("write", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("offset", [0, 4, 28])
    def test_runs_identical(self, offset, write):
        """Runs of 1, 7, 8, 9, 27 and 66 words from a line offset, cold
        (the first word of a page misses the TLB) and warm; a run across
        a page boundary; a run of the other kind over the same words;
        and runs 8 KB apart that evict each other's L1D lines."""
        from repro.kernel import layout as L

        base = L.KERNEL_LINEAR_BASE + 0x40_0000 + offset

        def script(mem, run):
            def move(va, n, w=write):
                run(self._vas(va, n), repeat(w))
            for k, n in enumerate((1, 7, 8, 9, 27, 66)):
                move(base + k * 0x400, n)
                move(base + k * 0x400, n)
            move(base + 0x3000 - 64, 27)
            move(base + 0x1400, 66, not write)
            for k in range(6):
                move(base + 0x8000 + k * 8192, 9)

        _, state = self._both(script, _kernel_space)
        assert state["tlb"][0]["misses"] >= 4
        assert state["l1d"][0]["evictions"]
        if write:
            assert state["l1d"][3]

    def test_fault_on_a_later_line(self):
        """The run's third line is on an unmapped page: the words on the
        first two lines are charged and booked, the faulting word is not,
        and the abort carries the walk's cycles.  With the fast path off
        the run takes ``touch_run``'s reference loop, to the same end."""
        def script(mem, run):
            mem.touch(HOLE_VA + 0x800, privileged=True)     # the page's walk
            run(self._vas(HOLE_VA + 0xFDC, 12), repeat(True))

        t = DEFAULT_PARAMS.cpu
        for params in (DEFAULT_PARAMS, SLOW_PARAMS):
            ((charged, fault),), state = self._both(script, _kernel_space,
                                                    params)
            # Two cold lines (L1D and L2 misses), then seven L1D hits.
            assert charged == (2 * (t.l1_hit + t.l2_hit + t.dram)
                               + 7 * t.l1_hit)
            assert fault[:3] == (HOLE_VA + 0x1000, "translation fault (L2)",
                                 True)
            assert fault[3] > 0
            assert state["tlb"][0] == {"hits": 9, "misses": 2, "flushes": 0}

    def test_word_runs_engage(self, data_run_spy):
        """Non-vacuity (``data_run_spy``): the scheduler's context moves,
        the hypercall spill and the request mailbox copy reach the loop
        as word runs, more than ten times each, the context moves over a
        thousand words, and the loop calls ``touch`` for none of their
        words."""
        from repro.kernel.vcpu import Vcpu

        counts, _ = data_run_spy
        switch, hypercall, hwtask = (counts[name] for name in (
            "_vm_switch", "_handle_hypercall", "_hc_hwtask"))
        assert all(c["word_runs"] > 10 for c in (switch, hypercall, hwtask))
        assert switch["words"] > 1_000
        assert not any(c["dram_touches"]
                       for c in (switch, hypercall, hwtask)), counts
        # The context restore, and a save when a VM ran (VFP is lazy).
        assert switch["calls"] <= switch["word_runs"] <= 2 * switch["calls"]
        assert switch["words"] == Vcpu.ACTIVE_CONTEXT_WORDS \
            * switch["word_runs"]
        assert hypercall["word_runs"] == hypercall["runs"]
        assert hypercall["words"] == 4 * hypercall["runs"]
        assert hwtask["word_runs"] == hwtask["runs"]
        assert hwtask["words"] == 6 * hwtask["runs"]


class TestPageRunEquivalence(KernelRuns):
    """Record walks: one word on each of many lines (the vIRQ record
    scans, the scheduler's PD walk, the PL-IRQ routing records, uC/OS-II's
    TCB rows)."""

    STRIDE = 32

    @pytest.mark.parametrize("write", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("stride", [4, 16, 32, 0x100])
    def test_strides_identical(self, stride, write):
        """Runs of 1, 6 and 24 addresses at the stride, cold (the first
        access of a page misses the TLB) and warm; a run across a page
        boundary; repeated lines in a run that leaves a page and comes
        back to it, behind its TLB set's front; a run of the other kind
        over the same addresses; and runs 8 KB apart that evict each
        other's L1D lines."""
        from repro.kernel import layout as L

        page = L.KERNEL_LINEAR_BASE + 0x40_0000

        def script(mem, run):
            for k, n in enumerate((1, 6, 24)):
                vas = [page + k * 0x4000 + 0x40 + i * stride
                       for i in range(n)]
                run(vas, repeat(write))
                run(vas, repeat(write))
            crossing = [page + 0x1_0000 - 5 * stride + i * stride
                        for i in range(10)]
            run(crossing, repeat(write))
            # Pages a and b share a TLB set: coming back to a page finds
            # its entry behind the front.
            a, b = page + 0x1_20A0, page + 0x5_20A0
            run([a, a, a + 4, a, a + 32, a + 4, b, a + 36, b + 4, a],
                repeat(write))
            run(crossing, repeat(not write))
            for k in range(6):
                run([page + 0x2_0000 + k * 8192 + i * stride
                     for i in range(4)], repeat(write))

        log, state = self._both(script, _kernel_space)
        assert state["tlb"][0]["misses"] >= 4
        assert state["l1d"][0]["evictions"]
        assert all(charged for charged, _ in log)
        if write:
            assert state["l1d"][3]

    def test_fault_on_a_later_page(self):
        """The run's fifth address is on an unmapped page: the four
        before it are charged and booked, the faulting one is not, and
        the abort carries the walk's cycles."""
        def script(mem, run):
            mem.touch(HOLE_VA + 0x800, privileged=True)     # the page's walk
            run([HOLE_VA + 0xF00 + 0x40 * i for i in range(6)], repeat(True))

        ((charged, fault),), state = self._both(script, _kernel_space)
        t = DEFAULT_PARAMS.cpu
        assert charged == 4 * (t.l1_hit + t.l2_hit + t.dram)   # cold lines
        assert fault[:2] == (HOLE_VA + 0x1000, "translation fault (L2)")
        assert fault[3] > 0
        assert state["tlb"][0] == {"hits": 4, "misses": 2, "flushes": 0}

    def test_record_walks_engage(self, data_run_spy):
        """Non-vacuity (``data_run_spy``): the vIRQ record scans, the mask
        walk, the scheduler's PD walk, the PL-IRQ routing records and
        uC/OS-II's TCB walk reach the loop, more than ten times each, with
        over a thousand records in all, and the loop calls ``touch`` for
        none of them.  No walker
        loads a record on its own, except ``_inject_virq``'s one load of
        the guest's IRQ entry address."""
        counts, prrs = data_run_spy
        inject, mask, switch, route, tick = (counts[name] for name in (
            "_inject_virq", "_gic_mask_set", "_vm_switch", "_route_pl_irq",
            "_on_tick"))
        walkers = (inject, mask, switch, route, tick)
        assert all(c["runs"] - c["word_runs"] > 10 for c in walkers), counts
        assert sum(c["addrs"] - c["words"] for c in walkers) > 1_000, counts
        assert not any(c["dram_touches"] for c in walkers), counts
        assert not any(c["word_runs"] for c in (inject, mask, route, tick))
        # One load outside the scan per injection: the IRQ entry address.
        assert inject["loads"] == inject["runs"]
        assert not (mask["loads"] or switch["loads"] or route["loads"]
                    or tick["loads"]), counts
        assert inject["addrs"] == 8 * inject["runs"]
        assert mask["addrs"] == 6 * mask["runs"] == 6 * mask["calls"]
        # One PD walk per switch, three records per runnable PD.
        assert switch["runs"] - switch["word_runs"] == switch["calls"]
        assert (switch["addrs"] - switch["words"]) % 3 == 0
        assert route["addrs"] == prrs * route["runs"]
        assert tick["runs"] == tick["calls"]


# The bulk address space: 4 KB pages whose frames lie 64 KB apart, so
# the same line of every page falls in one L1D set and one L2 set.  The
# first four RW pages and RO share TLB set 0 (a 2-way set).
RW = (0x4000_0000, 0x4004_0000, 0x4008_0000, 0x400C_0000,
      0x4000_1000, 0x4000_2000)
RO = 0x4010_0000                  # user read-only
PRIV = 0x4000_3000                # privileged only
GLOBAL = 0x4000_4000              # a global (nG = 0) mapping
DEV = 0x4000_6000                 # a device page: a window over lines 4-5
HOLE_L2 = 0x4000_5000             # unmapped, in a mapped megabyte
HOLE_L1 = 0x5000_0000             # unmapped megabyte
MAPPED = RW + (RO, PRIV, GLOBAL, DEV)
BULK_PAGES = MAPPED + (HOLE_L2, HOLE_L1)
FRAME_BASE = 0x0400_0000
DEV_FRAME = 0xE000_0000

#: Cache geometries for the data-run loop: the default, whose L1D and L2
#: lines are both 32 B, and one with 64 B L2 lines, on which an L2 tag
#: differs from the L1D tag it is taken from.
GEOMETRIES = {"l2_32": DEFAULT_PARAMS,
              "l2_64": DEFAULT_PARAMS.with_(l2=replace(DEFAULT_PARAMS.l2,
                                                       line=64))}


def _bulk_space(params):
    """A memory system on ``params`` with the MMU on over the bulk pages,
    at ASID 1.  ``DEV`` maps a frame outside DRAM on which an MMIO window
    covers lines 4 and 5."""
    mem = MemorySystem(params, MetricsRegistry())
    mem.bus.map_device(DEV_FRAME + 0x80, 0x40, None, "dev")
    pt = PageTable(mem.bus, mem.kernel_frames)
    aps = {RO: AP.PRIV_RW_USER_RO, PRIV: AP.PRIV_ONLY}
    for k, va in enumerate(MAPPED):
        pt.map_page(va, DEV_FRAME if va == DEV else FRAME_BASE + k * 0x1_0000,
                    ap=aps.get(va, AP.FULL), domain=0, ng=va != GLOBAL)
    mmu = mem.mmu
    mmu.set_ttbr(pt.l1_base)
    mmu.set_dacr(dacr_set(0, 0, DomainType.CLIENT))
    mmu.set_asid(1)
    mmu.enabled = True
    return mem


# One access per line of RW[4], far from every other page's TLB set: it
# makes a block longer than the TLB has sets without touching the sets
# under test.
PAD = [RW[4] + 0x20 * i for i in range(80)]


class TestSampleBlockEquivalence(DataRuns):
    """Guest sample blocks: ``sample_block``, user mode unless stated, on
    the bulk space, for blocks shorter and longer than the TLB has sets."""

    @classmethod
    def _blocks(cls, blocks, prepare=None):
        """Run each ``(vaddrs, writes, privileged)`` block through
        ``sample_block`` on both sides, after ``prepare(mem)``."""
        def script(mem, run):
            if prepare is not None:
                prepare(mem)
            for vaddrs, writes, priv in blocks:
                run(vaddrs, writes, priv, scale=64)
        return cls._both(script, _bulk_space)

    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_insert_displaces_a_front_entry_used_again(self, pad):
        """RW[1] is the front of TLB set 0 when the block starts.  The
        walk for RW[2] evicts RW[0] and moves RW[1] behind RW[2], so the
        later accesses to RW[1] and RW[0] must be an LRU-moving hit and
        a miss, not free hits."""
        warm = ([RW[0], RW[1]], [False, False], False)
        block = [RW[1], RW[2], RW[1] + 8, RW[2] + 4, RW[0], RW[1]]
        _, state = self._blocks(
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
        _, state = self._blocks([warm, (block, [True] * len(block), False)])
        assert [e.vpn for e in state["tlb"][2][0]] == [RW[1] >> 12,
                                                      RW[0] >> 12]

    @pytest.mark.parametrize("hole, reason", [
        (HOLE_L2, "translation fault (L2)"),
        (HOLE_L1, "translation fault (L1)")], ids=["l2", "l1"])
    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_translation_fault_mid_block(self, pad, hole, reason):
        """Accesses before the hole are booked; the hole counts as a
        TLB miss and reaches no cache; nothing after it runs, and the
        block charges nothing."""
        block = pad + [RW[0], RW[1] + 0x40, hole + 8, RW[2]]
        ((charged, fault),), state = self._blocks(
            [(block, [True] * len(block), False)])
        assert charged == 0
        assert fault[:2] == (hole + 8, reason)
        assert fault[3] > 0                       # the walk's cycles
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
        log, _ = self._blocks([ro_write, priv_read])
        assert log[0] == (0, (RO + 8, "permission fault (user read-only)",
                              True, 0))
        assert log[1][1][:3] == (PRIV, "permission fault (privileged only)",
                                 False)
        assert log[1][1][3] > 0
        # Privileged, both pages are fine.
        log, _ = self._blocks([(ro_write[0], ro_write[1], True),
                               (priv_read[0], priv_read[1], True)])
        assert all(fault is None for _, fault in log)

    def test_dirty_victims_into_a_full_l2_set_with_a_dirty_lru_line(self):
        """A write miss evicts a dirty L1D line, whose fill lands in a full
        L2 set with a dirty least-recently-used line and writes it back;
        the block's own L2 lookups then miss in that set and evict dirty
        lines too.  With a free way in that set, the fill takes it."""
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
        _, state = self._blocks([(block, [True, True], True)], prepare)
        l1, l2 = state["l1d"][0], state["l2"][0]
        assert (l1["misses"], l1["evictions"], l1["writebacks"]) == (2, 2, 1)
        # Two L2 misses are the walks' beforehand.
        assert (l2["misses"], l2["writebacks"]) == (2 + 2, 3)
        assert state["l2"][2][1][:4] == [frame[5] >> 5, frame[4] >> 5,
                                         frame[0] >> 5, frame[16] >> 5]

        def prepare_free(mem):
            prepare(mem)
            mem.caches.l2.invalidate_line(frame[16])
        _, state = self._blocks([(block, [True, True], True)], prepare_free)
        l2 = state["l2"][0]
        assert (l2["misses"], l2["writebacks"]) == (2 + 2, 2)

    @pytest.mark.parametrize("pad", [[], PAD], ids=["short", "long"])
    def test_device_page(self, pad):
        """The device page's entry is the front of its TLB set when the
        block starts.  Its window's words cost a bus round-trip each and
        its other lines a cache access, and it never enters the block's
        page map, even filled from the TLB's fronts."""
        warm = ([DEV + 0x20], [False], False)
        block = pad + [DEV + 0x80, DEV + 0x20, DEV + 0xA4, DEV + 0xC0]
        only_device = ([DEV + 0x80, DEV + 0xA4], [False, True], True)
        log, state = self._blocks(
            [warm, (block, [True] * len(block), False), only_device])
        assert log[2] == (64 * 2 * (DEFAULT_PARAMS.cpu.dram // 2), None)
        assert state["l1d"][0]["misses"] == len(pad) + 2

    def test_mmu_off(self):
        def prepare(mem):
            mem.mmu.enabled = False
        block = [FRAME_BASE + 0x40 * i for i in range(100)] * 2
        _, state = self._blocks(
            [(block, [i % 3 == 0 for i in range(200)], False)], prepare)
        assert state["l1d"][0]["hits"] and not state["tlb"][0]["hits"]

    def test_one_address_and_empty_blocks(self):
        log, state = self._blocks([([], [], False), ([RW[0]], [True], False),
                                   ([RW[0] + 4], [False], False),
                                   ([], [], True)])
        assert log[0] == log[3] == (0, None)
        assert state["tlb"][0] == {"hits": 1, "misses": 1, "flushes": 0}

    @pytest.mark.parametrize("params", GEOMETRIES.values(),
                             ids=GEOMETRIES.keys())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from([64, None]), st.booleans(), st.booleans(),
                  st.lists(st.tuples(st.sampled_from(BULK_PAGES),
                                     st.integers(0, 7), st.integers(0, 7),
                                     st.booleans()), max_size=30)),
        st.tuples(st.just("asid"), st.integers(1, 3)),
        st.tuples(st.just("mmu"), st.booleans())), min_size=1, max_size=12))
    def test_random_blocks_on_a_warm_system(self, params, steps):
        """Random sample blocks and kernel-style runs, privileged and
        user, with loads and stores mixed on a page, over holes, the
        read-only, privileged-only, global and device pages (a long one
        repeats its accesses past the TLB's set count), between ASID
        switches and MMU toggles, on a system warmed by a block over every
        mapped line, on each geometry; compared after every step."""
        warm = [va + 32 * i for va in MAPPED for i in range(8)]
        sides = []
        for fast in (True, False):
            mem = _bulk_space(params)
            mem.fastpath = fast
            log = []
            run = _data_runs(mem, fast, log)
            run(warm, [True] * len(warm), True, scale=64)
            sides.append((mem, log, run))
        for step in steps:
            for mem, _, run in sides:
                if step[0] == "asid":
                    mem.mmu.set_asid(step[1])
                elif step[0] == "mmu":
                    mem.mmu.enabled = step[1]
                else:
                    scale, priv, long, accesses = step
                    if long and accesses:
                        accesses = accesses * (len(PAD) // len(accesses) + 1)
                    run([va + 32 * ln + 4 * wd for va, ln, wd, _ in accesses],
                        [w for *_, w in accesses], priv, scale)
            (mem0, log0, _), (mem1, log1, _) = sides
            assert log0 == log1
            assert _mem_state(mem0) == _mem_state(mem1)

    def test_sample_blocks_engage(self, data_run_spy):
        """Non-vacuity (``data_run_spy``): the idle task's one-word sample
        blocks reach the loop more than ten times, and the loop calls
        ``touch`` for none of their accesses."""
        counts, _ = data_run_spy
        word = counts["word"]
        assert word["runs"] > 10, counts
        assert word["addrs"] == word["runs"]
        assert not word["dram_touches"], counts


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

    def test_hit_returns_the_entry_it_built(self, walked):
        _, _, mmu = walked
        first, _ = mmu._walk(0x8000_0000, fetch=False, write=False)
        again, _ = mmu._walk(0x8000_0000, fetch=False, write=False)
        assert again is first and first.asid == mmu.asid

    @pytest.mark.parametrize("ng", [True, False], ids=["asid", "global"])
    def test_hit_after_an_asid_change_carries_the_new_asid(self, walked,
                                                           ng):
        """Under the same TTBR, a memo hit after an ASID change returns
        an entry tagged with the new ASID, global or not, and the memo
        keeps that one."""
        _, pt, mmu = walked
        va = 0x8000_1000
        pt.map_page(va, 0x0021_0000, ap=AP.FULL, domain=0, ng=ng)
        mmu.translate(va, privileged=True, write=False)     # memoized
        for asid in (5, 0, 5):
            mmu.set_asid(asid)
            mmu.tlb.flush_all()
            hits = mmu.walk_memo_hits
            mmu.translate(va, privileged=True, write=False)
            assert mmu.walk_memo_hits == hits + 1
            front = mmu.tlb._sets[(va >> 12) % mmu.tlb._nsets][0]
            assert (front.vpn, front.asid, front.global_) == (
                va >> 12, asid, not ng)
            assert mmu._walk_memo[(mmu.ttbr, va >> 12)][2] is front

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
