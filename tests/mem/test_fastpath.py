"""Fast-path equivalence: fastpath on/off must be cycle-for-cycle identical.

docs/PERFORMANCE.md §5 is the contract these tests pin: the fused bulk
loop, the fused touch path, the fetch run and its plans, word runs, page
runs, the closed-form idle spin and the walk memo are pure reformulations
of the cost model.  Every simulated-cycle quantity —
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


def _trace_state(cpu):
    """Everything a code block or a word run can change: the clock, the
    TLB, L1I, L1D and L2 stats, tags, occupancy and dirty lines, the DRAM
    access count and the walk count."""
    mem = cpu.mem
    caches, tlb = mem.caches, mem.mmu.tlb
    return {
        "now": cpu.sim.now,
        "tlb": (vars(tlb.stats.snapshot()), tlb._resident,
                [list(s) for s in tlb._sets]),
        **{name: (vars(level.stats.snapshot()), level._resident,
                  [list(t) for t in level._tags],
                  set(level._dirty))
           for name, level in (("l1i", caches.l1i), ("l1d", caches.l1d),
                               ("l2", caches.l2))},
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
            out.append(_trace_state(cpu))
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


def _mover(cpu, runs):
    """``move(va, n, write)``: one word run, or ``n`` calls of ``load``
    or ``store``, the reference."""
    def move(va, n, write):
        if runs:
            (cpu.store_words if write else cpu.load_words)(va, n)
        else:
            one = cpu.store if write else cpu.load
            for w in range(n):
                one(va + 4 * w)
    return move


class TestWordRunEquivalence:
    """``Cpu.load_words``/``store_words`` (``MemorySystem.touch_words``,
    docs/PERFORMANCE.md §2) against one ``load`` or ``store`` per word."""

    @staticmethod
    def _both(script, params=DEFAULT_PARAMS):
        """Run ``script(cpu, move)`` with word runs and with single words;
        assert equal final states and return one."""
        out = []
        for runs in (True, False):
            cpu = _kernel_space_cpu(params)
            script(cpu, _mover(cpu, runs))
            out.append(_trace_state(cpu))
        assert out[0] == out[1]
        return out[0]

    @pytest.mark.parametrize("write", [False, True], ids=["load", "store"])
    @pytest.mark.parametrize("offset", [0, 4, 28])
    def test_runs_identical(self, offset, write):
        """Runs of 1, 7, 8, 9, 27 and 66 words from a line offset, cold
        (the first word of a page misses the TLB) and warm; a run across
        a page boundary; a run of the other kind over the same words;
        and runs 8 KB apart that evict each other's L1D lines."""
        from repro.kernel import layout as L

        base = L.KERNEL_LINEAR_BASE + 0x40_0000 + offset

        def script(cpu, move):
            for k, n in enumerate((1, 7, 8, 9, 27, 66)):
                va = base + k * 0x400
                move(va, n, write)
                move(va, n, write)
            move(base + 0x3000 - 64, 27, write)
            move(base + 0x1400, 66, not write)
            for k in range(6):
                move(base + 0x8000 + k * 8192, 9, write)

        state = self._both(script)
        assert state["tlb"][0]["misses"] >= 4
        assert state["l1d"][0]["evictions"]
        if write:
            assert state["l1d"][3]

    @pytest.mark.parametrize("va", [0xF8F0_0100, 0xF8F0_21F0],
                             ids=["gic", "into_timer_window"])
    def test_device_pages_identical(self, va):
        """The GIC's page, and a run into the timer window that starts
        mid-page: every word takes ``touch``."""
        def script(cpu, move):
            for write in (False, True, False):
                move(va, 27, write)

        self._both(script)

    @pytest.mark.parametrize("params, mmu", [(SLOW_PARAMS, True),
                                             (DEFAULT_PARAMS, False),
                                             (SLOW_PARAMS, False)],
                             ids=["fastpath_off", "mmu_off", "both_off"])
    def test_reference_loop_cases_identical(self, params, mmu):
        from repro.kernel import layout as L

        def script(cpu, move):
            cpu.sysregs.write("SCTLR", int(mmu), privileged=True)
            va = (L.KERNEL_LINEAR_BASE if mmu else L.KERNEL_BASE) + 0x40_0004
            for write in (False, True, False):
                move(va, 27, write)
                move(va + 0x1000 - 40, 66, write)

        state = self._both(script, params)
        assert state["l1d"][0]["hits"]

    def test_fault_on_a_later_line(self):
        """The run's third line is on an unmapped page: the words on the
        first two lines are charged and booked, the faulting word is not,
        and the abort carries the walk's cycles."""
        faults = []

        def script(cpu, move):
            cpu.load(HOLE_VA + 0x800)               # the page's walk
            t0 = cpu.sim.now
            with pytest.raises(DataAbort) as info:
                move(HOLE_VA + 0xFDC, 12, True)
            faults.append((cpu.sim.now - t0, info.value.vaddr,
                           info.value.reason, info.value.cycles))

        state = self._both(script)
        assert faults[0] == faults[1]
        t = DEFAULT_PARAMS.cpu
        # Two cold lines (L1D and L2 misses), then seven L1D hits.
        assert faults[0][:3] == (2 * (t.l1_hit + t.l2_hit + t.dram)
                                 + 7 * t.l1_hit, HOLE_VA + 0x1000,
                                 "translation fault (L2)")
        assert faults[0][3] > 0
        assert state["tlb"][0] == {"hits": 9, "misses": 2, "flushes": 0}

    def test_word_runs_engage(self, monkeypatch):
        """Non-vacuity, in the 4-guest run of the fetch spy: a spy counts
        the context words that ``_vm_switch`` moves as word runs and the
        ``touch`` calls those runs make.  Only each line's first word may
        go through ``touch`` (so at most 7 in 8 words are booked in one
        step, at 8 words a line); every other word must be."""
        from repro.eval.scenarios import build_virtualized
        from repro.kernel.core import MiniNova

        counts = {"words": 0, "lines": 0, "touched": 0}
        in_switch, in_run = [], []
        vm_switch = MiniNova._vm_switch
        touch_words, touch = MemorySystem.touch_words, MemorySystem.touch
        last = DEFAULT_PARAMS.l1d.line.bit_length() - 1

        def spy_switch(self, *args, **kw):
            in_switch.append(True)
            try:
                return vm_switch(self, *args, **kw)
            finally:
                in_switch.pop()

        def spy_touch_words(self, vaddr, n, **kw):
            if in_switch:
                counts["words"] += n
                counts["lines"] += ((vaddr + 4 * n - 1) >> last) \
                    - (vaddr >> last) + 1
            in_run.append(True)
            try:
                return touch_words(self, vaddr, n, **kw)
            finally:
                in_run.pop()

        def spy_touch(self, *args, **kw):
            if in_switch and in_run:
                counts["touched"] += 1
            return touch(self, *args, **kw)

        monkeypatch.setattr(MiniNova, "_vm_switch", spy_switch)
        monkeypatch.setattr(MemorySystem, "touch_words", spy_touch_words)
        monkeypatch.setattr(MemorySystem, "touch", spy_touch)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
        assert counts["words"] > 1_000
        assert counts["touched"] == counts["lines"], counts
        assert counts["words"] - counts["touched"] >= 0.8 * counts["words"]


def _page_runner(cpu, runs, after):
    """``run(vas, write)``: one page run (``Cpu.load_run``, or
    ``MemorySystem.touch_run`` for stores), or one ``load`` or ``store``
    per address, the reference.  Appends the cycles each run charged and
    the state it left to ``after``, also when it raises."""
    def run(vas, write):
        t0 = cpu.sim.now
        try:
            if not runs:
                one = cpu.store if write else cpu.load
                for va in vas:
                    one(va)
            elif write:
                cpu.mem.touch_run(vas, write=True, privileged=cpu.privileged,
                                  charge=cpu._charge)
            else:
                cpu.load_run(vas)
        finally:
            after.append((cpu.sim.now - t0, _trace_state(cpu)))
    return run


class TestPageRunEquivalence:
    """``Cpu.load_run`` (``MemorySystem.touch_run``, docs/PERFORMANCE.md
    §2) against one ``load`` or ``store`` per address."""

    @staticmethod
    def _both(script, params=DEFAULT_PARAMS):
        """Run ``script(cpu, run)`` with page runs and with single
        accesses; assert that every run charged the same cycles and left
        the same state, and so did the script, and return the final state
        and the cycles of each run."""
        out = []
        for runs in (True, False):
            cpu = _kernel_space_cpu(params)
            after = []
            script(cpu, _page_runner(cpu, runs, after))
            out.append((_trace_state(cpu), after))
        assert out[0] == out[1]
        return out[0][0], [cycles for cycles, _ in out[0][1]]

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

        def script(cpu, run):
            for k, n in enumerate((1, 6, 24)):
                vas = [page + k * 0x4000 + 0x40 + i * stride
                       for i in range(n)]
                run(vas, write)
                run(vas, write)
            crossing = [page + 0x1_0000 - 5 * stride + i * stride
                        for i in range(10)]
            run(crossing, write)
            # Pages a and b share a TLB set: coming back to a page finds
            # its entry behind the front.
            a, b = page + 0x1_20A0, page + 0x5_20A0
            run([a, a, a + 4, a, a + 32, a + 4, b, a + 36, b + 4, a], write)
            run(crossing, not write)
            for k in range(6):
                run([page + 0x2_0000 + k * 8192 + i * stride
                     for i in range(4)], write)

        state, charged = self._both(script)
        assert state["tlb"][0]["misses"] >= 4
        assert state["l1d"][0]["evictions"] and all(charged)
        if write:
            assert state["l1d"][3]

    @pytest.mark.parametrize("va", [0xF8F0_0100, 0xF8F0_21F0],
                             ids=["gic", "into_timer_window"])
    def test_device_pages_identical(self, va):
        """The GIC's page, a run into the timer window that starts
        mid-page, and a run that moves between a device page and a DRAM
        page: every device-page access takes ``touch``."""
        from repro.kernel import layout as L

        lin = L.KERNEL_LINEAR_BASE + 0x40_0000

        def script(cpu, run):
            for write in (False, True, False):
                run([va + 4 * i for i in range(27)], write)
                run([lin, lin + 32, va, va + 4, lin + 64, va + 8, va + 12],
                    write)

        self._both(script)

    @pytest.mark.parametrize("params, mmu", [(SLOW_PARAMS, True),
                                             (DEFAULT_PARAMS, False),
                                             (SLOW_PARAMS, False)],
                             ids=["fastpath_off", "mmu_off", "both_off"])
    def test_reference_loop_cases_identical(self, params, mmu):
        from repro.kernel import layout as L

        def script(cpu, run):
            cpu.sysregs.write("SCTLR", int(mmu), privileged=True)
            va = (L.KERNEL_LINEAR_BASE if mmu else L.KERNEL_BASE) + 0x40_0004
            for write in (False, True, False):
                run([va + 32 * i for i in range(12)], write)
                run([va + 0x1000 - 40 + 16 * i for i in range(8)], write)

        state, _ = self._both(script, params)
        assert state["l1d"][0]["hits"]

    def test_fault_on_a_later_page(self):
        """The run's fifth address is on an unmapped page: the four
        before it are charged and booked, the faulting one is not, and
        the abort carries the walk's cycles."""
        faults = []

        def script(cpu, run):
            cpu.load(HOLE_VA + 0x800)               # the page's walk
            with pytest.raises(DataAbort) as info:
                run([HOLE_VA + 0xF00 + 0x40 * i for i in range(6)], True)
            faults.append((info.value.vaddr, info.value.reason,
                           info.value.cycles))

        state, charged = self._both(script)
        assert faults[0] == faults[1]
        assert faults[0][:2] == (HOLE_VA + 0x1000, "translation fault (L2)")
        assert faults[0][2] > 0
        t = DEFAULT_PARAMS.cpu
        assert charged == [4 * (t.l1_hit + t.l2_hit + t.dram)]  # cold lines
        assert state["tlb"][0] == {"hits": 4, "misses": 2, "flushes": 0}

    def test_record_walks_engage(self, monkeypatch):
        """Non-vacuity, in the 4-guest run of the fetch spy: a spy counts,
        per walker, the record loads made one ``Cpu.load`` at a time and
        the page runs with their addresses, page changes and ``touch``
        calls.  The vIRQ record scans, the scheduler's PD walk, the PL-IRQ
        routing records and uC/OS-II's TCB walk go through page runs, and
        each run makes one ``touch`` per page change and books every other
        address in one step."""
        from collections import Counter

        from repro.cpu.core import Cpu
        from repro.eval.scenarios import build_virtualized
        from repro.guest.ucos import Ucos
        from repro.kernel.core import MiniNova

        walkers = ((MiniNova, "_inject_virq"), (MiniNova, "_gic_mask_set"),
                   (MiniNova, "_vm_switch"), (MiniNova, "_route_pl_irq"),
                   (Ucos, "_on_tick"))
        counts = {name: Counter() for _, name in walkers}
        inside, in_run = [], []

        def spy_walker(fn, name):
            def spy(*args, **kw):
                counts[name]["calls"] += 1
                inside.append(name)
                try:
                    return fn(*args, **kw)
                finally:
                    inside.pop()
            return spy

        load, touch_run, touch = Cpu.load, MemorySystem.touch_run, \
            MemorySystem.touch

        def spy_load(self, va):
            if inside:
                counts[inside[-1]]["loads"] += 1
            return load(self, va)

        def spy_touch_run(self, vaddrs, **kw):
            vaddrs = list(vaddrs)
            c = counts[inside[-1]]
            c["runs"] += 1
            c["addrs"] += len(vaddrs)
            c["pages"] += sum(1 for i, va in enumerate(vaddrs)
                              if i == 0 or va >> 12 != vaddrs[i - 1] >> 12)
            in_run.append(True)
            try:
                return touch_run(self, vaddrs, **kw)
            finally:
                in_run.pop()

        def spy_touch(self, *args, **kw):
            if in_run:
                counts[inside[-1]]["touched"] += 1
            return touch(self, *args, **kw)

        for cls, name in walkers:
            monkeypatch.setattr(cls, name, spy_walker(getattr(cls, name),
                                                      name))
        monkeypatch.setattr(Cpu, "load", spy_load)
        monkeypatch.setattr(MemorySystem, "touch_run", spy_touch_run)
        monkeypatch.setattr(MemorySystem, "touch", spy_touch)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
        prrs = len(sc.machine.prrs)
        inject, mask, switch, route, tick = (counts[n] for _, n in walkers)
        assert all(c["runs"] > 10 for c in counts.values()), counts
        # One load outside the scan per injection: the IRQ entry address.
        assert inject["loads"] == inject["runs"]
        assert not (mask["loads"] or switch["loads"] or route["loads"]
                    or tick["loads"]), counts
        assert inject["addrs"] == 8 * inject["runs"]
        assert mask["addrs"] == 6 * mask["runs"] == 6 * mask["calls"]
        assert switch["runs"] == switch["calls"]
        assert switch["addrs"] == 3 * switch["pages"]
        assert route["addrs"] == prrs * route["runs"]
        assert tick["runs"] == tick["calls"]
        for c in counts.values():
            assert c["touched"] == c["pages"], counts
        addrs = sum(c["addrs"] for c in counts.values())
        touched = sum(c["touched"] for c in counts.values())
        assert addrs > 1_000 and addrs - touched >= 0.6 * addrs, counts


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
