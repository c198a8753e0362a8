"""Fast-path equivalence: fastpath on/off must be cycle-for-cycle identical.

docs/PERFORMANCE.md §5 is the contract these tests pin: the fused bulk
loop, the fused touch path, the fetch run and the walk memo are pure
reformulations of the cost model.  Every simulated-cycle quantity —
the clock, stats, accounting, fault-schedule results, bench series — must
not move when ``PlatformParams.fastpath`` is flipped.  Plus unit tests for the
walk-memo invalidation rules (TTBR/DACR writes, DRAM write epochs).
"""

from __future__ import annotations

import pytest

import repro.machine as machine_mod
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
        "irqs": k.irq_count,
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
    """The fused idle spin (docs/PERFORMANCE.md §2) against the reference
    loop that ``fastpath=False`` runs, where the spin does its work."""

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
                "irqs": sc.system.irq_count,
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
        never fuses a chunk.  A spy (not a product counter) counts idle
        chunks that ran fused, i.e. inside ``spin`` without reaching
        ``sample_block``, against every idle chunk run."""
        from repro.eval.scenarios import build_virtualized
        from repro.guest.exec import GuestExecutor
        from repro.guest.ucos import IDLE_CHUNK

        idle = (IDLE_CHUNK.instrs, IDLE_CHUNK.mem_accesses,
                IDLE_CHUNK.regions, IDLE_CHUNK.write_frac)
        counts = {"fused": 0, "general": 0}
        inside = []
        spin, bulk = GuestExecutor.spin, GuestExecutor.bulk
        sample_block = MemorySystem.sample_block

        def spy_spin(self, *args):
            assert args[:4] == idle
            inside.append(True)
            try:
                n = spin(self, *args)
            finally:
                inside.pop()
            counts["fused"] += n
            return n

        def spy_bulk(self, *args):
            if not inside and args == idle:
                counts["general"] += 1
            return bulk(self, *args)

        def spy_sample_block(self, *args, **kw):
            if inside:             # a chunk the spin handed back
                counts["fused"] -= 1
                counts["general"] += 1
            return sample_block(self, *args, **kw)

        monkeypatch.setattr(GuestExecutor, "spin", spy_spin)
        monkeypatch.setattr(GuestExecutor, "bulk", spy_bulk)
        monkeypatch.setattr(MemorySystem, "sample_block", spy_sample_block)
        sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                               tick_hz=1000)
        sc.run_ms(60.0)
        total = counts["fused"] + counts["general"]
        assert total > 1000
        assert counts["fused"] >= 0.9 * total, counts


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
                  [set(d) for d in level._dirty])
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

    def test_ttbr_write_invalidates(self, walked, metrics):
        _, _, mmu = walked

        def invalidations():
            return metrics.total("sim.fastpath.walk_cache_invalidations")

        before = invalidations()
        mmu.set_ttbr(mmu.ttbr)
        assert invalidations() == before + 1
        assert not mmu._walk_memo

    def test_dacr_write_invalidates(self, walked):
        _, _, mmu = walked
        mmu.set_dacr(mmu.dacr)
        assert not mmu._walk_memo
        assert self._rewalk(mmu) == 0     # re-walked, not served from memo

    def test_dram_write_epoch_invalidates(self, walked):
        memsys, pt, mmu = walked
        # Any functional DRAM write (here: unmapping the page) bumps the
        # epoch; the next timed walk must re-read the descriptors and
        # fault instead of replaying the stale memoized translation.
        pt.unmap_page(0x8000_0000)
        from repro.common.errors import DataAbort

        mmu.tlb.flush_all()
        with pytest.raises(DataAbort):
            mmu.translate(0x8000_0000, privileged=True, write=False)

    def test_explicit_invalidate(self, walked):
        _, _, mmu = walked
        mmu.invalidate_walk_memo()
        assert not mmu._walk_memo and mmu._memo_epoch == -1

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
