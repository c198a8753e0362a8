"""Fast-path equivalence: fastpath on/off must be cycle-for-cycle identical.

docs/PERFORMANCE.md §5 is the contract these tests pin: the fused bulk
loop, the fused touch path and the walk memo are pure reformulations of
the cost model.  Every simulated-cycle quantity — ledgers, stats,
accounting, fault-schedule results, bench series — must not move
when ``PlatformParams.fastpath`` is flipped.  Plus unit tests for the
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
        "ledger": dict(sc.machine.cpu.cycle_ledger),
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
                "ledger": dict(sc.machine.cpu.cycle_ledger),
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

    def test_ttbr_write_invalidates(self, walked):
        _, _, mmu = walked
        before = mmu.walk_memo_invalidations
        mmu.set_ttbr(mmu.ttbr)
        assert mmu.walk_memo_invalidations == before + 1
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
        memsys = MemorySystem(SLOW_PARAMS)
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
