"""CPU core: modes, exceptions, timed helpers."""

import pytest

from repro.common.errors import SimulationError, UndefinedInstruction
from repro.cpu.modes import Mode
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable


@pytest.fixture
def booted(cpu, memsys):
    """CPU with MMU on over an identity kernel mapping."""
    pt = PageTable(memsys.bus, memsys.kernel_frames)
    pt.map_section(0x0010_0000, 0x0010_0000, ap=AP.PRIV_ONLY, domain=0, ng=False)
    pt.map_section(0x0020_0000, 0x0020_0000, ap=AP.FULL, domain=1)
    cpu.sysregs.write("TTBR0", pt.l1_base, privileged=True)
    cpu.sysregs.write("DACR",
                      dacr_set(dacr_set(0, 0, DomainType.CLIENT), 1,
                               DomainType.CLIENT), privileged=True)
    cpu.sysregs.write("SCTLR", 1, privileged=True)
    cpu.vbar = 0x0010_0000
    return cpu


def test_starts_in_svc(cpu):
    assert cpu.mode is Mode.SVC and cpu.privileged


def test_instr_charges_time(cpu, sim):
    cpu.instr(1000)
    assert sim.now == 750       # CPI 0.75


def test_code_charges_fetch_plus_issue(booted, sim):
    t0 = sim.now
    booted.code(0x0010_0000, 16)    # 2 I-lines, cold
    cold = sim.now - t0
    t0 = sim.now
    booted.code(0x0010_0000, 16)    # warm
    warm = sim.now - t0
    assert cold > warm >= 12        # 12 = issue cycles for 16 instr


def test_load_store_advance_clock(booted, sim):
    t0 = sim.now
    booted.load(0x0020_0000)
    booted.store(0x0020_0040)
    assert sim.now > t0


def test_read_write32_functional(booted):
    booted.write32(0x0020_0100, 0xCAFEBABE)
    assert booted.read32(0x0020_0100) == 0xCAFEBABE


def test_exception_entry_and_return(booted, sim):
    booted.set_mode(Mode.USR)
    booted.irq_masked = False
    t0 = sim.now
    booted.take_exception("svc")
    assert booted.mode is Mode.SVC
    assert booted.irq_masked
    assert booted.exception_depth == 1
    booted.return_from_exception()
    assert booted.mode is Mode.USR
    assert not booted.irq_masked
    assert sim.now > t0


def test_nested_exceptions(booted):
    booted.set_mode(Mode.USR)
    booted.take_exception("svc")
    booted.take_exception("irq")
    assert booted.mode is Mode.IRQ and booted.exception_depth == 2
    booted.return_from_exception()
    assert booted.mode is Mode.SVC
    booted.return_from_exception()
    assert booted.mode is Mode.USR


def test_return_with_empty_stack_raises(cpu):
    with pytest.raises(SimulationError):
        cpu.return_from_exception()


def test_unknown_exception_kind(cpu):
    with pytest.raises(SimulationError):
        cpu.take_exception("nmi")


def test_irq_pending_respects_mask(cpu):
    cpu.irq_line = True
    cpu.irq_masked = True
    assert not cpu.irq_pending()
    cpu.irq_masked = False
    assert cpu.irq_pending()
    cpu.irq_line = False
    assert not cpu.irq_pending()


def test_user_mode_not_privileged(cpu):
    cpu.set_mode(Mode.USR)
    assert not cpu.privileged
    for m in (Mode.SVC, Mode.IRQ, Mode.FIQ, Mode.UND, Mode.ABT, Mode.SYS):
        cpu.set_mode(m)
        assert cpu.privileged


def test_stream_range_does_not_pollute_caches(booted, memsys):
    before = memsys.caches.l1d.stats.accesses
    booted.stream_range(0x0020_0000, 4096, write=True)
    assert memsys.caches.l1d.stats.accesses == before


def test_sequential_prefetch_caps_line_cost(booted, sim):
    # A long cold block should cost far less than lines x DRAM latency.
    t0 = sim.now
    booted.code(0x0010_2000, 800)    # 100 lines, all cold
    cost = sim.now - t0
    lines = 100
    full_miss = booted.timing.l1_hit + booted.timing.l2_hit + booted.timing.dram
    assert cost < lines * full_miss * 0.5
