"""Banked registers, CP15 privilege gate, VFP lazy-switch unit."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import UndefinedInstruction
from repro.cpu.modes import Mode
from repro.cpu.registers import RegisterFile
from repro.cpu.vfp import VFP_CONTEXT_WORDS, Vfp


def test_low_registers_shared_across_modes():
    r = RegisterFile()
    r.mode = Mode.SVC
    r.set(3, 42)
    r.mode = Mode.IRQ
    assert r.get(3) == 42


def test_sp_banked_per_mode():
    r = RegisterFile()
    r.mode = Mode.SVC
    r.set(13, 0x1000)
    r.mode = Mode.IRQ
    r.set(13, 0x2000)
    r.mode = Mode.USR
    r.set(13, 0x3000)
    r.mode = Mode.SVC
    assert r.get(13) == 0x1000
    r.mode = Mode.IRQ
    assert r.get(13) == 0x2000
    r.mode = Mode.USR
    assert r.get(13) == 0x3000


def test_fiq_banks_r8_r12():
    r = RegisterFile()
    r.mode = Mode.USR
    r.set(8, 0xAA)
    r.mode = Mode.FIQ
    r.set(8, 0xBB)
    assert r.get(8) == 0xBB
    r.mode = Mode.USR
    assert r.get(8) == 0xAA


def test_sys_shares_usr_sp():
    r = RegisterFile()
    r.mode = Mode.USR
    r.set(13, 0x123)
    r.mode = Mode.SYS
    assert r.get(13) == 0x123


def test_spsr_per_mode():
    r = RegisterFile()
    r.set_spsr(0x10, Mode.SVC)
    r.set_spsr(0x1F, Mode.IRQ)
    r.mode = Mode.SVC
    assert r.spsr() == 0x10
    r.mode = Mode.IRQ
    assert r.spsr() == 0x1F
    with pytest.raises(KeyError):
        r.mode = Mode.USR
        r.spsr()


def test_values_truncated_to_32bit():
    r = RegisterFile()
    r.set(0, 0x1_FFFF_FFFF)
    assert r.get(0) == 0xFFFF_FFFF


def test_snapshot_restore_user_context():
    r = RegisterFile()
    r.mode = Mode.USR
    for i in range(13):
        r.set(i, i * 10)
    r.set(13, 0x5000)
    r.set(14, 0x6000)
    r.pc = 0x8000
    r.cpsr = 0x10
    snap = r.snapshot_user()
    for i in range(13):
        r.set(i, 0)
    r.pc = 0
    r.restore_user(snap)
    assert r.get(5) == 50 and r.pc == 0x8000 and r.get(13) == 0x5000


@given(st.integers(min_value=16, max_value=100))
def test_bad_register_index(n):
    r = RegisterFile()
    with pytest.raises(IndexError):
        r.get(n)


# -- CP15 ------------------------------------------------------------------

def test_cp15_user_access_traps(cpu):
    with pytest.raises(UndefinedInstruction):
        cpu.sysregs.read("SCTLR", privileged=False)
    with pytest.raises(UndefinedInstruction):
        cpu.sysregs.write("DACR", 0, privileged=False)


def test_cp15_unknown_register_traps(cpu):
    with pytest.raises(UndefinedInstruction):
        cpu.sysregs.read("NOPE", privileged=True)


def test_cp15_side_effects_reach_mmu(cpu, memsys):
    cpu.sysregs.write("SCTLR", 1, privileged=True)
    assert memsys.mmu.enabled
    cpu.sysregs.write("TTBR0", 0x0040_0000, privileged=True)
    assert memsys.mmu.ttbr == 0x0040_0000
    cpu.sysregs.write("CONTEXTIDR", 7, privileged=True)
    assert memsys.mmu.asid == 7
    cpu.sysregs.write("DACR", 0x5, privileged=True)
    assert memsys.mmu.dacr == 0x5


# -- VFP ------------------------------------------------------------------

def test_vfp_traps_when_disabled():
    v = Vfp()
    with pytest.raises(UndefinedInstruction):
        v.execute()
    assert v.traps == 1


def test_vfp_executes_when_enabled():
    v = Vfp()
    v.enable()
    v.execute()
    assert v.traps == 0


def test_vfp_lazy_cycle():
    """disable -> trap -> save old + restore new -> enabled for new owner."""
    v = Vfp()
    v.enable()
    v.owner = 1
    v.disable()                     # VM switch
    with pytest.raises(UndefinedInstruction):
        v.execute()                 # VM 2's first VFP use
    assert v.save_bank() == VFP_CONTEXT_WORDS
    assert v.restore_bank(2) == VFP_CONTEXT_WORDS
    v.enable()
    v.execute()
    assert v.owner == 2
    assert v.saves == 1 and v.restores == 1
