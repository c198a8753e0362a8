"""GIC distributor + CPU interface behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DeviceError
from repro.gic import gic as G
from repro.gic.gic import Gic
from repro.gic.irqs import SPURIOUS_IRQ, pl_irq, pl_line


@pytest.fixture
def gic():
    return Gic()


def test_assert_without_enable_no_line(gic):
    levels = []
    gic.irq_line_cb = levels.append
    gic.assert_irq(40)
    assert levels[-1] is False
    assert gic.ack() == SPURIOUS_IRQ


def test_enable_then_assert_raises_line(gic):
    levels = []
    gic.irq_line_cb = levels.append
    gic.set_enable(40, True)
    gic.assert_irq(40)
    assert levels[-1] is True


def test_ack_clears_pending_sets_active(gic):
    gic.set_enable(40, True)
    gic.assert_irq(40)
    assert gic.ack() == 40
    assert not gic.pending[40] and gic.active[40]
    assert gic.ack() == SPURIOUS_IRQ


def test_eoi_clears_active(gic):
    gic.set_enable(40, True)
    gic.assert_irq(40)
    gic.ack()
    gic.eoi(40)
    assert not gic.active[40]


def test_priority_ordering(gic):
    gic.set_enable(40, True)
    gic.set_enable(61, True)
    gic.set_priority(40, 0x80)
    gic.set_priority(61, 0x20)      # higher priority (lower value)
    gic.assert_irq(40)
    gic.assert_irq(61)
    assert gic.ack() == 61
    assert gic.ack() == 40


def test_priority_mask_gates(gic):
    gic.set_enable(40, True)
    gic.set_priority(40, 0x90)
    gic.priority_mask = 0x80
    gic.assert_irq(40)
    assert gic.ack() == SPURIOUS_IRQ
    gic.priority_mask = 0xFF
    assert gic.ack() == 40


def test_distributor_off_blocks(gic):
    gic.set_enable(40, True)
    gic.dist_on = False
    gic.assert_irq(40)
    assert gic.ack() == SPURIOUS_IRQ


def test_bad_irq_id(gic):
    with pytest.raises(DeviceError):
        gic.assert_irq(96)
    with pytest.raises(DeviceError):
        gic.set_enable(-1, True)


# -- MMIO interface ---------------------------------------------------------

def test_mmio_enable_set_clear(gic):
    gic.mmio_write(G.ICDISER + 4, 1 << 8)     # IRQ 40 = word 1, bit 8
    assert gic.enabled[40]
    assert gic.mmio_read(G.ICDISER + 4) == 1 << 8
    gic.mmio_write(G.ICDICER + 4, 1 << 8)
    assert not gic.enabled[40]


def test_mmio_ack_eoi_cycle(gic):
    gic.set_enable(61, True)
    gic.assert_irq(61)
    irq = gic.mmio_read(G.ICCIAR)
    assert irq == 61
    gic.mmio_write(G.ICCEOIR, 61)
    assert not gic.active[61]
    assert gic.eois == 1


def test_mmio_pending_registers(gic):
    gic.mmio_write(G.ICDISPR + 4, 1 << 8)
    assert gic.pending[40]
    assert gic.mmio_read(G.ICDISPR + 4) & (1 << 8)
    gic.mmio_write(G.ICDICPR + 4, 1 << 8)
    assert not gic.pending[40]


def test_mmio_priority_bytes(gic):
    gic.mmio_write(G.ICDIPR + 40, 0x10203040)
    assert gic.priority[40] == 0x40
    assert gic.priority[43] == 0x10
    assert gic.mmio_read(G.ICDIPR + 40) == 0x10203040


def test_mmio_cpu_iface_control(gic):
    gic.mmio_write(G.ICCICR, 0)
    gic.set_enable(40, True)
    gic.assert_irq(40)
    assert gic.ack() == SPURIOUS_IRQ
    gic.mmio_write(G.ICCICR, 1)
    assert gic.ack() == 40


# -- IRQ map helpers ---------------------------------------------------------

def test_pl_irq_mapping_roundtrip():
    for line in range(16):
        assert pl_line(pl_irq(line)) == line
    assert pl_line(40) is None
    with pytest.raises(ValueError):
        pl_irq(16)


class _FullScanGic(Gic):
    """The reference: ``_best_pending`` scans every ID, pending or not,
    and a bit-register write tests each of its 32 bits."""

    def _best_pending(self):
        if not (self.dist_on and self.cpu_iface_on):
            return None
        best = None
        for i in range(self.n_irqs):
            if self.pending[i] and self.enabled[i] \
                    and self.priority[i] < self.priority_mask:
                if best is None or self.priority[i] < self.priority[best]:
                    best = i
        return best

    def _apply_bits(self, bits, word, value, on):
        for b in range(32):
            if value & (1 << b):
                bits[word * 32 + b] = on
        self._update_line()


_IDS = st.sampled_from([0, 5, 29, 31, 32, 40, 41, 63, 64, 95])
_BIT_REGS = st.sampled_from([G.ICDISER, G.ICDICER, G.ICDISPR, G.ICDICPR])
#: Bits above 31 are not register bits: a write ignores them.
_BIT_VALUES = st.one_of(st.sampled_from([0, 1 << 31, 0xFFFF_FFFF]),
                        st.integers(0, (1 << 40) - 1))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("assert"), _IDS),
    st.tuples(st.just("enable"), _IDS, st.booleans()),
    st.tuples(st.just("priority"), _IDS, st.sampled_from([0x10, 0x80, 0xF0])),
    st.tuples(st.just("mask"), st.sampled_from([0x00, 0x20, 0x90, 0xFF])),
    st.tuples(st.just("bits"), _BIT_REGS, st.integers(0, 2), _BIT_VALUES),
    st.tuples(st.just("ack"), st.booleans()),
    st.tuples(st.just("eoi"), _IDS, st.booleans())), max_size=60)


def _step(gic, op):
    """Apply one drawn operation; return what it returned.  ACK and EOI
    go through the API or through their MMIO registers."""
    kind = op[0]
    if kind == "assert":
        return gic.assert_irq(op[1])
    if kind == "enable":
        return gic.set_enable(op[1], op[2])
    if kind == "priority":
        return gic.set_priority(op[1], op[2])
    if kind == "mask":
        return gic.mmio_write(G.ICCPMR, op[1])
    if kind == "bits":
        return gic.mmio_write(op[1] + 4 * op[2], op[3])
    if kind == "ack":
        return gic.mmio_read(G.ICCIAR) if op[1] else gic.ack()
    return gic.mmio_write(G.ICCEOIR, op[1]) if op[2] else gic.eoi(op[1])


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_empty_pending_shortcut_matches_the_full_scan(ops):
    """Mixed assert, enable, priority, priority-mask, ACK and EOI calls
    and writes of 0, bit 31, all ones and other values to the four
    enable and pending registers, with IDs left pending while disabled
    or masked by priority, against the full-scan reference: the same
    ACK results, enable, pending and active bits and line levels after
    every step."""
    gics = (Gic(), _FullScanGic())
    levels = ([], [])
    for gic, seen in zip(gics, levels):
        gic.irq_line_cb = seen.append
    for op in ops:
        states = [(_step(gic, op), seen, gic.enabled, gic.pending, gic.active)
                  for gic, seen in zip(gics, levels)]
        assert states[0] == states[1], op
