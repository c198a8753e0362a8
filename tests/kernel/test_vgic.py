"""Per-VM virtual GIC (Fig. 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.vgic import VGic


@pytest.fixture
def vg():
    return VGic(vm_id=1)


def test_register_and_ownership(vg):
    vg.register(61)
    assert vg.owns(61)
    assert not vg.owns(62)


def test_register_idempotent_updates_enable(vg):
    vg.register(61, enabled=True)
    vg.register(61, enabled=False)
    assert not vg.irqs[61].enabled
    assert len(vg.irqs) == 1


def test_pend_requires_registration(vg):
    vg.pend(61)
    assert not vg.has_pending()
    vg.register(61)
    vg.pend(61)
    assert vg.has_pending()


def test_pend_disabled_irq_ignored(vg):
    vg.register(61, enabled=False)
    vg.pend(61)
    assert not vg.has_pending()


def test_fifo_delivery_order(vg):
    for irq in (63, 61, 62):
        vg.register(irq)
        vg.pend(irq)
    order = []
    while vg.has_pending():
        irq = vg.next_pending()
        vg.take(irq)
        order.append(irq)
    assert order == [63, 61, 62]
    assert vg.pending_fifo() == []


def test_pend_deduplicates(vg):
    vg.register(61)
    vg.pend(61)
    vg.pend(61)
    vg.take(61)
    assert not vg.has_pending()


def test_disable_defers_delivery(vg):
    vg.register(61)
    vg.pend(61)
    vg.set_enabled(61, False)
    assert vg.next_pending() is None
    vg.set_enabled(61, True)
    assert vg.next_pending() == 61


def test_unregister_clears_pending(vg):
    vg.register(61)
    vg.pend(61)
    vg.unregister(61)
    assert not vg.owns(61)
    assert not vg.has_pending()


def test_enabled_irqs_sorted(vg):
    vg.register(63)
    vg.register(29)
    vg.register(61, enabled=False)
    assert vg.enabled_irqs() == [29, 63]
    assert vg.all_irqs() == [29, 61, 63]


@given(st.lists(st.integers(min_value=0, max_value=95), min_size=1, max_size=50))
def test_pending_never_exceeds_registered(irqs):
    vg = VGic(vm_id=1)
    for irq in irqs:
        vg.register(irq)
        vg.pend(irq)
    seen = set()
    while vg.has_pending():
        irq = vg.next_pending()
        vg.take(irq)
        assert irq not in seen        # each delivered once
        seen.add(irq)
    assert seen == set(irqs)
