"""Span-stack self-time arithmetic and wrapper installation."""

from __future__ import annotations

import pytest

from spans import ENTRY_POINTS, SpanRecorder, is_installed


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        leaf_w()
        clock.t += 3.0
        leaf_w()

    def outer():
        clock.t += 5.0
        middle_w()
        clock.t += 0.5

    leaf_w = rec.wrap(leaf, "mem.touch")
    middle_w = rec.wrap(middle, "guest.bulk")
    outer_w = rec.wrap(outer, "kernel.run")
    outer_w()

    t = rec.totals
    assert (t["mem.touch"].calls, t["mem.touch"].incl_s,
            t["mem.touch"].self_s) == (2, 4.0, 4.0)
    assert (t["guest.bulk"].incl_s, t["guest.bulk"].self_s) == (8.0, 4.0)
    assert (t["kernel.run"].incl_s, t["kernel.run"].self_s) == (13.5, 5.5)
    # Self times partition the outermost span exactly.
    assert sum(x.self_s for x in t.values()) == t["kernel.run"].incl_s


def test_exception_unwinds_the_stack():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    boom_w = rec.wrap(boom, "mem.touch")

    def outer():
        with pytest.raises(ValueError):
            boom_w()
        clock.t += 1.0

    rec.wrap(outer, "kernel.run")()
    assert rec.totals["kernel.run"].self_s == 1.0
    assert rec.totals["mem.touch"].self_s == 1.0
    rec.reset()                      # no span left open
    assert rec.totals["kernel.run"].calls == 0


def test_kept_spans_carry_their_label_and_export():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    class Disp:
        def tick(self, t):
            clock.t += 1.0

    tick = rec.wrap(Disp.tick, "fleet.tick")
    for t in range(3):
        tick(Disp(), t)
    doc = rec.chrome_trace()
    assert [(e["name"], e["args"]["label"], e["dur"])
            for e in doc["traceEvents"]] == [("fleet.tick", t, 1e6)
                                            for t in range(3)]


def test_install_wraps_every_entry_point_and_uninstall_restores():
    assert not is_installed()
    rec = SpanRecorder()
    rec.install()
    try:
        assert is_installed()
        assert len(rec._installed) == len(ENTRY_POINTS)
    finally:
        rec.uninstall()
    assert not is_installed()


def test_sizes_count_single_address_samples():
    rec = SpanRecorder()
    sample = rec.wrap(lambda self, vaddrs, **kw: 0, "mem.sample_block")
    for n in (1, 1, 3):
        sample(None, [0] * n)
    t = rec.totals["mem.sample_block"]
    assert (t.calls, t.units, t.singles) == (3, 5, 2)
