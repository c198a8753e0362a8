"""Heartbeat failure detector: deadline declaration over ticks."""

import pytest

from repro.fleet.detector import FailureDetector


def test_fresh_detector_declares_nothing_within_deadline():
    d = FailureDetector(range(3), deadline_ticks=2)
    for t in range(3):
        for b in range(3):
            d.observe(b, ok=True, tick=t)
        assert d.sweep(t) == []
    assert all(d.alive(b) for b in range(3))


def test_silent_board_declared_after_deadline():
    d = FailureDetector(range(2), deadline_ticks=2)
    for t in range(6):
        d.observe(0, ok=True, tick=t)
        d.observe(1, ok=False, tick=t)      # board 1 never answers
        newly = d.sweep(t)
        if t <= 1 + 2:                      # last_ok=-1, deadline 2
            pass
        if newly:
            assert newly == [1]
            assert t - (-1) > 2
            break
    else:
        pytest.fail("board 1 was never declared")
    assert d.alive(0) and not d.alive(1)


def test_declared_at_most_once():
    d = FailureDetector(range(1), deadline_ticks=1)
    assert d.sweep(5) == [0]
    assert d.sweep(6) == []                 # once, ever
    assert d.sweep(7) == []


def test_declaration_is_sorted():
    d = FailureDetector([2, 0, 1], deadline_ticks=1)
    assert d.sweep(9) == [0, 1, 2]


def test_recovered_heartbeat_resets_the_clock():
    d = FailureDetector(range(1), deadline_ticks=3)
    d.observe(0, ok=True, tick=0)
    d.observe(0, ok=False, tick=1)
    d.observe(0, ok=False, tick=2)
    d.observe(0, ok=True, tick=3)           # back before the deadline
    assert d.sweep(3) == []
    assert d.sweep(6) == []                 # 6 - 3 == deadline, not over
    assert d.sweep(7) == [0]

