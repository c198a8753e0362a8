"""BoardLink: fault state, deterministic unreachability, retry, fencing."""

import pytest

from repro.faults.plan import BOARD_CRASH, BOARD_HANG, BOARD_PARTITION
from repro.fleet.rpc import (BACKOFF_BASE_CYCLES, DEADLINE_CYCLES,
                             RETRY_LIMIT, BoardLink, BoardUnreachable)
from repro.obs.metrics import MetricsRegistry


class FakeHost:
    def __init__(self):
        self.ops = []
        self.dead = False

    def call(self, op, *args):
        assert not self.dead, "a call reached a killed host"
        self.ops.append((op, args))
        return {"op": op}

    def kill(self):
        self.dead = True

    def close(self):
        self.dead = True


def make_link(board_id=0):
    m = MetricsRegistry()
    host = FakeHost()
    return BoardLink(board_id, host, m), host, m


def test_healthy_call_passes_through_and_counts():
    link, host, m = make_link()
    assert link.call("heartbeat") == {"op": "heartbeat"}
    assert host.ops == [("heartbeat", ())]
    assert m.total("fleet.rpc.calls") == 1
    assert m.total("fleet.rpc.failures") == 0
    assert link.reachable


def test_crash_kills_host_and_exhausts_retries():
    link, host, m = make_link(board_id=3)
    link.inject(BOARD_CRASH)
    assert host.dead                        # the backend is really gone
    with pytest.raises(BoardUnreachable) as exc:
        link.call("step", 1000)
    assert exc.value.board_id == 3
    assert exc.value.reason == "crash"
    assert m.total("fleet.boards.crashed") == 1
    assert m.total("fleet.rpc.calls") == RETRY_LIMIT
    assert m.total("fleet.rpc.failures") == RETRY_LIMIT
    assert m.total("fleet.rpc.retries") == RETRY_LIMIT - 1
    # Exponential backoff: BASE<<0 + BASE<<1 + ... per retry gap.
    expected_backoff = sum(BACKOFF_BASE_CYCLES << a
                           for a in range(RETRY_LIMIT - 1))
    assert m.total("fleet.rpc.backoff_cycles") == expected_backoff
    assert not link.reachable


def test_hang_heals_and_board_rejoins():
    link, host, m = make_link()
    link.tick(0)
    link.inject(BOARD_HANG, duration_ticks=2)
    assert not link.reachable
    with pytest.raises(BoardUnreachable) as exc:
        link.call("heartbeat")
    assert exc.value.reason == "hang"
    # Each failed attempt charges the modelled deadline.
    assert m.total("fleet.rpc.backoff_cycles") >= \
        DEADLINE_CYCLES * RETRY_LIMIT
    assert host.ops == []                   # the board was never touched
    assert link.tick(1) is False
    assert link.tick(2) is True             # healed: rejoin
    assert link.reachable
    assert link.call("heartbeat") == {"op": "heartbeat"}
    assert m.total("fleet.boards.hung") == 1


def test_partition_is_distinct_from_hang_in_accounting():
    link, _, m = make_link()
    link.tick(0)
    link.inject(BOARD_PARTITION, duration_ticks=1)
    with pytest.raises(BoardUnreachable) as exc:
        link.call("heartbeat")
    assert exc.value.reason == "partition"
    assert m.total("fleet.boards.partitioned") == 1
    assert m.total("fleet.boards.hung") == 0


def test_fenced_link_refuses_and_counts_f6():
    link, host, m = make_link()
    link.fence()
    with pytest.raises(BoardUnreachable) as exc:
        link.call("heartbeat")
    assert exc.value.reason == "fenced"
    assert m.total("fleet.fencing_violations") == 1
    assert host.ops == []                   # fencing never touches the host
    # A healed hang on a fenced board does NOT rejoin.
    link.hung_until = 1
    assert link.tick(5) is False


def test_non_board_site_rejected():
    link, _, _ = make_link()
    with pytest.raises(ValueError):
        link.inject("service.crash")
