"""IVC router/mailbox unit semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.ivc import IvcMessage, IvcRouter, MAILBOX_SLOTS, MSG_WORDS
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def router(metrics):
    r = IvcRouter(metrics)
    r.register(1)
    r.register(2)
    return r


def test_send_recv_roundtrip(router):
    assert router.send(1, 2, (10, 20, 30))
    msg = router.recv(2)
    assert msg.src_vm == 1
    assert msg.payload == (10, 20, 30)
    assert router.recv(2) is None


def test_fifo_order(router):
    for i in range(5):
        router.send(1, 2, (i,))
    got = [router.recv(2).payload[0] for _ in range(5)]
    assert got == list(range(5))


def test_unknown_destination(router):
    assert not router.send(1, 99, (1,))


def test_mailbox_overflow_drops(router, metrics):
    for i in range(MAILBOX_SLOTS):
        assert router.send(1, 2, (i,))
    assert not router.send(1, 2, (99,))
    assert router.pending(2) == MAILBOX_SLOTS
    assert metrics.total("kernel.ivc_dropped") == 1
    # Draining makes room again.
    router.recv(2)
    assert router.send(1, 2, (99,))
    assert metrics.total("kernel.ivc_sent") == MAILBOX_SLOTS + 1


def test_payload_size_limit():
    with pytest.raises(ValueError):
        IvcMessage(src_vm=1, payload=tuple(range(MSG_WORDS + 1)))


def test_pending_counts(router):
    assert router.pending(2) == 0
    router.send(1, 2, (1,))
    router.send(1, 2, (2,))
    assert router.pending(2) == 2
    assert router.pending(42) == 0


@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
                max_size=40))
def test_conservation_property(ops):
    """Messages delivered == messages accepted, per destination, and the
    registry counts every accepted message as sent."""
    metrics = MetricsRegistry()
    r = IvcRouter(metrics)
    r.register(1)
    r.register(2)
    accepted = {1: 0, 2: 0}
    for src, dst in ops:
        if r.send(src, dst, (src,)):
            accepted[dst] += 1
    for dst in (1, 2):
        drained = 0
        while r.recv(dst) is not None:
            drained += 1
        assert drained == accepted[dst]
    assert metrics.total("kernel.ivc_sent") == sum(accepted.values())
    assert (metrics.total("kernel.ivc_sent")
            + metrics.total("kernel.ivc_dropped")) == len(ops)
