"""Board hosting: the inline host and the plain-data board protocol."""

import pickle

import pytest

from repro.fleet.workers import InlineHost

SPEC = {"name": "t0", "tclass": "critical", "kind": "fft", "seed": 7,
        "frames": 4, "checkpoint_every": 2}


def test_inline_host_dies_on_kill():
    host = InlineHost(0, seed=5)
    assert host.call("step", 0)["now"] == 0
    host.kill()
    with pytest.raises(RuntimeError, match="killed host"):
        host.call("step", 0)


def _wire(result):
    """``result`` after a pickle round trip: what a board would send if
    it ran in another process."""
    return pickle.loads(pickle.dumps(result))


def test_board_protocol_carries_plain_data():
    """Every op result equals its pickle round trip, so the dispatcher
    holds no live reference into a board.  That includes a checkpoint,
    small enough to ship as pickled pages, and a restore
    fed a pickled copy of it, which computes exactly like one fed the
    original."""
    host = InlineHost(0, seed=5)
    vm = host.call("place", SPEC)["vm_id"]
    ops = [("step", (20_000_000,)), ("prr_grants", ()),
           ("invariants", ()), ("snapshot", ()), ("checkpoint", (vm,))]
    for op, args in ops:
        result = host.call(op, *args)
        assert _wire(result) == result, op
    ckpt = result
    assert len(pickle.dumps(ckpt)) < 1 << 20
    shipped, local = InlineHost(1, seed=5), InlineHost(1, seed=5)
    ops = [("step", (40_000_000,)), ("invariants", ()), ("snapshot", ())]
    assert (shipped.call("restore", SPEC, _wire(ckpt))
            == local.call("restore", SPEC, ckpt))
    for op, args in ops:
        assert shipped.call(op, *args) == local.call(op, *args), op
    for h in (host, shipped, local):
        h.close()
