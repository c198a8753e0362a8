"""Board hosting backends: inline/process parity and real crash kills."""

import pickle

import pytest

from repro.fleet.workers import HOST_KINDS, HostDead, InlineHost, ProcessHost

HOST_ARGS = dict(seed=5, tasks=("fft256", "qam16"), tick_hz=100)
SPEC = {"name": "t0", "tclass": "critical", "kind": "fft", "seed": 7,
        "frames": 4, "checkpoint_every": 2}


def test_host_registry():
    assert HOST_KINDS == {"inline": InlineHost, "process": ProcessHost}


def test_inline_host_dies_on_kill():
    host = InlineHost(0, **HOST_ARGS)
    assert host.call("heartbeat")["board"] == 0
    host.kill()
    with pytest.raises(HostDead):
        host.call("heartbeat")


def test_process_host_runs_and_is_really_killed():
    host = ProcessHost(0, **HOST_ARGS)
    try:
        hb = host.call("heartbeat")
        assert hb["board"] == 0 and hb["now"] >= 0
        host.kill()                         # SIGTERMs the worker
        with pytest.raises(HostDead):
            host.call("heartbeat")
    finally:
        host.close()


def test_process_host_marshals_remote_errors():
    host = ProcessHost(0, **HOST_ARGS)
    try:
        with pytest.raises(RuntimeError, match="no_such_op"):
            host.call("no_such_op")
        # The worker survives a failed op.
        assert host.call("heartbeat")["board"] == 0
    finally:
        host.close()


def test_inline_and_process_boards_compute_identically():
    """The same op sequence on both backends yields equal plain data —
    the substrate of the fleet's hosting-independence guarantee.  That
    includes a fresh checkpoint, small enough to ship as pickled pages,
    and its restore on a second board."""
    inline = InlineHost(0, **HOST_ARGS)
    proc = ProcessHost(0, **HOST_ARGS)
    inline2 = InlineHost(1, **HOST_ARGS)
    proc2 = ProcessHost(1, **HOST_ARGS)
    try:
        vm = inline.call("place", SPEC)["vm_id"]
        assert proc.call("place", SPEC)["vm_id"] == vm
        ops = [("step", (20_000_000,)), ("heartbeat", ()),
               ("prr_grants", ()), ("invariants", ()), ("snapshot", ()),
               ("checkpoint", (vm, True))]
        for op, args in ops:
            wire = inline.call(op, *args)
            assert wire == proc.call(op, *args), op
        assert len(pickle.dumps(wire)) < 1 << 20
        ops = [("restore", (SPEC, wire)), ("step", (40_000_000,)),
               ("heartbeat", ()), ("invariants", ()), ("snapshot", ())]
        for op, args in ops:
            assert inline2.call(op, *args) == proc2.call(op, *args), op
    finally:
        for host in (inline, proc, inline2, proc2):
            host.close()
