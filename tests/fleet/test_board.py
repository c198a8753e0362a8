"""BoardServer: placement, stepping, checkpoint wire format, adoption."""

from repro.fleet.board import (BoardServer, decode_checkpoint,
                               encode_checkpoint)
from repro.fleet.tenant import TenantSpec
from repro.workloads.restartable import expected_output

FRAMES = 6


def finite_spec(name="t0", kind="fft", seed=7):
    return TenantSpec(name=name, kind=kind, seed=seed, frames=FRAMES,
                      checkpoint_every=2)


def test_place_step_heartbeat_and_invariants():
    b = BoardServer(0, seed=5)
    vm = b.place(finite_spec().as_dict())["vm_id"]
    assert vm == 2                          # manager holds vm 1
    res = b.step(40_000_000)
    assert res["now"] >= 40_000_000 or res["progress"][vm] == FRAMES
    assert res["progress"][vm] > 0
    hb = b.heartbeat()
    assert hb["board"] == 0
    assert hb["progress"] == res["progress"]
    assert b.invariants() == []
    assert b.prr_grants() == [] or all(
        len(g) == 2 for g in b.prr_grants())


def test_checkpoint_wire_roundtrip():
    b = BoardServer(0, seed=5)
    vm = b.place(finite_spec().as_dict())["vm_id"]
    b.step(10_000_000)
    wire = b.checkpoint(vm, True)
    assert isinstance(wire, dict)
    ckpt = decode_checkpoint(wire)
    assert isinstance(ckpt.hw_data, tuple)
    assert encode_checkpoint(ckpt) == wire
    # The page image is shared, not copied page by page.
    assert wire["memory_image"] is b.kernel.lifecycle.latest(vm).memory_image


def test_checkpoint_reuses_guest_snapshot_by_default():
    b = BoardServer(0, seed=5)
    vm = b.place(finite_spec().as_dict())["vm_id"]
    # Step until the guest's own VM_CHECKPOINT hypercall has fired.
    now = 0
    while True:
        now += 5_000_000
        res = b.step(now)
        if b.kernel.lifecycle.latest(vm) is not None:
            break
        assert now < 200_000_000
    lazy = b.checkpoint(vm)
    assert lazy == encode_checkpoint(b.kernel.lifecycle.latest(vm))
    fresh = b.checkpoint(vm, True)
    assert fresh["seq"] > lazy["seq"]       # a synchronous new snapshot


def test_checkpoint_since_held_seq_ships_nothing():
    b = BoardServer(0, seed=5)
    vm = b.place(finite_spec().as_dict())["vm_id"]
    now = 0
    while b.kernel.lifecycle.latest(vm) is None:
        now += 5_000_000
        b.step(now)
        assert now < 200_000_000
    seq = b.kernel.lifecycle.latest(vm).seq
    assert b.checkpoint(vm, False, seq) is None
    assert b.checkpoint(vm, False, seq - 1)["seq"] == seq
    taken = b.kernel.metrics.total("vm.lifecycle.checkpoints")
    fresh = b.checkpoint(vm, True, seq)          # fresh always snapshots
    assert fresh["seq"] == seq + 1
    assert b.kernel.metrics.total("vm.lifecycle.checkpoints") == taken + 1
    assert b.checkpoint(vm, False, seq) == fresh


def test_restore_on_second_board_is_bit_exact():
    spec = finite_spec()
    golden = expected_output(spec.kind, frames=FRAMES, seed=spec.seed)
    src = BoardServer(0, seed=5)
    vm = src.place(spec.as_dict())["vm_id"]
    now = 0
    while src.step(now)["progress"][vm] < 2:
        now += 2_000_000
        assert now < 200_000_000
    wire = src.checkpoint(vm, True)
    frame = wire["runner_state"]["persist"]["frame"]
    assert 0 < frame < FRAMES

    dst = BoardServer(1, seed=9)
    res = dst.restore(spec.as_dict(), wire)
    assert res["resumed_at"] == frame
    dst.step(200_000_000)
    assert dst.read_output(res["vm_id"], FRAMES) == golden
    assert dst.invariants() == []
    assert dst.kernel.metrics.total("vm.lifecycle.adoptions") == 1


def test_kill_removes_tenant_from_progress():
    b = BoardServer(0, seed=5)
    vm = b.place(finite_spec().as_dict())["vm_id"]
    b.step(5_000_000)
    assert b.kill(vm, "shed:test") == {"ok": True}
    assert vm not in b.heartbeat()["progress"]
    assert b.invariants() == []             # kill reclaimed everything


def test_snapshot_is_mergeable_image():
    from repro.obs.aggregate import MetricSnapshot
    b = BoardServer(0, seed=5)
    b.place(finite_spec().as_dict())
    b.step(5_000_000)
    snap = MetricSnapshot.from_dict(b.snapshot())
    merged = snap.merge(MetricSnapshot.empty())
    assert merged.to_dict() == b.snapshot()


def test_flight_dump_carries_board_context():
    b = BoardServer(2, seed=5)
    b.place(finite_spec().as_dict())
    b.step(5_000_000)
    bundle = b.flight_dump("fleet_invariant_violation",
                           {"tick": 3, "violations": ["F4: test"]})
    ctx = bundle["context"]
    assert ctx["board"] == 2
    assert ctx["tick"] == 3
    assert "t0" in ctx["tenants"].values()
