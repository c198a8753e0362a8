"""Hypercall-interface audit (docs/FAULTS.md §guest containment).

Property: for *any* hypercall number — valid, unassigned, or absurd —
combined with *any* malformed argument tuple, the kernel answers with a
status in r0.  No exception other than :class:`SimulationError` (engine
corruption, which is a host bug by definition) may escape the dispatcher;
in particular no :class:`ReproError` subclass and no built-in exception
(IndexError, KeyError, TypeError…) can be surfaced by a guest.
"""

import pytest

from repro.common.rng import make_rng
from repro.kernel.core import KernelConfig, MiniNova
from repro.kernel.exits import ExitHypercall
from repro.kernel.hypercalls import Hc, HcStatus
from repro.kernel.pd import PdState

#: Every assigned number, the unassigned band next to it, and extremes.
AUDIT_NUMBERS = tuple(range(0, 34)) + (-1, 0x7FFF_FFFF, 0xFFFF_FFFF)

#: Argument values chosen to break naive handlers: negatives, nulls,
#: unmapped and page-misaligned addresses, and 32/64-bit boundary values.
BAD_ARGS = (-(2 ** 31), -1, 0, 1, 3, 0xFFF, 0x1001, 0xDEAD_BEEF,
            0x7FFF_FFFF, 0xFFFF_FFFF, 2 ** 40)


class Recorder:
    """Runner stub that records every completed hypercall result."""

    def __init__(self):
        self.results = []

    def bind(self, kernel, pd):
        self.kernel, self.pd = kernel, pd

    def step(self, budget):
        self.kernel.cpu.instr(10_000)
        return None

    def deliver_virq(self, irq):
        pass

    def complete_hypercall(self, exit_):
        self.results.append((exit_.num, exit_.result))


@pytest.fixture
def kernel(small_machine):
    k = MiniNova(small_machine, KernelConfig(quantum_ms=1.0))
    k.boot()
    return k


@pytest.fixture
def pd(kernel):
    return kernel.create_vm("audit", Recorder())


def issue(kernel, pd, num, args):
    """One raw hypercall; undo side effects that would stall the audit."""
    exit_ = ExitHypercall(int(num), tuple(args))
    kernel._handle_hypercall(pd, exit_)
    # VM_SUSPEND legitimately parks the PD; wake it for the next probe.
    if pd.state is PdState.SUSPENDED:
        kernel.sched.resume(pd)
    return exit_


def test_every_number_with_empty_args(kernel, pd):
    for num in AUDIT_NUMBERS:
        exit_ = issue(kernel, pd, num, ())
        # IVC_RECV answers None for "no message waiting" — a legitimate
        # ABI value; every other call must write a status.
        if num != int(Hc.IVC_RECV):
            assert exit_.result is not None, f"hc {num}: no status written"


def test_invalid_numbers_rejected_with_err_arg(kernel, pd):
    for num in (0, 29, 30, 33, -1, 0x7FFF_FFFF):
        exit_ = issue(kernel, pd, num, (1, 2, 3, 4))
        assert exit_.result == HcStatus.ERR_ARG, f"hc {num}"
    assert kernel.metrics.total("kernel.hypercalls", hc="INVALID") == 6


def test_hwtask_calls_fail_clean_without_manager(kernel, pd):
    """No Hardware Task Manager attached: HWTASK_* must fail with
    ERR_STATE immediately instead of parking the vCPU forever."""
    for num in (Hc.HWTASK_REQUEST, Hc.HWTASK_RELEASE, Hc.HWTASK_IRQ_ATTACH):
        exit_ = issue(kernel, pd, num, (1, 0x10_0000, 0x20_0000))
        assert exit_.result == HcStatus.ERR_STATE, num.name
        assert pd.state is PdState.RUN        # answered, not parked


def test_exhaustive_fuzz_no_exception_escapes(kernel, pd):
    """The full cross of numbers × arg shapes, plus seeded random tuples.

    ~1500 calls; the assertion is simply that we get here — any escaping
    exception (ReproError or built-in) fails the test at the raise site —
    and that every completed call carries *some* status.
    """
    runner = pd.runner
    for num in AUDIT_NUMBERS:
        for val in BAD_ARGS:
            issue(kernel, pd, num, (val,))
        issue(kernel, pd, num, (0xDEAD_BEEF,) * 4)
    rng = make_rng(0, stream="hypercall-audit")
    for _ in range(400):
        num = int(rng.choice(AUDIT_NUMBERS))
        n_args = int(rng.integers(0, 5))
        args = tuple(int(rng.choice(BAD_ARGS)) for _ in range(n_args))
        issue(kernel, pd, num, args)
    assert len(runner.results) == len(AUDIT_NUMBERS) * (len(BAD_ARGS) + 1) \
        + 400
    assert all(r is not None for num, r in runner.results
               if num != int(Hc.IVC_RECV))
    # The audit PD took abuse, not damage: it is still schedulable.
    assert pd.state is not PdState.DEAD


def test_checkpoint_hypercall_fuzz(kernel, pd):
    """The VM_CHECKPOINT pair answers every abuse with a status.

    Arguments are ignored by design, so no malformed tuple can fault;
    the interesting states are mid-checkpoint (BUSY) and a caller that
    is already marked for restart (ERR_STATE)."""
    for val in BAD_ARGS:
        exit_ = issue(kernel, pd, Hc.VM_CHECKPOINT, (val,) * 4)
        assert isinstance(exit_.result, int) and exit_.result >= 1
    # Seqs are monotonic per VM even though only the latest two are kept.
    assert issue(kernel, pd, Hc.VM_CHECKPOINT, ()).result == len(BAD_ARGS) + 1
    q = issue(kernel, pd, Hc.VM_CHECKPOINT_QUERY, (0xDEAD_BEEF,))
    assert q.result == len(BAD_ARGS) + 1

    # A checkpoint issued *during* a checkpoint (re-entrant abuse).
    kernel.lifecycle._checkpointing = True
    try:
        exit_ = issue(kernel, pd, Hc.VM_CHECKPOINT, ())
        assert exit_.result == HcStatus.BUSY
    finally:
        kernel.lifecycle._checkpointing = False

    # A checkpoint from a VM already marked for restart: the snapshot
    # would race the resurrection, so the call is refused outright.
    kernel.lifecycle.pending.add(pd.vm_id)
    try:
        exit_ = issue(kernel, pd, Hc.VM_CHECKPOINT, (1, 2, 3, 4))
        assert exit_.result == HcStatus.ERR_STATE
    finally:
        kernel.lifecycle.pending.discard(pd.vm_id)
    # Query still answers (read-only, safe in any state).
    q = issue(kernel, pd, Hc.VM_CHECKPOINT_QUERY, ())
    assert q.result == len(BAD_ARGS) + 1
    assert pd.state is PdState.RUN


def test_safety_net_counts_rejections(kernel, pd):
    """Whatever slips past explicit validation lands in the safety net:
    kernel.hypercall_faults + a hypercall_rejected event, never a raise."""
    before = kernel.metrics.counter("kernel.hypercall_faults").value
    for num in tuple(Hc):
        for val in BAD_ARGS:
            issue(kernel, pd, num, (val, val))
    after = kernel.metrics.counter("kernel.hypercall_faults").value
    assert after >= before          # net may or may not trip — but if it
    # did, each trip was converted to a status:
    assert kernel.tracer.count("hypercall_rejected") == after - before
    assert all(r is not None for num, r in pd.runner.results
               if num != int(Hc.IVC_RECV))
