"""VmAccounting: context-clock settle math, probes, PRR occupancy."""

from __future__ import annotations

from repro.obs.accounting import MAX_VIRQ_SAMPLES, VmAccounting
from repro.obs.metrics import MetricsRegistry


class _Clock:
    def __init__(self):
        self.now = 0


class _Prr:
    def __init__(self, prr_id, client_vm=None):
        self.prr_id = prr_id
        self.client_vm = client_vm


def make_acct(metrics=None):
    acct = VmAccounting(MetricsRegistry() if metrics is None else metrics)
    clock = _Clock()
    acct.bind(clock)
    return acct, clock


class TestContextClock:
    def test_starts_in_unattributed_kernel(self):
        acct, clock = make_acct()
        clock.now = 100
        acct.settle()
        assert acct.kernel_cycles == 100
        assert acct.total_accounted() == 100

    def test_guest_push_splits_by_privilege(self):
        acct, clock = make_acct()
        ctx = acct.guest_push(1, guest_kernel_mode=True)
        clock.now = 40
        acct.pop(ctx)
        ctx = acct.guest_push(1, guest_kernel_mode=False)
        clock.now = 100
        acct.pop(ctx)
        acct.settle()
        vm = acct.vms[1]
        assert vm.guest_kernel_cycles == 40
        assert vm.guest_user_cycles == 60
        assert acct.kernel_cycles == 0

    def test_kernel_on_behalf_of_vm(self):
        acct, clock = make_acct()
        ctx = acct.push("kernel", 2)
        clock.now = 25
        acct.pop(ctx)
        clock.now = 30
        acct.settle()
        assert acct.vms[2].kernel_cycles == 25
        assert acct.kernel_cycles == 5

    def test_nested_push_charges_innermost(self):
        """A vIRQ injection inside a guest slice: the inner kernel context
        gets its cycles, the outer guest context resumes afterwards."""
        acct, clock = make_acct()
        outer = acct.guest_push(1, guest_kernel_mode=True)
        clock.now = 10
        inner = acct.push("kernel", 1)
        clock.now = 17
        acct.pop(inner)
        clock.now = 30
        acct.pop(outer)
        acct.settle()
        vm = acct.vms[1]
        assert vm.guest_kernel_cycles == 10 + 13
        assert vm.kernel_cycles == 7

    def test_charge_idle_lands_on_idle_ledger(self):
        acct, clock = make_acct()
        clock.now = 50                     # kernel time before the jump
        acct.charge_idle(200)              # engine reports, then advances
        clock.now = 250
        acct.settle()
        assert acct.kernel_cycles == 50
        assert acct.idle_cycles == 200
        assert acct.total_accounted() == 250

    def test_invariant_over_mixed_transitions(self):
        acct, clock = make_acct()
        for t, (kind, vm) in [(13, ("guest_kernel", 1)),
                              (29, ("kernel", 1)),
                              (31, ("guest_user", 2)),
                              (64, ("kernel", None))]:
            ctx = acct.push(kind, vm)
            clock.now = t
            acct.pop(ctx)
        acct.charge_idle(100)
        clock.now = 164
        acct.settle()
        assert acct.total_accounted() == clock.now - acct.start_cycle

    def test_bind_starts_at_current_clock(self):
        acct = VmAccounting(MetricsRegistry())
        clock = _Clock()
        clock.now = 1000
        acct.bind(clock)
        clock.now = 1100
        acct.settle()
        assert acct.start_cycle == 1000
        assert acct.kernel_cycles == 100


class TestUnboundIsNoop:
    """Every probe must be safe before bind() — standalone vGIC unit
    tests construct these objects without an accountant clock."""

    def test_all_probes_noop(self):
        reg = MetricsRegistry()
        acct = VmAccounting(reg)
        ctx = acct.push("kernel", 1)
        acct.pop(ctx)
        acct.guest_push(1, True)
        acct.charge_idle(100)
        acct.settle()
        acct.note_virq_pended(1, 5)
        acct.note_virq_injected(1, 5)
        acct.sync_prr_occupancy([_Prr(0, client_vm=1)])
        acct.close_prr_occupancy()
        assert acct.vms == {}
        assert acct.total_accounted() == 0
        assert reg.as_dict() == {"kernel.virq_delivery_cycles": {
            "count": 0, "sum": 0, "min": None, "max": None}}


class TestVirqLatency:
    def test_pend_to_inject_latency(self):
        reg = MetricsRegistry()
        acct, clock = make_acct(reg)
        clock.now = 100
        acct.note_virq_pended(1, 34)
        clock.now = 450
        acct.note_virq_injected(1, 34)
        assert acct.vms[1].virq_latency == [350]
        assert reg.total("kernel.virq_pended", vm=1) == 1
        assert acct.virq_latency_samples() == [350]

    def test_coalesced_pend_keeps_earliest_timestamp(self):
        """Re-pending an already-pending level IRQ must not reset the
        injection-to-delivery clock."""
        acct, clock = make_acct()
        clock.now = 100
        acct.note_virq_pended(1, 34)
        clock.now = 300
        acct.note_virq_pended(1, 34)
        clock.now = 500
        acct.note_virq_injected(1, 34)
        assert acct.vms[1].virq_latency == [400]

    def test_inject_without_pend_records_no_sample(self):
        acct, clock = make_acct()
        acct.register_vm(1)
        clock.now = 10
        acct.note_virq_injected(1, 34)
        assert acct.vms[1].virq_latency == []
        assert acct.virq_latency_samples() == []

    def test_dropped_pend_discards_timestamp(self):
        """Unregistering a pending vIRQ must not leave a stale timestamp
        that would corrupt a later pend of the same line."""
        acct, clock = make_acct()
        clock.now = 100
        acct.note_virq_pended(1, 34)
        acct.note_virq_dropped(1, 34)
        clock.now = 1000
        acct.note_virq_pended(1, 34)
        clock.now = 1010
        acct.note_virq_injected(1, 34)
        assert acct.vms[1].virq_latency == [10]

    def test_per_vm_keys_do_not_collide(self):
        acct, clock = make_acct()
        clock.now = 100
        acct.note_virq_pended(1, 34)
        clock.now = 200
        acct.note_virq_pended(2, 34)
        clock.now = 300
        acct.note_virq_injected(2, 34)
        clock.now = 600
        acct.note_virq_injected(1, 34)
        assert acct.vms[1].virq_latency == [500]
        assert acct.vms[2].virq_latency == [100]

    def test_metrics_mirror(self):
        reg = MetricsRegistry()
        acct, clock = make_acct(metrics=reg)
        clock.now = 100
        acct.note_virq_pended(1, 34)
        clock.now = 175
        acct.note_virq_injected(1, 34)
        h = reg.histogram("kernel.virq_delivery_cycles")
        assert h.count == 1 and h.sum == 75

    def test_sample_cap(self):
        acct, clock = make_acct()
        vm = acct.register_vm(1)
        vm.virq_latency = [0] * MAX_VIRQ_SAMPLES
        clock.now = 100
        acct.note_virq_pended(1, 34)
        clock.now = 200
        acct.note_virq_injected(1, 34)
        assert len(vm.virq_latency) == MAX_VIRQ_SAMPLES


class TestPrrOccupancy:
    def test_open_close_interval(self):
        acct, clock = make_acct()
        prr = _Prr(0, client_vm=None)
        acct.sync_prr_occupancy([prr])          # nothing held yet
        clock.now = 100
        prr.client_vm = 1
        acct.sync_prr_occupancy([prr])          # vm1 acquires at 100
        clock.now = 600
        prr.client_vm = None
        acct.sync_prr_occupancy([prr])          # released at 600
        assert acct.vms[1].prr_occupancy_cycles == 500

    def test_reclaim_closes_old_client(self):
        acct, clock = make_acct()
        prr = _Prr(2, client_vm=1)
        acct.sync_prr_occupancy([prr])
        clock.now = 300
        prr.client_vm = 2                       # reclaimed for vm2
        acct.sync_prr_occupancy([prr])
        clock.now = 1000
        acct.close_prr_occupancy()
        assert acct.vms[1].prr_occupancy_cycles == 300
        assert acct.vms[2].prr_occupancy_cycles == 700

    def test_close_is_idempotent_accrual(self):
        """close_prr_occupancy() accrues up to now and re-opens at now, so
        calling it twice (snapshot then render) must not double-charge."""
        acct, clock = make_acct()
        prr = _Prr(0, client_vm=1)
        acct.sync_prr_occupancy([prr])
        clock.now = 400
        acct.close_prr_occupancy()
        acct.close_prr_occupancy()
        assert acct.vms[1].prr_occupancy_cycles == 400

    def test_two_prrs_held_count_twice(self):
        acct, clock = make_acct()
        prrs = [_Prr(0, client_vm=3), _Prr(1, client_vm=3)]
        acct.sync_prr_occupancy(prrs)
        clock.now = 50
        acct.close_prr_occupancy()
        assert acct.vms[3].prr_occupancy_cycles == 100


class TestSnapshot:
    def test_snapshot_settles_and_sorts(self):
        acct, clock = make_acct()
        acct.register_vm(2, "beta")
        acct.register_vm(1, "alpha")
        ctx = acct.guest_push(2, True)
        clock.now = 80
        acct.pop(ctx)
        snap = acct.snapshot()
        assert snap["start_cycle"] == 0
        assert [v["vm_id"] for v in snap["vms"]] == [1, 2]
        assert snap["vms"][1]["guest_kernel_cycles"] == 80
        assert snap["total_accounted"] == 80

    def test_register_vm_updates_name(self):
        acct, _ = make_acct()
        acct.register_vm(1)
        acct.register_vm(1, "late-name")
        assert acct.vms[1].name == "late-name"

    def test_render_mentions_every_vm(self):
        reg = MetricsRegistry()
        acct, clock = make_acct(reg)
        acct.register_vm(1, "guest-a")
        reg.counter("kernel.hypercalls", hc="YIELD", vm=1).inc()
        clock.now = 10
        out = acct.render()
        assert "guest-a" in out
        assert "per-VM accounting" in out
        assert acct.snapshot()["vms"][0]["hypercalls"] == 1
