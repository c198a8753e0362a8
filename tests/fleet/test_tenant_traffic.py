"""TenantSpec/TenantRecord contracts + open-loop traffic determinism."""

import pytest

from repro.fleet.invariants import check_ledger
from repro.fleet.tenant import (BESTEFFORT, CRITICAL, RUNNING, SERVED,
                                SHED_ON_ARRIVAL, TenantRecord, TenantSpec)
from repro.fleet.traffic import TrafficModel


class TestTenantSpec:
    def test_roundtrip(self):
        spec = TenantSpec(name="t0", tclass=BESTEFFORT, kind="qam",
                          seed=9, frames=100, checkpoint_every=3)
        assert TenantSpec.from_dict(spec.as_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="x", tclass="gold")
        with pytest.raises(ValueError):
            TenantSpec(name="x", kind="dct")

    def test_defaults_are_open_ended_critical(self):
        spec = TenantSpec(name="t")
        assert spec.tclass == CRITICAL
        assert spec.frames >= 1 << 30


class TestTenantRecord:
    def test_accounting_identity(self):
        rec = TenantRecord(spec=TenantSpec(name="t"))
        for t in range(5):
            rec.arrive(t, None)
        rec.arrive(5, SHED_ON_ARRIVAL)
        rec.arrive(6, SHED_ON_ARRIVAL)
        for _ in range(3):
            rec.end_head(6, SERVED)
        assert list(rec.queue) == [3, 4]
        assert check_ledger(rec, deadline=8) == []  # F4 holds
        d = rec.as_dict()
        assert (d["arrived"], d["served"], d["shed_requests"]) == (7, 3, 2)
        assert d["queued"] == 2 and d["state"] == RUNNING


class TestTrafficModel:
    def test_same_seed_same_arrivals(self):
        names = ["a", "b", "c"]
        t1 = TrafficModel(names, seed=5, rate_per_tick=1.5)
        t2 = TrafficModel(names, seed=5, rate_per_tick=1.5)
        seq1 = [t1.arrivals(t) for t in range(20)]
        seq2 = [t2.arrivals(t) for t in range(20)]
        assert seq1 == seq2

    def test_tenants_are_decorrelated(self):
        t = TrafficModel(["a", "b"], seed=5, rate_per_tick=2.0)
        seq = [t.arrivals(i) for i in range(40)]
        assert [s["a"] for s in seq] != [s["b"] for s in seq]

    def test_square_wave_burst(self):
        t = TrafficModel(["a"], seed=1, rate_per_tick=1.0,
                         burst_period_ticks=4, burst_factor=3.0)
        assert t.intensity(0) == 1.0
        assert t.intensity(3) == 1.0
        assert t.intensity(4) == 3.0        # second half-period bursts
        assert t.intensity(7) == 3.0
        assert t.intensity(8) == 1.0

    def test_zero_rate_means_silence(self):
        t = TrafficModel(["a"], seed=1, rate_per_tick=0.0)
        assert all(n == 0 for tick in range(10)
                   for n in t.arrivals(tick).values())

    def test_same_seed_tape_is_byte_identical(self):
        # The rerun guarantee at its root: the full arrival tape,
        # JSON-encoded, is byte-equal across same-seed instances.
        import json

        def tape():
            t = TrafficModel(["a", "b", "c"], seed=11, rate_per_tick=0.7,
                             burst_period_ticks=8, burst_factor=3.0)
            t.schedule_surge(5, 4, 6.0)
            return json.dumps([t.arrivals(i) for i in range(64)],
                              sort_keys=True).encode()

        assert tape() == tape()

    def test_totals_track_intensity(self):
        # Arrivals are Poisson(rate * intensity(t)) with one draw per
        # tenant per tick, so the long-run total must track
        # rate * sum(intensity) — and a zero-intensity tick is silent.
        n_tenants, ticks = 8, 400
        t = TrafficModel([f"t{i}" for i in range(n_tenants)], seed=3,
                         rate_per_tick=0.5, burst_period_ticks=10,
                         burst_factor=4.0)
        total = sum(sum(t.arrivals(i).values()) for i in range(ticks))
        expected = 0.5 * n_tenants * sum(t.intensity(i)
                                         for i in range(ticks))
        assert expected * 0.85 <= total <= expected * 1.15

    def test_zero_intensity_window_is_silent(self):
        t = TrafficModel(["a", "b"], seed=7, rate_per_tick=2.0,
                         burst_factor=1.0)
        t.schedule_surge(3, 4, 0.0)     # a blackout, not a surge
        for tick in range(3, 7):
            assert t.intensity(tick) == 0.0
            assert all(n == 0 for n in t.arrivals(tick).values())


class TestSurgeKnob:
    def test_surge_multiplies_intensity_in_window_only(self):
        t = TrafficModel(["a"], seed=1, rate_per_tick=1.0,
                         burst_period_ticks=4, burst_factor=3.0)
        t.schedule_surge(2, 3, 5.0)
        assert t.intensity(1) == 1.0
        assert t.intensity(2) == 5.0
        assert t.intensity(4) == 15.0   # stacks on the square wave
        assert t.intensity(5) == 3.0    # window closed

    def test_bad_surge_rejected(self):
        t = TrafficModel(["a"], seed=1, rate_per_tick=1.0)
        with pytest.raises(ValueError):
            t.schedule_surge(0, 0, 2.0)
        with pytest.raises(ValueError):
            t.schedule_surge(0, 1, -1.0)
