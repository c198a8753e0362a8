"""Property tests for the snapshot merge law (docs/OBSERVABILITY.md §11).

The law under test: :class:`MetricSnapshot` is a commutative monoid
under ``merge``, and because every metric is integer-valued the merge is
*exact* — merging K per-shard snapshots in any order/grouping is
byte-identical (``canonical_bytes``) to single-process accumulation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.scenarios import build_virtualized
from repro.obs.aggregate import (
    HistState,
    MetricSnapshot,
    apply_delta,
    delta_between,
    merge_all,
)
from repro.obs.metrics import MetricsRegistry

LADDER = (10, 100, 1000)

names = st.sampled_from(
    ["a.ticks", "a.faults", "b.ticks", "b.lat_cycles", "c.depth"])
values = st.integers(min_value=0, max_value=10**9)


@st.composite
def hist_states(draw):
    n = len(LADDER) + 1                     # +Inf overflow bucket
    counts = tuple(draw(st.lists(st.integers(0, 50),
                                 min_size=n, max_size=n)))
    count = sum(counts)
    if count == 0:
        return HistState(buckets=LADDER, counts=counts, count=0, sum=0,
                         min=None, max=None)
    lo = draw(st.integers(0, 5000))
    hi = draw(st.integers(lo, 10000))
    total = draw(st.integers(lo * count, hi * count))
    return HistState(buckets=LADDER, counts=counts, count=count,
                     sum=total, min=lo, max=hi)


@st.composite
def snapshots(draw):
    counters = draw(st.dictionaries(names, values, max_size=4))
    gauges = draw(st.dictionaries(names, values, max_size=3))
    hists = draw(st.dictionaries(names, hist_states(), max_size=3))
    return MetricSnapshot(counters=counters, gauges=gauges,
                          histograms=hists)


class TestMergeLaws:
    @given(snapshots(), snapshots())
    def test_commutative(self, a, b):
        assert (a + b).canonical_bytes() == (b + a).canonical_bytes()

    @given(snapshots(), snapshots(), snapshots())
    @settings(max_examples=50)
    def test_associative(self, a, b, c):
        assert ((a + b) + c).canonical_bytes() == \
            (a + (b + c)).canonical_bytes()

    @given(snapshots())
    def test_identity(self, a):
        e = MetricSnapshot.empty()
        assert (a + e).canonical_bytes() == a.canonical_bytes()
        assert (e + a).canonical_bytes() == a.canonical_bytes()

    @given(st.lists(snapshots(), max_size=5), st.randoms())
    @settings(max_examples=50)
    def test_merge_all_order_independent(self, snaps, rnd):
        shuffled = list(snaps)
        rnd.shuffle(shuffled)
        assert merge_all(snaps).canonical_bytes() == \
            merge_all(shuffled).canonical_bytes()

    @given(snapshots(), snapshots())
    def test_counter_sums_and_minmax_folds(self, a, b):
        m = a + b
        for k in set(a.counters) | set(b.counters):
            assert m.counters[k] == a.counters.get(k, 0) + b.counters.get(k, 0)
        for k in set(a.histograms) & set(b.histograms):
            ha, hb, hm = a.histograms[k], b.histograms[k], m.histograms[k]
            assert hm.count == ha.count + hb.count
            assert hm.sum == ha.sum + hb.sum
            lo = [x for x in (ha.min, hb.min) if x is not None]
            if lo:
                assert hm.min == min(lo)

    def test_ladder_mismatch_raises(self):
        a = HistState(buckets=(1, 2), counts=(0, 0, 0), count=0, sum=0,
                      min=None, max=None)
        b = HistState(buckets=(1, 3), counts=(0, 0, 0), count=0, sum=0,
                      min=None, max=None)
        with pytest.raises(ValueError, match="bucket ladders"):
            a.merge(b)


class TestRoundTrip:
    @given(snapshots())
    def test_dict_round_trip(self, a):
        assert MetricSnapshot.from_dict(a.to_dict()).canonical_bytes() == \
            a.canonical_bytes()

    @given(snapshots(), snapshots())
    @settings(max_examples=50)
    def test_delta_fold(self, prev, nxt):
        """prev + delta(prev, prev+nxt) == prev+nxt (delta/apply inverse).

        Modulo zero-valued counters: a counter at 0 is indistinguishable
        from an absent one in a sparse delta, so the folded image may
        lack it — the real stream closes this gap by carrying the full
        registered-at-attach snapshot in the header record."""
        cur = prev + nxt
        body = delta_between(prev, cur)
        folded = apply_delta(prev, body)

        def norm(s):
            return MetricSnapshot(
                counters={k: v for k, v in s.counters.items() if v},
                gauges=s.gauges, histograms=s.histograms)

        assert norm(folded).canonical_bytes() == norm(cur).canonical_bytes()


def _shard_registry(seed: int) -> MetricsRegistry:
    """A registry exercised like one fleet shard (deterministic per seed)."""
    reg = MetricsRegistry()
    reg.counter("shard.ops").inc(seed * 7 + 3)
    reg.counter("shard.errors", kind="crc").inc(seed % 3)
    reg.gauge("shard.depth").set(seed)
    h = reg.histogram("shard.lat_cycles", buckets=LADDER)
    for i in range(seed * 5 + 1):
        h.observe((i * 37 + seed) % 1500)
    return reg


class TestKWayShardMerge:
    def test_shards_equal_single_process(self):
        """K per-shard snapshots merge to the single-registry totals."""
        shards = [MetricSnapshot.of(_shard_registry(s)) for s in range(1, 6)]
        single = MetricsRegistry()
        single.gauge("shard.depth").set(15)     # gauges add under merge
        for s in range(1, 6):
            single.counter("shard.ops").inc(s * 7 + 3)
            single.counter("shard.errors", kind="crc").inc(s % 3)
            h = single.histogram("shard.lat_cycles", buckets=LADDER)
            for i in range(s * 5 + 1):
                h.observe((i * 37 + s) % 1500)
        assert merge_all(shards).canonical_bytes() == \
            MetricSnapshot.of(single).canonical_bytes()

    def test_real_scenario_shards(self):
        """Soak-style law: per-run snapshots of real seeded scenarios merge

        to exactly the element-wise totals, regardless of grouping."""
        snaps = []
        for seed in (1, 2, 3):
            sc = build_virtualized(1, seed=seed)
            sc.run_ms(20)
            snaps.append(MetricSnapshot.of(sc.metrics))
        left = (snaps[0] + snaps[1]) + snaps[2]
        right = snaps[0] + (snaps[1] + snaps[2])
        assert left.canonical_bytes() == right.canonical_bytes()
        merged = merge_all(snaps)
        key = "kernel.vm_switches{vm=2}"          # the guest's switch-ins
        assert merged.counters[key] == sum(s.counters[key] for s in snaps)
        key = "kernel.vm_switch_cycles"
        assert merged.histograms[key].count == sum(
            s.histograms[key].count for s in snaps)
        assert merged.histograms[key].counts == tuple(
            sum(s.histograms[key].counts[i] for s in snaps)
            for i in range(len(merged.histograms[key].counts)))
