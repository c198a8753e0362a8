"""L1/L2 hierarchy latency model."""

from repro.cache.hierarchy import AccessKind, CacheHierarchy
from repro.common.params import DEFAULT_PARAMS


def make():
    return CacheHierarchy(DEFAULT_PARAMS)


def test_latency_ladder():
    h = make()
    t = DEFAULT_PARAMS.cpu
    cold = h.access(0x10_0000)
    assert cold == t.l1_hit + t.l2_hit + t.dram
    warm = h.access(0x10_0000)
    assert warm == t.l1_hit


def test_l2_hit_after_l1_eviction():
    h = make()
    t = DEFAULT_PARAMS.cpu
    h.access(0x10_0000)
    # Evict from 4-way L1 set by filling 4 conflicting lines (same L1 set:
    # stride = l1 size / ways = 8 KB).
    for i in range(1, 5):
        h.access(0x10_0000 + i * 8 * 1024)
    lat = h.access(0x10_0000)
    assert lat == t.l1_hit + t.l2_hit      # still in L2


def test_fetch_goes_to_l1i_not_l1d():
    h = make()
    h.access(0x20_0000, kind=AccessKind.FETCH)
    assert h.l1i.stats.accesses == 1
    assert h.l1d.stats.accesses == 0
    # And vice versa.
    h.access(0x30_0000, kind=AccessKind.DATA)
    assert h.l1d.stats.accesses == 1


def test_walk_bypasses_l1():
    h = make()
    t = DEFAULT_PARAMS.cpu
    lat = h.access(0x40_0000, kind=AccessKind.WALK)
    assert lat == t.l2_hit + t.dram
    assert h.l1d.stats.accesses == 0 and h.l1i.stats.accesses == 0
    assert h.access(0x40_0000, kind=AccessKind.WALK) == t.l2_hit


def test_walk_line_serves_later_data_access_from_l2():
    h = make()
    t = DEFAULT_PARAMS.cpu
    h.access(0x40_0000, kind=AccessKind.WALK)
    assert h.access(0x40_0000, kind=AccessKind.DATA) == t.l1_hit + t.l2_hit


def test_dram_counter():
    h = make()
    h.access(0x10_0000)
    h.access(0x10_0000)
    h.access(0x50_0000, kind=AccessKind.WALK)
    assert h.l2.stats.misses == 2           # each one DRAM access


def test_flush_all_empties_and_costs():
    h = make()
    for i in range(64):
        h.access(0x10_0000 + i * 32, write=True)
    cost = h.flush_all()
    assert cost > 0
    assert h.l1d.resident_lines == 0 and h.l2.resident_lines == 0
    t = DEFAULT_PARAMS.cpu
    assert h.access(0x10_0000) == t.l1_hit + t.l2_hit + t.dram


def test_physical_tagging_same_pa_two_accesses_hit():
    # Two accesses to one PA hit regardless of which VA produced them —
    # modelled by the hierarchy being keyed on PA only (Section III-C).
    h = make()
    h.access(0x60_0000)
    assert h.access(0x60_0000) == DEFAULT_PARAMS.cpu.l1_hit


def test_snapshot_returns_copies():
    h = make()
    h.access(0x10_0000)
    snap = h.snapshot()
    h.access(0x20_0000)
    assert snap["l1d"].accesses == 1
    assert h.l1d.stats.accesses == 2
