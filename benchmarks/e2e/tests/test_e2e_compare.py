"""compare.py verdicts under the bounds."""

from __future__ import annotations

from compare import compare, determinism, host_verdict
from summary import END_TO_END, spread


def s(*values):
    return spread(values)


def test_host_verdicts():
    base = s(10.0, 10.1, 10.2, 10.3, 10.4)
    assert base["median"] == 10.2
    assert host_verdict(base, s(10.3, 10.4, 10.5, 10.6, 10.7), 0.1,
                        "lower") == "ok"
    assert host_verdict(base, s(12.0, 12.1, 12.2, 12.3, 12.4), 0.1,
                        "lower") == "worse"
    assert host_verdict(base, s(12.0, 12.1, 12.2, 12.3, 12.4),
                        0.1, "higher") == "better"
    # IQR wider than the bound: unresolved, unless every rep beats every
    # base rep.
    noisy = s(8.0, 9.0, 11.0, 13.0, 14.0)
    assert host_verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert host_verdict(base, s(5.0, 6.0, 8.0, 9.0, 9.5), 0.1,
                        "lower") == "better"


def result(rss: float, p95: float) -> dict:
    host = {n: s(1.0, 1.0, 1.0) for n, (*_, d) in END_TO_END.items()
            if d == "host"}
    host["peak_rss_mb"] = s(rss, rss, rss)
    sim = {n: 100.0 for n, (*_, d) in END_TO_END.items() if d == "sim"}
    sim["request_p95_cycles"] = p95
    return {"seed": 1, "workloads": {"w": {"host": host, "sim": sim}}}


def test_compare_rows_and_determinism():
    a, b = result(50.0, 100.0), result(60.0, 101.0)
    verdicts = {name: v for _, name, v, _ in compare(a, b)}
    assert verdicts["peak_rss_mb"] == "worse"
    assert verdicts["request_p95_cycles"] == "changed"
    assert verdicts["ok_ratio"] == "same"
    assert determinism(a, result(60.0, 100.0)) == []
    assert determinism(a, b) == ["w"]
