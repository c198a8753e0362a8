"""Metric definitions, statistics and the clock shared by run.py, the reps
and compare.py.

Free of simulator imports: run.py only launches reps and reduces what they
report.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

#: BENCHMARK.json at the repository root.
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: End-to-end metrics: name -> (unit, better, domain).  *host* metrics are
#: measured per rep, with times scaled to the reference machine speed
#: (``refloop.py``), and reported as the median rep of the run, or for the
#: two throughputs as total work over total time of the run's reps; *sim*
#: metrics are simulated-domain values pooled over the fixed rounds, exact
#: for a given seed.  Request latency is reported as
#: mean and p95, not p50: fleet latencies are whole dispatcher ticks, so a
#: fleet p50 jumps by a tick (up to a third of its value) from one seed to
#: the next.
END_TO_END = {
    "setup_s": ("s", "lower", "host"),
    "sim_cycles_per_host_s": ("cycles/s", "higher", "host"),
    "host_ms_per_request": ("ms", "lower", "host"),
    "peak_rss_mb": ("MB", "lower", "host"),
    "goodput_per_sim_s": ("req/s", "higher", "sim"),
    "ok_ratio": ("ratio", "higher", "sim"),
    "request_mean_cycles": ("cycles", "lower", "sim"),
    "request_p95_cycles": ("cycles", "lower", "sim"),
}

#: A p95 is reported only over at least this many pooled samples, so at
#: least ten samples lie beyond it.
MIN_P95_SAMPLES = 200


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes (run.py
    stamps a rep's launch, the rep measures its set-up against it)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, ``q`` in ``[0, 1]`` (the convention of
    ``repro.obs.analytics.percentile_of_samples``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    s = sorted(samples)
    rank = max(1, -(-q * len(s) // 1))          # ceil(q * n)
    return float(s[int(rank) - 1])


def spread(values) -> dict:
    """Median and quartiles of repeated host measurements (one per rep).
    ``value``, the reported value, is the median unless the caller pools
    the reps another way."""
    values = list(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": med, "median": med, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "samples": values}
