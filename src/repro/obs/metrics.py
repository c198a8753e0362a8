"""Always-on kernel metrics: counters, gauges, fixed-bucket histograms.

Hot-path statistics (VM switches, vIRQ injections per VM, hypercalls by
number, PRR reconfigurations, TLB/cache flushes) are too frequent to trace
event-by-event on long runs but too valuable to lose.  The registry keeps
them as plain Python attributes behind pre-fetched handles, so a probe is
one attribute increment — cheap enough to stay enabled in every run.
Each machine owns one registry, and it is the only book of every count
it holds: components read their statistics back from it rather than
keeping a second tally.

Naming follows a ``subsystem.metric`` convention with optional labels,
e.g. ``kernel.hypercalls{hc=TIMER_SET}``; ``render()`` produces the
plain-text dump behind the CLI's ``--metrics`` flag.  Histograms use
*fixed* upper-bound buckets with ``<=`` (Prometheus ``le``) semantics: a
sample equal to a boundary lands in that boundary's bucket, and anything
above the last boundary lands in the implicit ``+Inf`` overflow bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

#: Default cycle-latency buckets: exponential-ish ladder covering one
#: cache hit (~tens of cycles) up to a full reconfiguration (~millions).
DEFAULT_BUCKETS = (100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000,
                   50_000, 100_000, 500_000, 1_000_000, 5_000_000)

LabelsKey = tuple[tuple[str, Any], ...]


def _labels_key(labels: dict[str, Any]) -> LabelsKey:
    return tuple(sorted(labels.items()))


def _labels_str(labels: LabelsKey) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """Monotonically increasing count (events, bytes, flushes...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}{_labels_str(self.labels)}={self.value}>"


class Gauge:
    """Point-in-time value (runnable PDs, ring occupancy...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}{_labels_str(self.labels)}={self.value}>"


class Histogram:
    """Fixed-bucket distribution with ``<=`` bucket semantics.

    ``buckets`` are the inclusive upper bounds; samples above the last
    bound are counted in the ``+Inf`` overflow slot (``counts[-1]``).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, buckets: tuple = DEFAULT_BUCKETS,
                 labels: LabelsKey = ()) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be non-empty and sorted: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)   # + the +Inf bucket
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, v) -> None:
        self.counts[bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile estimate from the bucket counts.

        ``q`` is a quantile in ``[0, 1]`` (``0.99`` = p99).  The estimate
        is the upper bound of the bucket holding the target rank, clamped
        to the observed ``[min, max]`` — so a single-sample histogram
        returns exactly that sample, and a rank landing in the ``+Inf``
        overflow bucket returns ``max`` (the histogram cannot resolve
        beyond its last bound).  An empty histogram returns ``None``
        rather than raising; an out-of-range ``q`` raises ``ValueError``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return None
        assert self.min is not None and self.max is not None
        if q == 0.0:
            return float(self.min)
        rank = max(1, -(-q * self.count // 1))      # ceil(q * count)
        cum = 0
        for bound, n in zip(self.buckets, self.counts):
            cum += n
            if cum >= rank:
                return float(min(max(bound, self.min), self.max))
        return float(self.max)      # rank fell in the +Inf overflow bucket

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name}{_labels_str(self.labels)} "
                f"n={self.count} mean={self.mean:.1f}>")


class MetricsRegistry:
    """Get-or-create store of named (and optionally labelled) metrics.

    Fetch a handle once (``c = m.counter("kernel.vm_switches")``) and hold
    it on the hot path; fetching again with the same name+labels returns
    the same object, so occasional re-lookup is safe too.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsKey], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labels_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labels_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, key[1])
        return g

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        key = (name, _labels_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, buckets, key[1])
        return h

    # -- introspection / export ---------------------------------------------

    def total(self, name: str, **labels: Any) -> int:
        """Sum a counter across every label set that carries ``labels``
        (``total("kernel.hypercalls", vm=2)`` sums one VM's series; 0 if
        none is registered).  Reading never registers a metric."""
        want = labels.items()
        return sum(c.value for (n, key), c in self._counters.items()
                   if n == name and want <= dict(key).items())

    def counters(self) -> list[Counter]:
        return [self._counters[k] for k in sorted(self._counters, key=str)]

    def gauges(self) -> list[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges, key=str)]

    def histograms(self) -> list[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms, key=str)]

    def as_dict(self) -> dict[str, Any]:
        """Flat snapshot (counter/gauge values, histogram summaries) for
        tests and JSON dumps."""
        out: dict[str, Any] = {}
        for c in self.counters():
            out[c.name + _labels_str(c.labels)] = c.value
        for g in self.gauges():
            out[g.name + _labels_str(g.labels)] = g.value
        for h in self.histograms():
            out[h.name + _labels_str(h.labels)] = {
                "count": h.count, "sum": h.sum, "min": h.min, "max": h.max,
            }
        return out

    def render(self) -> str:
        """Plain-text dump (the CLI's ``--metrics`` output)."""
        lines: list[str] = ["=== metrics ==="]
        for c in self.counters():
            lines.append(f"counter   {c.name}{_labels_str(c.labels)} "
                         f"= {c.value}")
        for g in self.gauges():
            lines.append(f"gauge     {g.name}{_labels_str(g.labels)} "
                         f"= {g.value}")
        for h in self.histograms():
            lines.append(
                f"histogram {h.name}{_labels_str(h.labels)} "
                f"count={h.count} sum={h.sum} min={h.min} max={h.max} "
                f"mean={h.mean:.1f}")
            if h.count:
                for bound, n in zip(h.buckets, h.counts):
                    if n:
                        lines.append(f"    le={bound}: {n}")
                if h.counts[-1]:
                    lines.append(f"    le=+Inf: {h.counts[-1]}")
        return "\n".join(lines)
