"""Latency analytics: percentile summaries and critical-path breakdowns.

The paper's whole evaluation is latency *distributions* — vCPU switch
costs (Table I), virtualization overhead (Table III), reconfiguration
latency and the Fig. 9 degradation curves — so raw traces and bucket
counts are not enough.  This module turns both measurement substrates
into the same summary shape:

* :class:`SeriesSummary` — count / mean / p50 / p90 / p99 / min / max,
  computed either from **exact samples** (trace-span durations, nearest
  rank) or from **Histogram buckets**
  (:meth:`~repro.obs.metrics.Histogram.percentile` estimates);
* :func:`request_events` — the one join of a hardware-task request's
  trace events, keyed by its request ID (docs/OBSERVABILITY.md §5);
* :func:`dpr_chains` — per-request critical-path breakdown of the DPR
  lifecycle (request trap → manager decision → PCAP streaming →
  reconfiguration landed);
* :func:`plirq_latency_samples` — PL-IRQ injection-to-delivery latency
  per distribution sequence (routing + injection halves).

Everything here is pure computation over a :class:`Tracer` /
:class:`Histogram` — no simulation state, so it is equally usable on a
live scenario, in tests, and in the ``python -m repro bench`` artifact
pipeline (see docs/BENCHMARKS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .metrics import Histogram
from .trace import TraceEvent, Tracer

#: Quantiles every summary reports.
QUANTILES = (0.50, 0.90, 0.99)


def percentile_of_samples(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile of exact samples; ``q`` in ``[0, 1]``.

    Returns ``None`` for an empty sequence (mirrors
    :meth:`Histogram.percentile`).  The input need not be sorted.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    if not samples:
        return None
    s = sorted(samples)
    if q == 0.0:
        return float(s[0])
    rank = max(1, -(-q * len(s) // 1))          # ceil(q * n)
    return float(s[int(rank) - 1])


@dataclass(frozen=True)
class SeriesSummary:
    """Distribution summary of one latency series (cycles by default)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    min: float
    max: float
    unit: str = "cycles"

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     unit: str = "cycles") -> "SeriesSummary":
        """Exact summary (nearest-rank percentiles) over raw samples."""
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, unit)
        s = sorted(samples)
        p50, p90, p99 = (percentile_of_samples(s, q) for q in QUANTILES)
        return cls(count=len(s), mean=sum(s) / len(s),
                   p50=float(p50), p90=float(p90), p99=float(p99),
                   min=float(s[0]), max=float(s[-1]), unit=unit)

    @classmethod
    def from_histogram(cls, h: Histogram,
                       unit: str = "cycles") -> "SeriesSummary":
        """Bucket-estimated summary (upper-bound percentiles clamped to
        the observed min/max — see :meth:`Histogram.percentile`)."""
        if h.count == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, unit)
        p50, p90, p99 = (h.percentile(q) for q in QUANTILES)
        return cls(count=h.count, mean=h.mean,
                   p50=float(p50), p90=float(p90), p99=float(p99),
                   min=float(h.min), max=float(h.max), unit=unit)

    def scaled(self, factor: float, unit: str) -> "SeriesSummary":
        """The same distribution in another unit (e.g. cycles -> µs)."""
        return SeriesSummary(
            count=self.count, mean=self.mean * factor,
            p50=self.p50 * factor, p90=self.p90 * factor,
            p99=self.p99 * factor, min=self.min * factor,
            max=self.max * factor, unit=unit)

    def as_dict(self) -> dict[str, Any]:
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p90": self.p90, "p99": self.p99, "min": self.min,
                "max": self.max, "unit": self.unit}


def summarize(samples_or_hist, unit: str = "cycles") -> SeriesSummary:
    """Summarize either a :class:`Histogram` or a sample sequence."""
    if isinstance(samples_or_hist, Histogram):
        return SeriesSummary.from_histogram(samples_or_hist, unit)
    return SeriesSummary.from_samples(samples_or_hist, unit)


# ------------------------------------------------------- request join

def request_events(tracer: Tracer, names: Sequence[str]
                   ) -> list[tuple[TraceEvent, ...]]:
    """Join each hardware-task request's events by its request ID.

    Every event on a request's path carries the ``rid`` stamped at its
    HWTASK_REQUEST trap; other manager work carries ``rid=None`` and
    never joins (docs/OBSERVABILITY.md §5).  Returns, per request that
    reached every event in ``names``, those events in ``names`` order —
    the first of a repeated name, so a retried PCAP transfer keeps its
    first ``pcap_xfer_start`` — ordered by the last event's time.
    """
    by_rid: dict[int, dict[str, TraceEvent]] = {}
    for name in names:
        for e in tracer.find(name):
            rid = e.info.get("rid")
            if rid is not None:
                by_rid.setdefault(rid, {}).setdefault(name, e)
    out = [tuple(ev[n] for n in names) for ev in by_rid.values()
           if all(n in ev for n in names)]
    out.sort(key=lambda evs: evs[-1].t)
    return out


# --------------------------------------------------------------- DPR chains

@dataclass(frozen=True)
class DprChain:
    """Critical path of one reconfiguring hardware-task request.

    Stage boundaries (all cycle timestamps from the trace):

    * ``entry``       — SVC trap → manager's first instruction
    * ``decide``      — manager start → PCAP streaming launched (task
      lookup, PRR selection, reclaim, mapping, hwMMU load)
    * ``pcap``        — bitstream streaming into the PRR, from the first
      launch to landing: a retried transfer's failed attempts and
      backoff are included
    * ``resume``      — manager posted the result → requester resumed
      (overlaps ``pcap``: stage 6 explicitly does not await completion)
    * ``ready``       — trap → reconfiguration landed: the end-to-end
      latency until the new task is usable by the guest
    """

    vm: int
    prr: int
    task: str
    t_request: int
    entry: int
    decide: int
    pcap: int
    resume: int
    ready: int

    def as_dict(self) -> dict[str, Any]:
        return {"vm": self.vm, "prr": self.prr, "task": self.task,
                "t_request": self.t_request, "entry": self.entry,
                "decide": self.decide, "pcap": self.pcap,
                "resume": self.resume, "ready": self.ready}


def dpr_chains(tracer: Tracer) -> list[DprChain]:
    """One chain per landed reconfiguration, in landing order: the PCAP
    transfer carries the ``rid`` of the request that launched it.

    Requests that hit a resident task (no reconfiguration) produce no
    chain here — their latency is fully described by the Table III
    classes.
    """
    out: list[DprChain] = []
    for trap, exec_start, exec_end, resumed, xs, xe in request_events(
            tracer, ("hwreq_trap", "mgr_exec_start", "mgr_exec_end",
                     "hwreq_resumed", "pcap_xfer_start", "pcap_xfer_end")):
        out.append(DprChain(
            vm=trap.info.get("vm", 0),
            prr=xs.info.get("prr", -1),
            task=str(xs.info.get("task", "?")),
            t_request=trap.t,
            entry=exec_start.t - trap.t,
            decide=xs.t - exec_start.t,
            pcap=xe.t - xs.t,
            resume=resumed.t - exec_end.t,
            ready=xe.t - trap.t))
    return out


def dpr_stage_summaries(chains: Iterable[DprChain]) -> dict[str, SeriesSummary]:
    """Per-stage distribution summaries over a set of DPR chains."""
    chains = list(chains)
    out: dict[str, SeriesSummary] = {}
    for stage in ("entry", "decide", "pcap", "resume", "ready"):
        out[stage] = SeriesSummary.from_samples(
            [getattr(c, stage) for c in chains])
    return out


# ------------------------------------------------------------ vIRQ latency

def plirq_latency_samples(tracer: Tracer) -> list[int]:
    """PL-IRQ injection-to-delivery latency per distribution sequence:
    the routing half (exception vector → vGIC pend) plus the injection
    half (vGIC scan → guest forced to its IRQ entry), matching the
    Table III "PL IRQ entry" definition.  An injection whose routing
    half fell out of the ring counts its injection half alone."""
    route = {s.info["seq"]: d
             for d, s, _ in tracer.spans("plirq_route", key="seq")}
    return [route.pop(s.info["seq"], 0) + d
            for d, s, _ in tracer.spans("plirq_inject", key="seq")]
