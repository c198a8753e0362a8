"""Declarative SLO engine evaluated over the telemetry stream.

Rules are plain JSON (``{"slos": [...]}``, see docs/OBSERVABILITY.md
§12) and come in three kinds, all windowed over *sliding sim-time*
windows fed by stream ``delta`` records:

``latency_p99``
    A percentile ceiling on a histogram metric: merge the bucket deltas
    that fell inside ``window_cycles``, estimate ``quantile`` (default
    0.99) by bucket upper bound, breach when it exceeds ``max``.

``rate_floor``
    A recovery-rate floor: windowed ``numerator`` / ``denominator``
    counter increments must stay >= ``min_ratio`` (evaluated only once
    the denominator has at least ``min_denominator`` events in window —
    a rate over nothing is not a signal).

``error_budget``
    Serving-style burn rate: with ``objective`` as the good fraction
    (e.g. 0.999), the windowed ``bad / (good + bad)`` ratio divided by
    the budget ``1 - objective`` is the burn rate; breach when it
    exceeds ``max_burn_rate``.

Breaches are recorded as structured ``slo_breach`` records on the
stream (one per ok->breach transition, not per evaluation), counted in
the ``slo.breaches`` metric, and surfaced to the CLI, which exits with
:data:`EXIT_SLO_BREACH` when any rule breached.

Counter rules match metric *names* (label sets are summed); histogram
rules match one histogram name (label variants merge — same ladder).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: ``python -m repro run/bench --slo`` exit status on any breach.
EXIT_SLO_BREACH = 3

_KINDS = ("latency_p99", "rate_floor", "error_budget")


@dataclass(frozen=True)
class SloRule:
    """One parsed rule; ``params`` holds the kind-specific fields."""

    name: str
    kind: str
    window_cycles: int
    params: dict[str, Any] = field(default_factory=dict)


def parse_slo_config(cfg: dict[str, Any]) -> list[SloRule]:
    """Validate a ``{"slos": [...]}`` dict into rules (ValueError on bad)."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("slos"), list):
        raise ValueError("SLO config must be a dict with an 'slos' list")
    rules: list[SloRule] = []
    seen: set[str] = set()
    for i, raw in enumerate(cfg["slos"]):
        if not isinstance(raw, dict):
            raise ValueError(f"slos[{i}] is not an object")
        name = raw.get("name")
        kind = raw.get("kind")
        window = raw.get("window_cycles")
        if not name or not isinstance(name, str):
            raise ValueError(f"slos[{i}]: missing 'name'")
        if name in seen:
            raise ValueError(f"duplicate SLO name {name!r}")
        seen.add(name)
        if kind not in _KINDS:
            raise ValueError(f"SLO {name!r}: unknown kind {kind!r} "
                             f"(known: {', '.join(_KINDS)})")
        if not isinstance(window, int) or window <= 0:
            raise ValueError(f"SLO {name!r}: window_cycles must be a "
                             f"positive integer")
        required = {
            "latency_p99": ("histogram", "max"),
            "rate_floor": ("numerator", "denominator", "min_ratio"),
            "error_budget": ("good", "bad", "objective", "max_burn_rate"),
        }[kind]
        for key in required:
            if key not in raw:
                raise ValueError(f"SLO {name!r} ({kind}): missing {key!r}")
        if kind == "latency_p99":
            q = raw.get("quantile", 0.99)
            if not 0.0 < q <= 1.0:
                raise ValueError(f"SLO {name!r}: quantile out of (0, 1]")
        if kind == "error_budget" and not 0.0 < raw["objective"] < 1.0:
            raise ValueError(f"SLO {name!r}: objective out of (0, 1)")
        params = {k: v for k, v in raw.items()
                  if k not in ("name", "kind", "window_cycles")}
        rules.append(SloRule(name=name, kind=kind, window_cycles=window,
                             params=params))
    return rules


def load_slo_config(path: str) -> list[SloRule]:
    with open(path, encoding="utf-8") as f:
        return parse_slo_config(json.load(f))


def _metric_name(key: str) -> str:
    """``kernel.hypercalls{hc=TIMER_SET}`` -> ``kernel.hypercalls``."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def evaluate_rate_floor(num: float, den: float, *, min_ratio: float,
                        min_denominator: int = 1
                        ) -> tuple[float | None, bool]:
    """The ``rate_floor`` predicate, shared between :class:`SloEngine`
    windows and offline gates (the surge series' goodput floor):
    returns ``(observed_ratio, breaching)``.  Below ``min_denominator``
    the ratio is statistically meaningless and never breaches."""
    if den >= min_denominator and den > 0:
        observed = num / den
        return observed, observed < min_ratio
    return None, False


def _bucket_quantile(buckets, counts, q: float) -> float | None:
    """Quantile by bucket upper bound; overflow bucket -> +inf."""
    total = sum(counts)
    if not total:
        return None
    rank = max(1, -(-q * total // 1))               # ceil(q * total)
    cum = 0
    for bound, n in zip(buckets, counts):
        cum += n
        if cum >= rank:
            return float(bound)
    return float("inf")                             # fell in +Inf overflow


class _RuleState:
    __slots__ = ("rule", "window", "breaching")

    def __init__(self, rule: SloRule) -> None:
        self.rule = rule
        self.window: deque = deque()                # (t, payload)
        self.breaching = False

    def trim(self, now: int) -> None:
        horizon = now - self.rule.window_cycles
        while self.window and self.window[0][0] <= horizon:
            self.window.popleft()


class SloEngine:
    """Evaluates rules against stream deltas; attach with :meth:`attach`."""

    def __init__(self, rules, *, metrics=None) -> None:
        self.rules = list(rules)
        self._states = [_RuleState(r) for r in self.rules]
        self._stream = None
        self.evaluations = 0
        self.breaches: list[dict[str, Any]] = []
        if metrics is not None:
            self._c_evals = metrics.counter("slo.evaluations")
            self._c_breaches = metrics.counter("slo.breaches")
        else:
            self._c_evals = self._c_breaches = None

    @property
    def ok(self) -> bool:
        return not self.breaches

    def attach(self, stream) -> None:
        """Subscribe to a :class:`~repro.obs.stream.TelemetryStream`."""
        self._stream = stream
        stream.subscribe(self.observe)

    # -- evaluation ---------------------------------------------------------

    def observe(self, record: dict[str, Any]) -> None:
        """Stream subscriber: folds ``delta`` records into the windows."""
        if record.get("type") != "delta":
            return
        t = record["t"]
        for st in self._states:
            self._ingest(st, t, record)
            st.trim(t)
            self._evaluate(st, t)

    def _counter_inc(self, record: dict[str, Any], name: str) -> int:
        return sum(v for k, v in record.get("counters", {}).items()
                   if _metric_name(k) == name)

    def _ingest(self, st: _RuleState, t: int, record: dict[str, Any]) -> None:
        r = st.rule
        if r.kind == "latency_p99":
            target = r.params["histogram"]
            for key, d in record.get("histograms", {}).items():
                if _metric_name(key) == target and d["count"]:
                    st.window.append((t, (tuple(d["buckets"]),
                                          tuple(d["counts"]))))
        elif r.kind == "rate_floor":
            num = self._counter_inc(record, r.params["numerator"])
            den = self._counter_inc(record, r.params["denominator"])
            if num or den:
                st.window.append((t, (num, den)))
        else:                                       # error_budget
            good = self._counter_inc(record, r.params["good"])
            bad = self._counter_inc(record, r.params["bad"])
            if good or bad:
                st.window.append((t, (good, bad)))

    def _evaluate(self, st: _RuleState, t: int) -> None:
        r = st.rule
        self.evaluations += 1
        if self._c_evals is not None:
            self._c_evals.inc()
        observed: float | None = None
        limit: float
        breaching = False
        if r.kind == "latency_p99":
            limit = float(r.params["max"])
            q = float(r.params.get("quantile", 0.99))
            merged: dict[tuple, list[int]] = {}
            for _, (buckets, counts) in st.window:
                acc = merged.setdefault(buckets, [0] * len(counts))
                for i, n in enumerate(counts):
                    acc[i] += n
            # Label variants share the default ladder in practice; with
            # several ladders in window, the worst estimate gates.
            for buckets, counts in merged.items():
                est = _bucket_quantile(buckets, counts, q)
                if est is not None and (observed is None or est > observed):
                    observed = est
            breaching = observed is not None and observed > limit
        elif r.kind == "rate_floor":
            limit = float(r.params["min_ratio"])
            min_den = int(r.params.get("min_denominator", 1))
            num = sum(n for _, (n, _) in st.window)
            den = sum(d for _, (_, d) in st.window)
            observed, breaching = evaluate_rate_floor(
                num, den, min_ratio=limit, min_denominator=min_den)
        else:                                       # error_budget
            limit = float(r.params["max_burn_rate"])
            budget = 1.0 - float(r.params["objective"])
            good = sum(g for _, (g, _) in st.window)
            bad = sum(b for _, (_, b) in st.window)
            total = good + bad
            if total > 0:
                observed = (bad / total) / budget
                breaching = observed > limit
        if breaching and not st.breaching:
            st.breaching = True
            # A p99 in the +Inf overflow bucket is unresolvable; keep the
            # record strict-JSON-safe with a sentinel string.
            obs_out = ("overflow" if observed == float("inf") else observed)
            ev = {"slo": r.name, "kind": r.kind, "t": t,
                  "observed": obs_out, "limit": limit,
                  "window_cycles": r.window_cycles}
            self.breaches.append(ev)
            if self._c_breaches is not None:
                self._c_breaches.inc()
            if self._stream is not None:
                self._stream._emit("slo_breach", ev)
        elif not breaching:
            st.breaching = False

    def summary(self) -> dict[str, Any]:
        """JSON-stable result block (embedded in bench artifacts)."""
        return {
            "rules": [r.name for r in self.rules],
            "evaluations": self.evaluations,
            "breaches": self.breaches,
            "ok": self.ok,
        }
