"""Flight recorder: deterministic post-mortem bundles for incidents.

Armed on a kernel (:meth:`FlightRecorder.arm` sets ``kernel.flight``),
the recorder dumps a single post-mortem bundle the first time something
goes wrong — an invariant violation (I1-I8, L1-L6, reported through
:func:`repro.hwmgr.invariants.report_violations`), a fault schedule's
check failure, a VM halted on an exhausted restart budget, or an unhandled
exception escaping the kernel run loop.  Later triggers in the same run
are counted but suppressed: the first bundle is the interesting one, and
first-wins keeps the artifact deterministic.

The bundle is sorted-keys JSON containing everything a post-mortem
needs and nothing host-dependent: the last-N trace-ring tail, a full
:class:`~repro.obs.aggregate.MetricSnapshot`, the per-VM cycle ledger,
the active :class:`~repro.faults.plan.FaultPlan` state, the scenario
seed, the sim cycle, and a fresh invariant sweep taken at dump time.
Same seed + same injected fault => byte-identical bundle (tested in
``tests/obs/test_flight.py``; docs/OBSERVABILITY.md §13 documents the
layout).  Inspect one with ``python -m repro postmortem <bundle>``.
"""

from __future__ import annotations

import json
from typing import Any

from .aggregate import MetricSnapshot

#: Bump when the bundle layout changes.
FLIGHT_SCHEMA_VERSION = 1

#: Trace-ring tail length captured in a bundle.
DEFAULT_LAST_N = 256

_REQUIRED_KEYS = {
    "schema_version": int,
    "reason": str,
    "info": dict,
    "cycle": int,
    "seed": (int, type(None)),
    "trace_tail": list,
    "trace_dropped": int,
    "metrics": dict,
    "ledger": dict,
    "fault_plan": (dict, type(None)),
    "invariants": dict,
    "context": dict,
}


class FlightRecorder:
    """One recorder, one bundle; re-arm a fresh instance per run."""

    def __init__(self, out: str | None = None, *,
                 last_n: int = DEFAULT_LAST_N) -> None:
        self.out = out
        self.last_n = last_n
        self.kernel = None
        self.seed: int | None = None
        self.plan = None
        self.context: dict[str, Any] = {}
        #: The first bundle dumped (None until a trigger fires).
        self.bundle: dict[str, Any] | None = None
        #: Triggers after the first, counted but not dumped.
        self.suppressed = 0

    def arm(self, kernel, *, seed: int | None = None, plan=None,
            context: dict[str, Any] | None = None) -> "FlightRecorder":
        """Attach to a kernel (``kernel.flight``) and remember run facts."""
        self.kernel = kernel
        self.seed = seed
        self.plan = plan if plan is not None else getattr(
            getattr(kernel, "faults", None), "plan", None)
        self.context = dict(context or {})
        kernel.flight = self
        return self

    # -- dumping ------------------------------------------------------------

    def dump(self, reason: str, **info: Any) -> dict[str, Any]:
        """Build (and write, first trigger only) the post-mortem bundle."""
        if self.bundle is not None:
            self.suppressed += 1
            return self.bundle
        self.bundle = self._build(reason, info)
        if self.out:
            write_bundle(self.bundle, self.out)
        return self.bundle

    def _build(self, reason: str, info: dict[str, Any]) -> dict[str, Any]:
        k = self.kernel
        if k is None:
            raise ValueError("flight recorder not armed")
        # Dump-time invariant sweep: read-only, and worth having even
        # when the trigger was something else entirely.
        from ..hwmgr.invariants import (
            check_invariants,
            check_lifecycle_invariants,
        )
        tail = list(k.tracer.events)[-self.last_n:]
        plan = self.plan
        fault_plan = None
        if plan is not None:
            fault_plan = {
                "seed": plan.seed,
                "sites": plan.summary(),
                "specs": [{
                    "site": s.site, "after": s.after,
                    "max_fires": s.max_fires, "every": s.every,
                    "probability": s.probability,
                    "params": dict(s.params),
                } for s in plan.specs],
            }
        k.acct.settle()
        return {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "info": _jsonable(info),
            "cycle": k.sim.now,
            "seed": self.seed,
            "trace_tail": [{"t": e.t, "name": e.name, "cat": e.cat,
                            "info": _jsonable(e.info)} for e in tail],
            "trace_dropped": k.tracer.events.dropped,
            "metrics": MetricSnapshot.of(k.metrics).to_dict(),
            "ledger": k.acct.snapshot(),
            "fault_plan": fault_plan,
            "invariants": {
                "hardware": check_invariants(k),
                "lifecycle": check_lifecycle_invariants(k),
            },
            "context": _jsonable(self.context),
        }


def _jsonable(obj: Any) -> Any:
    """Deterministic JSON-safe copy (repr for anything exotic)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def maybe_dump(kernel, reason: str, **info: Any) -> dict[str, Any] | None:
    """Trigger the kernel's flight recorder, if one is armed."""
    fr = getattr(kernel, "flight", None)
    if fr is None:
        return None
    return fr.dump(reason, **info)


# -- bundle I/O + validation --------------------------------------------------

def write_bundle(bundle: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bundle, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bundle(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def validate_bundle(bundle: Any) -> list[str]:
    """Schema check; returns human-readable problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(bundle, dict):
        return ["bundle is not a JSON object"]
    for key, types in _REQUIRED_KEYS.items():
        if key not in bundle:
            problems.append(f"missing key {key!r}")
        elif not isinstance(bundle[key], types):
            problems.append(f"key {key!r} has type "
                            f"{type(bundle[key]).__name__}")
    if problems:
        return problems
    if bundle["schema_version"] != FLIGHT_SCHEMA_VERSION:
        problems.append(f"schema_version {bundle['schema_version']} != "
                        f"{FLIGHT_SCHEMA_VERSION}")
    for i, ev in enumerate(bundle["trace_tail"]):
        if not isinstance(ev, dict) or not {"t", "name", "cat",
                                            "info"} <= set(ev):
            problems.append(f"trace_tail[{i}] malformed")
            break
    for section in ("hardware", "lifecycle"):
        if not isinstance(bundle["invariants"].get(section), list):
            problems.append(f"invariants.{section} missing or not a list")
    for section in ("counters", "gauges", "histograms"):
        if section not in bundle["metrics"]:
            problems.append(f"metrics.{section} missing")
    return problems


def render_bundle(bundle: dict[str, Any]) -> str:
    """Human-readable post-mortem summary (the ``postmortem`` command)."""
    lines = [
        "=== post-mortem bundle ===",
        f"reason:  {bundle['reason']}",
        f"cycle:   {bundle['cycle']}",
        f"seed:    {bundle['seed']}",
    ]
    if bundle["info"]:
        lines.append("info:    " + json.dumps(bundle["info"], sort_keys=True))
    if bundle["context"]:
        lines.append("context: " + json.dumps(bundle["context"],
                                              sort_keys=True))
    inv = bundle["invariants"]
    n_viol = len(inv["hardware"]) + len(inv["lifecycle"])
    lines.append(f"invariants at dump time: {n_viol} violation(s)")
    for section in ("hardware", "lifecycle"):
        for what in inv[section]:
            lines.append(f"  [{section}] {what}")
    plan = bundle["fault_plan"]
    if plan:
        lines.append(f"fault plan (seed {plan['seed']}):")
        for site, st in sorted(plan["sites"].items()):
            lines.append(f"  {site:22s} occurrences={st['occurrences']} "
                         f"fires={st['fires']}")
    ledger = bundle["ledger"]
    vms = ledger.get("vms", {})
    lines.append(f"ledger: {len(vms)} VMs, "
                 f"kernel {ledger.get('kernel_cycles', 0)} cycles, "
                 f"idle {ledger.get('idle_cycles', 0)} cycles")
    counters = bundle["metrics"]["counters"]
    interesting = {k: v for k, v in counters.items() if v}
    lines.append(f"metrics: {len(counters)} counters "
                 f"({len(interesting)} non-zero), "
                 f"{len(bundle['metrics']['histograms'])} histograms")
    tail = bundle["trace_tail"]
    lines.append(f"trace tail: last {len(tail)} events "
                 f"({bundle['trace_dropped']} older events dropped by "
                 f"the ring)")
    for ev in tail[-20:]:
        info = json.dumps(ev["info"], sort_keys=True) if ev["info"] else ""
        lines.append(f"  {ev['t']:>12} {ev['cat']:10s} {ev['name']:24s} "
                     f"{info}")
    return "\n".join(lines)
