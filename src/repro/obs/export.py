"""Exporter: Chrome trace-event JSON.

``write_chrome_trace`` converts a :class:`~repro.obs.trace.Tracer`'s ring
into the Trace Event Format understood by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): span pairs (``<name>_start`` /
``<name>_end``) become complete ``"X"`` duration events, everything else
becomes an ``"i"`` instant event.  Timestamps are converted from CPU
cycles to microseconds; events are grouped into tracks by VM id
(``tid``) so one row per guest plus a kernel row appears in the viewer.

Span pairing uses the per-span keys documented in docs/OBSERVABILITY.md
(``SPAN_KEYS``); spans without a listed key pair LIFO per name, which is
correct for strictly nested spans.
"""

from __future__ import annotations

import json
from typing import Any

from ..common.units import CPU_HZ_DEFAULT, cycles_to_us
from .trace import SPAN_END_SUFFIX, SPAN_START_SUFFIX, TraceEvent, Tracer

#: info key that distinguishes concurrent instances of each span (see the
#: span-pairing table in docs/OBSERVABILITY.md).
SPAN_KEYS: dict[str, str] = {
    "mgr_exec": "vm",
    "plirq_route": "seq",
    "plirq_inject": "seq",
    "pcap_xfer": "prr",
}

_PID = 1  # one simulated machine per trace


def _tid(e: TraceEvent) -> int:
    """Track id: the event's VM when it names one, else 0 (the kernel)."""
    vm = e.info.get("vm")
    return vm if isinstance(vm, int) else 0


def chrome_trace_events(tracer: Tracer,
                        hz: int = CPU_HZ_DEFAULT) -> list[dict[str, Any]]:
    """Convert the tracer's retained events into trace-event dicts,
    sorted by ascending ``ts``."""
    out: list[dict[str, Any]] = []
    open_: dict[tuple[str, Any], list[TraceEvent]] = {}

    for e in tracer.events:
        if e.name.endswith(SPAN_START_SUFFIX):
            base = e.name[: -len(SPAN_START_SUFFIX)]
            key = e.info.get(SPAN_KEYS.get(base, ""), None)
            open_.setdefault((base, key), []).append(e)
        elif e.name.endswith(SPAN_END_SUFFIX):
            base = e.name[: -len(SPAN_END_SUFFIX)]
            key = e.info.get(SPAN_KEYS.get(base, ""), None)
            stack = open_.get((base, key))
            if stack:
                s = stack.pop()
                out.append({
                    "name": base, "cat": s.cat or "misc", "ph": "X",
                    "ts": cycles_to_us(s.t, hz),
                    "dur": cycles_to_us(e.t - s.t, hz),
                    "pid": _PID, "tid": _tid(e),
                    "args": {**s.info, **e.info},
                })
            else:   # unmatched end: keep it visible as an instant
                out.append(_instant(e, hz))
        else:
            out.append(_instant(e, hz))

    # Unmatched starts (span still open when the run stopped).
    for stack in open_.values():
        for s in stack:
            out.append(_instant(s, hz))
    out.sort(key=lambda d: d["ts"])
    return out


def _instant(e: TraceEvent, hz: int) -> dict[str, Any]:
    return {
        "name": e.name, "cat": e.cat or "misc", "ph": "i", "s": "t",
        "ts": cycles_to_us(e.t, hz), "pid": _PID, "tid": _tid(e),
        "args": dict(e.info),
    }


def chrome_trace_json(tracer: Tracer, hz: int = CPU_HZ_DEFAULT) -> str:
    """The full Chrome trace JSON document as a string."""
    doc = {
        "traceEvents": chrome_trace_events(tracer, hz),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro (Mini-NOVA reproduction)",
            "clock": f"{hz} Hz CPU cycles",
            "dropped_events": tracer.dropped,
        },
    }
    return json.dumps(doc, indent=1)


def write_chrome_trace(tracer: Tracer, path: str,
                       hz: int = CPU_HZ_DEFAULT) -> int:
    """Write the trace to ``path``; returns the number of trace events."""
    doc = chrome_trace_json(tracer, hz)
    with open(path, "w", encoding="utf-8") as f:
        f.write(doc)
    return len(json.loads(doc)["traceEvents"])
