"""Extract the Table III overhead classes from a kernel/native trace.

The event protocol (names, info keys, pairing rules) is the documented
instrumentation contract of docs/OBSERVABILITY.md:

* ``hwreq_trap(rid)``        — SVC trap of an HC_HWTASK_REQUEST
* ``mgr_exec_start(rid)``    — manager's first instruction for the request
* ``mgr_exec_end(rid)``      — manager posted the result
* ``hwreq_resumed(rid)``     — requesting guest resumed with the status
* ``plirq_route_start/_end(seq)``, ``plirq_inject_start/_end(seq)``
                             — the two halves of PL-IRQ distribution

Overhead classes (paper definitions):

* **HW Manager entry**  = trap -> first manager instruction
* **HW Manager execution** = manager routine duration
* **HW Manager exit**   = result posted -> requester resumed
* **PL IRQ entry**      = exception vector -> vIRQ injected (routing +
  injection halves summed per IRQ instance)
* **Total overhead**    = entry + execution + exit

A request's events are joined by its request ID with
:func:`repro.obs.analytics.request_events` (only requests that reached
all four events are counted), and the PL-IRQ halves by
:func:`repro.obs.analytics.plirq_latency_samples` (keyed by the
distribution sequence number).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from ..common.units import cycles_to_us
from ..obs.analytics import plirq_latency_samples, request_events
from ..obs.trace import Tracer


@dataclass
class OverheadSamples:
    """Per-request samples, in CPU cycles."""

    entry: list[int] = field(default_factory=list)
    execution: list[int] = field(default_factory=list)
    exit: list[int] = field(default_factory=list)
    total: list[int] = field(default_factory=list)
    plirq: list[int] = field(default_factory=list)

    def summary_us(self, hz: int, *, trim: float = 0.05) -> dict[str, float]:
        """Trimmed means in microseconds (PL IRQ defaults to 0 when the
        configuration never produced one, e.g. the native port)."""
        out = {}
        for name in ("entry", "execution", "exit", "total", "plirq"):
            samples = getattr(self, name)
            out[name] = cycles_to_us(_trimmed_mean(samples, trim), hz) \
                if samples else 0.0
        return out

    @property
    def n_requests(self) -> int:
        return len(self.total)


def _trimmed_mean(samples: list[int], trim: float) -> float:
    if not samples:
        return 0.0
    s = sorted(samples)
    k = int(len(s) * trim)
    core = s[k:len(s) - k] or s
    return mean(core)


def extract_overheads(tracer: Tracer) -> OverheadSamples:
    """Per-request Table III samples, in the order requesters resumed."""
    out = OverheadSamples()
    for trap, exec_start, exec_end, resumed in request_events(
            tracer, ("hwreq_trap", "mgr_exec_start", "mgr_exec_end",
                     "hwreq_resumed")):
        entry = exec_start.t - trap.t
        execution = exec_end.t - exec_start.t
        exit_ = resumed.t - exec_end.t
        out.entry.append(entry)
        out.execution.append(execution)
        out.exit.append(exit_)
        out.total.append(entry + execution + exit_)
    out.plirq = plirq_latency_samples(tracer)
    return out
