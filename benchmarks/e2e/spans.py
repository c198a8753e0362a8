"""Host-time spans around the simulator's public entry points.

Only the traced rep installs these wrappers; untraced reps run the program
untouched.  Each wrapper pushes a frame on one span stack, so a span's
*self* time is its inclusive time minus the inclusive time of the spans
nested inside it.  Hot entry points are only aggregated (calls, inclusive,
self); the coarse ones listed in ``KEPT`` also keep every span in memory,
written out at exit as Chrome trace-event JSON.
"""

from __future__ import annotations

import importlib
import json
import time

#: (module, class, method, span name).  The span name's first component is
#: the layer its self time is booked to.
ENTRY_POINTS = (
    ("repro.guest.exec", "GuestExecutor", "bulk", "guest.bulk"),
    ("repro.guest.exec", "GuestExecutor", "code", "guest.code"),
    ("repro.guest.ports.paravirt", "ParavirtUcos", "step", "guest.step"),
    ("repro.mem.system", "MemorySystem", "sample_block", "mem.sample_block"),
    ("repro.mem.system", "MemorySystem", "touch", "mem.touch"),
    ("repro.mem.phys", "Dram", "read_bytes", "mem.dram_read"),
    ("repro.mem.phys", "Dram", "write_bytes", "mem.dram_write"),
    ("repro.kernel.core", "MiniNova", "run", "kernel.run"),
    ("repro.kernel.lifecycle", "VmLifecycle", "checkpoint",
     "kernel.checkpoint"),
    ("repro.kernel.lifecycle", "VmLifecycle", "adopt", "kernel.adopt"),
    ("repro.hwmgr.service", "ManagerService", "step", "hwmgr.step"),
    ("repro.fpga.pcap", "Pcap", "start_transfer", "fpga.pcap_start"),
    ("repro.sim.engine", "Simulator", "dispatch_due", "sim.dispatch_due"),
    ("repro.sim.engine", "Simulator", "advance_to_next_event", "sim.advance"),
    ("repro.obs.trace", "Tracer", "mark", "obs.mark"),
    ("repro.obs.trace", "Tracer", "mark_at", "obs.mark"),
    ("repro.obs.metrics", "Histogram", "observe", "obs.observe"),
    ("repro.fleet.dispatcher", "Dispatcher", "tick", "fleet.tick"),
    ("repro.fleet.rpc", "BoardLink", "call", "fleet.rpc"),
    ("repro.fleet.board", "BoardServer", "step", "fleet.board_step"),
    ("repro.fleet.board", "BoardServer", "checkpoint",
     "fleet.board_checkpoint"),
)

#: Coarse spans kept individually: span name -> index of the argument
#: that labels the span (``Dispatcher.tick(t)``, ``BoardLink.call(op)``),
#: or None for an unlabelled span.
KEPT = {"fleet.tick": 1, "fleet.rpc": 1, "kernel.run": None,
        "hwmgr.step": None, "kernel.checkpoint": None,
        "kernel.adopt": None}

#: Work sizes recorded per call, from the call's arguments: sampled
#: addresses per bulk block, bytes per DRAM copy.
SIZES = {"mem.sample_block": lambda args: len(args[1]),
         "mem.dram_read": lambda args: args[2],
         "mem.dram_write": lambda args: len(args[2])}


class Totals:
    """Aggregate of one span name."""

    __slots__ = ("calls", "incl_s", "self_s", "units", "singles")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        #: Sum of the per-call work sizes (see SIZES), and the number of
        #: calls whose size was exactly one.
        self.units = 0
        self.singles = 0


class SpanRecorder:
    """One span stack shared by every wrapper it installs."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.totals: dict[str, Totals] = {}
        #: Kept spans: (name, label, start, duration), in end order.
        self.spans: list[tuple[str, object, float, float]] = []
        self._stack: list[list[float]] = []
        self._installed: list[tuple[type, str, object]] = []
        self.origin = clock()

    def wrap(self, fn, name: str):
        """``fn`` timed as span ``name`` (the wrapper to install)."""
        clock, stack, spans = self.clock, self._stack, self.spans
        tot = self.totals.setdefault(name, Totals())
        kept, label_arg = name in KEPT, KEPT.get(name)
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]                # inclusive time of child spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tot.calls += 1
                tot.incl_s += dt
                tot.self_s += dt - frame[0]
                if size is not None:
                    n = size(args)
                    tot.units += n
                    tot.singles += n == 1
                if kept:
                    spans.append((name, None if label_arg is None
                                  else args[label_arg], t0, dt))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` on its class.
        Call before the scenario is built, so no instance can hold an
        unwrapped bound method."""
        for module, cls_name, attr, name in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[attr]
            self._installed.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._installed):
            setattr(cls, attr, fn)
        self._installed.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        for tot in self.totals.values():
            tot.__init__()
        self.spans.clear()
        self.origin = self.clock()

    def chrome_trace(self) -> dict:
        """Kept spans as Chrome trace-event JSON (complete events, µs)."""
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": round((t0 - self.origin) * 1e6, 3),
                   "dur": round(dt * 1e6, 3), "pid": 1, "tid": 1,
                   "args": {} if label is None else {"label": label}}
                  for name, label, t0, dt in self.spans]
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.chrome_trace(), f)


def is_installed() -> bool:
    """True when any entry point of this process is currently wrapped."""
    for module, cls_name, attr, _ in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        if hasattr(cls.__dict__[attr], "__wrapped__"):
            return True
    return False
