"""One benchmark rep in its own process: set up, run, read back, check.

Launched by ``run.py``; prints one JSON record as its last stdout line::

    python3 benchmarks/e2e/rep.py WORKLOAD SEED LAUNCH [--scale F]
                                  [--traced] [--trace-out PATH]

``LAUNCH`` is the parent's ``CLOCK_MONOTONIC`` reading just before it
started this process, so ``setup_s`` covers interpreter start, imports and
scenario construction.  ``--traced`` installs the span wrappers before the
scenario is built and adds the per-layer metrics to the record.

Host times are also given in CPU time scaled to the reference machine
speed.  The run phase goes in ``SLICES`` slices with the reference loop of
``refloop.py`` timed before the first and after each one.
``scaled_run_s`` scales each slice's thread CPU time by ``REFERENCE_S``
over the mean of the two loop times around it, that is to the machine
speed of that moment; ``run_s`` is the unscaled wall time of the slices,
``run_cpu_s`` their CPU time.  The set-up is one stretch of about 0.4 s,
mostly imports, which a 5 ms loop next to it tracks worse than the speed
over the whole rep, so ``scaled_setup_s`` scales the process's CPU time at
the end of the set-up (``setup_cpu_s``, from the fork on) by the median of
all the loop times.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from statistics import median

from layers import layer_metrics
from refloop import REFERENCE_S, reference_loop
from spans import SpanRecorder, is_installed
from summary import monotonic
from workloads import WORKLOADS

#: Slices of the run phase; one reference loop (about 5 ms) after each.
SLICES = 32


def scaled(cpu_s: float, probe_before: float, probe_after: float) -> float:
    """``cpu_s`` at the reference speed, the machine's speed over that
    time read from the reference loop before and after it."""
    return 2.0 * REFERENCE_S * cpu_s / (probe_before + probe_after)


def run_rep(workload: str, seed: int, launch: float, *, scale: float = 1.0,
            traced: bool = False, trace_out: str | None = None) -> dict:
    recorder = None
    if traced:
        recorder = SpanRecorder()
        recorder.install()
    wl = WORKLOADS[workload]
    run = wl.build(seed, scale)
    setup_s = monotonic() - launch
    setup_cpu_s = time.process_time()
    probe_s = [reference_loop()]
    slice_s, slice_cpu_s = [], []
    if recorder is not None:
        recorder.reset()
    for i in range(SLICES):
        t0, c0 = time.perf_counter(), time.thread_time()
        run.run_slice(i, SLICES)
        slice_cpu_s.append(time.thread_time() - c0)
        slice_s.append(time.perf_counter() - t0)
        probe_s.append(reference_loop())
    run_s = sum(slice_s)
    record = {"workload": workload, "seed": seed, "scale": scale,
              "traced": is_installed(), "setup_s": setup_s, "run_s": run_s,
              "setup_cpu_s": setup_cpu_s, "run_cpu_s": sum(slice_cpu_s),
              "scaled_setup_s": REFERENCE_S * setup_cpu_s / median(probe_s),
              "scaled_run_s": sum(scaled(s, a, b) for s, a, b
                                  in zip(slice_cpu_s, probe_s, probe_s[1:])),
              "probe_s": probe_s}
    outcome = run.outcome()
    # Per-layer numbers before the checks: the fleet checks send RPCs
    # through the wrapped BoardLink.call.
    if recorder is not None:
        record["layers"] = layer_metrics(
            run, outcome, recorder.totals, run_s,
            getattr(wl, "table3_column", None))
        if trace_out:
            recorder.write_chrome_trace(trace_out)
        recorder.uninstall()
    record["latency"] = outcome.pop("latency")
    record["outcome"] = outcome
    record["failures"] = run.failures()
    run.close()
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("launch", type=float)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    a = ap.parse_args()
    record = run_rep(a.workload, a.seed, a.launch, scale=a.scale,
                     traced=a.traced, trace_out=a.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
