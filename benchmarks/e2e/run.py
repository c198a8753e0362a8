"""End-to-end benchmark of the Mini-NOVA reproduction.

    python3 benchmarks/e2e/run.py --workload dpr_hotpath --seed 1 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --out results.json \\
        --trace-dir traces/

Protocol.  Every rep runs in a fresh child process (``rep.py``), one at a
time.  One short warm-up rep per workload is run first and discarded (it
fills ``.pyc`` files and the page cache).  Then come ``ROUNDS`` rounds:
round r runs every selected workload at seed ``seed + r``, the workload
order rotating each round.  Host-domain metrics report the median rep,
or total work over total time of the reps for the two throughputs, with
host times taken in CPU time and scaled to the reference machine speed
that each rep measures (see ``rep.py``; quartiles and unscaled times are
kept in ``--out``).
Simulated-domain metrics are pooled over the ``ROUNDS`` rounds and are
exact for a given seed.  Rounds continue past ``ROUNDS`` while another one
fits in ``--seconds``; those extra reps feed only the host metrics.

With ``--trace 1`` (or ``--trace-dir``) one more rep per workload runs at
``seed`` with span wrappers installed; its per-layer metrics are printed
instead of the end-to-end ones (``--trace 1``), and ``--trace-dir`` also
writes its kept spans as Chrome trace-event JSON.

Every rep passes a correctness gate (see ``workloads.py``); a failed gate
prints ``"correct": false`` and exits 1.  A rep that crashes prints no
result and exits 2.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": <reps>, "failed": <reps failing the gate>,
     "metrics": {name: {"value": ..., "unit": ...}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from summary import (END_TO_END, MIN_P95_SAMPLES, load_benchmark, monotonic,
                     percentile, spread)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Rounds pooled into the simulated-domain metrics.
ROUNDS = 5
#: Horizon of the discarded warm-up rep, as a share of a full rep.
WARMUP_SCALE = 0.02
#: A rep taking longer than this is killed and counts as crashed.
REP_TIMEOUT_S = 150


class RepCrashed(RuntimeError):
    pass


def launch_rep(workload: str, seed: int, *, scale: float = 1.0,
               traced: bool = False, trace_out: str | None = None) -> dict:
    """Run one rep in a fresh child process; returns its record."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               PYTHONHASHSEED="0",
               # One simulation thread: no BLAS or OpenMP worker pools.
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               # With transparent huge pages, the simulated DRAM arrays'
               # resident size depends on their 2 MB alignment, which
               # address-space randomisation changes from rep to rep.
               NUMPY_MADVISE_HUGEPAGE="0")
    extra = ["--scale", str(scale)]
    if traced:
        extra.append("--traced")
    if trace_out:
        extra += ["--trace-out", trace_out]
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed)]
    proc = subprocess.run(cmd + [repr(monotonic())] + extra,
                          env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepCrashed(f"{workload} seed {seed} exited "
                         f"{proc.returncode}: {tail}")
    return json.loads(lines[-1])


def rotated(names: list[str], r: int) -> list[str]:
    k = r % len(names)
    return names[k:] + names[:k]


def measure(names: list[str], seed: int, seconds: float, *, traced: bool,
            trace_dir: str | None) -> tuple[dict, dict]:
    """Warm-up, the rounds, and the optional traced reps."""
    for name in names:
        launch_rep(name, seed, scale=WARMUP_SCALE)
    reps: dict[str, list[dict]] = {name: [] for name in names}
    start = monotonic()
    round_s: list[float] = []
    r = 0
    while r < ROUNDS or (monotonic() - start + statistics.median(round_s)
                         <= seconds):
        t0 = monotonic()
        for name in rotated(names, r):
            reps[name].append(launch_rep(name, seed + r))
        round_s.append(monotonic() - t0)
        r += 1
    traces: dict[str, dict] = {}
    if traced:
        for name in names:
            out = (str(Path(trace_dir) / f"{name}.trace.json")
                   if trace_dir else None)
            traces[name] = launch_rep(name, seed, traced=True,
                                      trace_out=out)
    return reps, traces


def summarize(reps: list[dict], traced: dict | None = None) -> dict:
    """Reduce one workload's reps to its metrics and gate verdicts."""
    pooled = reps[:ROUNDS]
    every = reps + ([traced] if traced is not None else [])
    failures = [f"seed {r['seed']}: {f}" for r in every
                for f in r["failures"]]
    if any(r["outcome"]["ok"] == 0 for r in reps):
        failures.append("a rep completed no request")
    if traced is not None and (traced["outcome"], traced["latency"]) != (
            reps[0]["outcome"], reps[0]["latency"]):
        failures.append("the traced rep's simulated outcome differs from "
                        "the untraced rep at the same seed")
    per_rep = {
        "setup_s": [r["scaled_setup_s"] for r in reps],
        "sim_cycles_per_host_s": [r["outcome"]["cycles"] / r["scaled_run_s"]
                                  for r in reps],
        "host_ms_per_request": [1000.0 * r["scaled_run_s"]
                                / max(1, r["outcome"]["ok"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    host = {name: spread(values) for name, values in per_rep.items()}
    # The throughputs pool the reps, so a seed that completes fewer
    # requests weighs by its size instead of moving a median.
    run_total = sum(r["scaled_run_s"] for r in reps)
    host["sim_cycles_per_host_s"]["value"] = sum(
        r["outcome"]["cycles"] for r in reps) / run_total
    host["host_ms_per_request"]["value"] = 1000.0 * run_total / max(
        1, sum(r["outcome"]["ok"] for r in reps))
    # Unscaled wall and CPU times, kept beside the scaled ones in --out.
    host["raw_setup_s"] = spread(r["setup_s"] for r in reps)
    host["raw_run_s"] = spread(r["run_s"] for r in reps)
    host["raw_setup_cpu_s"] = spread(r["setup_cpu_s"] for r in reps)
    host["raw_run_cpu_s"] = spread(r["run_cpu_s"] for r in reps)
    host["scaled_run_s"] = spread(r["scaled_run_s"] for r in reps)
    latency = [x for r in pooled for x in r["latency"]]
    if len(latency) < MIN_P95_SAMPLES:
        failures.append(f"{len(latency)} pooled latency samples, "
                        f"p95 needs {MIN_P95_SAMPLES}")
    totals = {key: sum(r["outcome"][key] for r in pooled)
              for key in pooled[0]["outcome"]}
    sim = {
        "seeds": [r["seed"] for r in pooled],
        "totals": totals,
        "latency_samples": len(latency),
        "goodput_per_sim_s": totals["ok"] / totals["sim_s"],
        "ok_ratio": totals["ok"] / totals["attempted"],
        "request_mean_cycles": statistics.fmean(latency) if latency else 0.0,
        "request_p95_cycles": percentile(latency, 0.95) if latency else 0.0,
    }
    out = {"host": host, "sim": sim, "failures": failures,
           "reps": len(every),
           "failed_reps": sum(bool(r["failures"]) for r in every)}
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            traced["scaled_run_s"] / host["scaled_run_s"]["median"] - 1.0)
        out["layers"] = layers
        out["traced_run_s"] = traced["run_s"]
    return out


def end_to_end(result: dict) -> dict[str, float]:
    """The end-to-end metric values of one workload summary."""
    return {name: (result["host"][name]["value"] if domain == "host"
                   else result["sim"][name])
            for name, (_, _, domain) in END_TO_END.items()}


def result_line(results: dict[str, dict], trace: bool) -> dict:
    """The final JSON object (metrics prefixed by workload when several
    workloads ran)."""
    bench = load_benchmark()
    spec = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    metrics = {}
    for name, res in results.items():
        values = res["layers"] if trace else end_to_end(res)
        if set(values) != set(units):
            raise RuntimeError(f"emitted metrics differ from BENCHMARK.json: "
                               f"{sorted(set(values) ^ set(units))}")
        prefix = f"{name}/" if len(results) > 1 else ""
        for metric in units:
            metrics[prefix + metric] = {"value": values[metric],
                                        "unit": units[metric]}
    failed = sum(res["failed_reps"] for res in results.values())
    return {"correct": all(not res["failures"] for res in results.values()),
            "attempted": sum(res["reps"] for res in results.values()),
            "failed": failed, "metrics": metrics}


def print_table(results: dict[str, dict]) -> None:
    print(f"{'workload':16} {'metric':34} {'value':>14} {'iqr':>12} unit")
    for name, res in results.items():
        for metric, (unit, _, domain) in END_TO_END.items():
            if domain == "host":
                s = res["host"][metric]
                print(f"{name:16} {metric:34} {s['value']:14.6g} "
                      f"{s['iqr']:12.4g} {unit}")
            else:
                print(f"{name:16} {metric:34} {res['sim'][metric]:14.6g} "
                      f"{'exact':>12} {unit}")
        for metric, value in res.get("layers", {}).items():
            print(f"{name:16} {metric:34} {value:14.6g}")
        for f in res["failures"]:
            print(f"{name:16} FAILED {f}")


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(
        description="Seeded end-to-end benchmark with a per-layer trace.")
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measurement time to fill; at least the fixed "
                         "rounds always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: add a traced rep and print per-layer metrics")
    ap.add_argument("--trace-dir",
                    help="also write each traced rep's spans here")
    ap.add_argument("--out", help="write the full results as JSON")
    a = ap.parse_args()
    selected = names if a.workload == "all" else [a.workload]
    if a.trace_dir:
        Path(a.trace_dir).mkdir(parents=True, exist_ok=True)
    try:
        reps, traces = measure(selected, a.seed, a.seconds,
                               traced=bool(a.trace or a.trace_dir),
                               trace_dir=a.trace_dir)
    except (RepCrashed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark rep failed: {exc}", file=sys.stderr)
        return 2
    results = {name: summarize(reps[name], traces.get(name))
               for name in selected}
    if a.out:
        with open(a.out, "w", encoding="utf-8") as f:
            json.dump({"seed": a.seed, "rounds": ROUNDS,
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")
    print_table(results)
    line = result_line(results, trace=bool(a.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
