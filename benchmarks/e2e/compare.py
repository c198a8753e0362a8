"""Compare two benchmark results (``run.py --out``) under BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py --determinism A.json B.json

One row per workload x end-to-end metric.  Simulated-domain metrics are
exact, so any difference is a model change (``changed``).  Host-domain
metrics compare the reported values: ``worse`` when NEW is worse than BASE
by more than the metric's bound, ``better`` when it is better by more than
the bound, ``unresolved`` when either side's IQR exceeds the bound (unless
every NEW rep beats every BASE rep), otherwise ``ok``.

``--determinism`` instead requires the simulated sections of two same-seed
results to serialize byte-identically.  Exit status 1 on a ``worse`` or
``changed`` row, or on a determinism mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from summary import END_TO_END, load_benchmark


def worse_by(a: float, b: float, better: str) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is worse."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def host_verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """Verdict on two host spreads (value, median, iqr, samples)."""
    if any(s["iqr"] > bound * s["median"] for s in (base, new)):
        beats = (max(new["samples"]) < min(base["samples"])
                 if better == "lower"
                 else min(new["samples"]) > max(base["samples"]))
        return "better" if beats else "unresolved"
    change = worse_by(base["value"], new["value"], better)
    if change > bound:
        return "worse"
    return "better" if change < -bound else "ok"


def compare(base: dict, new: dict) -> list[tuple[str, str, str, float]]:
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    rows = []
    for wl in sorted(set(base["workloads"]) & set(new["workloads"])):
        a, b = base["workloads"][wl], new["workloads"][wl]
        for name, (_, better, domain) in END_TO_END.items():
            if domain == "host":
                v = host_verdict(a["host"][name], b["host"][name],
                                 bounds[name], better)
                va, vb = a["host"][name]["value"], b["host"][name]["value"]
            else:
                va, vb = a["sim"][name], b["sim"][name]
                v = "same" if va == vb else "changed"
            rows.append((wl, name, v, worse_by(va, vb, better)))
    return rows


def determinism(a: dict, b: dict) -> list[str]:
    """Workloads whose simulated sections differ between two results."""
    out = []
    for wl in sorted(set(a["workloads"]) | set(b["workloads"])):
        sa = a["workloads"].get(wl, {}).get("sim")
        sb = b["workloads"].get(wl, {}).get("sim")
        if json.dumps(sa, sort_keys=True) != json.dumps(sb, sort_keys=True):
            out.append(wl)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--determinism", action="store_true",
                    help="require byte-identical simulated sections")
    a = ap.parse_args()
    with open(a.base, encoding="utf-8") as f:
        base = json.load(f)
    with open(a.new, encoding="utf-8") as f:
        new = json.load(f)
    if a.determinism:
        if base["seed"] != new["seed"]:
            print(f"seeds differ: {base['seed']} vs {new['seed']}")
            return 1
        bad = determinism(base, new)
        for wl in bad:
            print(f"{wl}: simulated section differs")
        if not bad:
            print("simulated sections are byte-identical")
        return 1 if bad else 0
    rows = compare(base, new)
    print(f"{'workload':16} {'metric':24} {'verdict':11} worse by")
    for wl, name, v, change in rows:
        print(f"{wl:16} {name:24} {v:11} {100 * change:+.2f}%")
    return 1 if any(v in ("worse", "changed") for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
