"""Metric names, the percentile helper, failure accounting, the sliced run
phase and the traced/untraced split of the reps."""

from __future__ import annotations

import gc
import random
import re

import pytest

from layers import PER_LAYER
from refloop import reference_loop
from repro.obs.analytics import percentile_of_samples
from run import ROUNDS, launch_rep, result_line, summarize
from summary import END_TO_END, load_benchmark, percentile
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_names_match_benchmark_json_both_ways():
    bench = load_benchmark()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == {n: (unit, better)
                   for n, (unit, better, _) in END_TO_END.items()}
    assert layers == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in list(e2e) + list(layers) + list(WORKLOADS):
        assert NAME.fullmatch(name), name


def fake_rep(seed: int, *, ok: int = 9, attempted: int = 10,
             layers: dict | None = None) -> dict:
    rep = {"seed": seed, "setup_s": 0.4, "run_s": 5.0 + seed / 100,
           "setup_cpu_s": 0.38, "run_cpu_s": 4.9 + seed / 100,
           "scaled_setup_s": 0.35, "scaled_run_s": 4.5 + seed / 100,
           "peak_rss_mb": 60.0, "failures": [],
           "latency": [1000 + i for i in range(60)],
           "outcome": {"cycles": 660_000_000, "sim_s": 1.0,
                       "attempted": attempted, "ok": ok}}
    if layers is not None:
        rep["layers"] = layers
    return rep


def test_emitted_metrics_are_exactly_the_declared_ones():
    reps = [fake_rep(s) for s in range(ROUNDS)]
    traced = fake_rep(0, layers={n: 1.0 for n in PER_LAYER
                                 if n != "trace.overhead_pct"})
    res = {"dpr_hotpath": summarize(reps, traced)}
    for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
        line = result_line(res, trace=trace)
        assert set(line["metrics"]) == set(names)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] == ROUNDS + 1


def test_failed_rep_and_thin_p95_mark_the_run_incorrect():
    reps = [fake_rep(s) for s in range(ROUNDS)]
    reps[2]["failures"] = ["board 1: I3 violated"]
    res = summarize(reps)
    assert res["failed_reps"] == 1
    # 5 x 60 pooled samples pass the p95 guard; 3 x 60 would not.
    assert not any("pooled latency" in f for f in res["failures"])
    thin = summarize([fake_rep(s) for s in range(ROUNDS)][:3])
    assert any("pooled latency" in f for f in thin["failures"])
    assert not result_line({"w": res}, trace=False)["correct"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_percentile_agrees_with_the_program(seed):
    rng = random.Random(seed)
    samples = [rng.randrange(10_000) for _ in range(rng.randrange(1, 500))]
    for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
        assert percentile(samples, q) == percentile_of_samples(samples, q)


def test_backlog_at_the_horizon_counts_as_failed():
    run = WORKLOADS["fleet_failover"].build(1, scale=0.1)
    try:
        run.run()
        out = run.outcome()
    finally:
        run.close()
    assert out["backlog"] > 0
    # ok is served-within-deadline; whatever is still queued is not.
    assert out["attempted"] - out["ok"] >= out["backlog"]
    assert out["ok"] <= out["served"]


@pytest.mark.parametrize("name", ["dpr_hotpath", "fleet_failover"])
def test_sliced_run_is_the_same_run(name):
    outcomes = []
    for sliced in (False, True):
        run = WORKLOADS[name].build(2, scale=0.05)
        try:
            if sliced:
                for i in range(7):
                    run.run_slice(i, 7)
            else:
                run.run()
            outcomes.append(run.outcome())
        finally:
            run.close()
    assert outcomes[0] == outcomes[1]


def test_reference_loop_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert reference_loop(100) > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_loop(100)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_wrappers_only_in_the_traced_child():
    plain = launch_rep("dpr_hotpath", 1, scale=0.02)
    traced = launch_rep("dpr_hotpath", 1, scale=0.02, traced=True)
    assert plain["traced"] is False and "layers" not in plain
    assert traced["traced"] is True
    assert set(traced["layers"]) == set(PER_LAYER) - {"trace.overhead_pct"}
    # Tracing is host-side only: the simulated outcome is identical.
    assert traced["outcome"] == plain["outcome"]
    assert traced["latency"] == plain["latency"]
