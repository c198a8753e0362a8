"""Bench artifact pipeline: payload schema, determinism, exact baselines."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.eval.bench import (
    PROFILES,
    SCHEMA_VERSION,
    default_artifact_path,
    run_bench,
    write_bench,
)
from repro.fleet.harness import run_fleet_bench

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


@pytest.fixture(scope="module")
def payload():
    """One short real bench run shared by the schema tests."""
    return run_bench("quick", guests=2, ms=40.0, seed=2)


REQUIRED_SERIES = (
    "vm_switch_cycles", "hypercall_cycles", "mgr_exec_cycles",
    "virq_delivery_cycles", "plirq_entry_cycles",
    "hwreq_entry_cycles", "hwreq_execution_cycles", "hwreq_exit_cycles",
    "hwreq_total_cycles",
    "dpr_entry_cycles", "dpr_decide_cycles", "dpr_pcap_cycles",
    "dpr_resume_cycles", "reconfig_cycles",
)


class TestRunBench:
    def test_schema_shape(self, payload):
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["name"] == "quick"
        assert payload["scenario"] == {
            "guests": 2, "ms": 40.0, "seed": 2,
            "cpu_hz": payload["scenario"]["cpu_hz"]}
        for key in ("cycles", "vm_switches", "hypercalls", "irqs",
                    "manager_requests", "pcap_transfers", "completions"):
            assert key in payload["totals"]
        for name in REQUIRED_SERIES:
            assert name in payload["series"], name

    def test_core_series_have_percentiles(self, payload):
        """The headline latency axes must be populated on a real run."""
        for name in ("vm_switch_cycles", "hypercall_cycles",
                     "virq_delivery_cycles", "reconfig_cycles"):
            s = payload["series"][name]
            assert s["count"] > 0, name
            assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]
            assert s["min"] > 0 and s["unit"] == "cycles"

    def test_accounting_invariant_in_artifact(self, payload):
        acct = payload["accounting"]
        assert (acct["total_accounted"]
                == payload["totals"]["cycles"] - acct["start_cycle"])
        per_vm = sum(v["cpu_cycles"] for v in acct["vms"])
        assert (acct["kernel_cycles"] + acct["idle_cycles"] + per_vm
                == acct["total_accounted"])

    def test_vm_lifecycle_block_all_zero_when_fault_free(self, payload):
        """Timing neutrality in the artifact itself: a healthy bench run
        schedules no lifecycle events (docs/RECOVERY.md §9)."""
        lc = payload["vm_lifecycle"]
        for key in ("checkpoints", "restarts", "restores", "halts",
                    "virqs_replayed", "virqs_dropped", "virqs_dead_epoch",
                    "client_reclaims"):
            assert lc[key] == 0, key
        assert lc["checkpoint_cycles"]["count"] == 0
        assert lc["restore_cycles"]["count"] == 0

    def test_same_seed_reruns_identical(self):
        """The determinism contract of docs/PERFORMANCE.md §5."""
        a = run_bench("quick", guests=1, ms=20.0, seed=9)
        b = run_bench("quick", guests=1, ms=20.0, seed=9)
        assert a == b

    def test_profiles_and_artifact_path(self):
        assert set(PROFILES) == {"paper", "quick"}
        assert default_artifact_path("paper") == "BENCH_paper.json"

    def test_write_bench_round_trips_deterministically(self, payload,
                                                       tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_bench(payload, str(a))
        write_bench(json.loads(a.read_text()), str(b))
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text()) == payload


@pytest.mark.parametrize("name", ["quick", "fleet_quick"])
def test_artifact_equals_committed_baseline(name, tmp_path):
    """Every field of a bench artifact is simulated, so a rebuild must
    reproduce the committed baseline exactly.  A change that moves any
    number changes the model: regenerate the baseline in the same change
    (docs/BENCHMARKS.md §3)."""
    payload = (run_bench("quick", seed=1) if name == "quick"
               else run_fleet_bench(seed=1))
    out = tmp_path / default_artifact_path(name)
    write_bench(payload, str(out))
    baseline = BASELINES / default_artifact_path(name)
    assert json.loads(out.read_text()) == json.loads(baseline.read_text())
    assert out.read_bytes() == baseline.read_bytes()
