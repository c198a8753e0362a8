"""Random mode over ``vm.kill``: deterministic and clean over a small
fire target, with the union oracle's lifecycle checks on every run."""

from repro.faults.explore import run_explore
from repro.faults.registry import VM_POLICIES


def _vm(target, max_runs, seed=11):
    return run_explore(budget=0, seed=seed, random_target=target,
                       random_sites=("vm.kill",), max_runs=max_runs)


def _kill_spec(sched):
    return next(f for f in sched["faults"] if f["site"] == "vm.kill")


def test_small_vm_soak_is_clean_and_deterministic():
    a = _vm(4, 8)
    b = _vm(4, 8)
    assert a == b                       # byte-identical run sequence
    assert a["ok"]
    assert a["random"]["reached_target"]
    assert a["random"]["faults_fired"] >= 4
    for run in a["schedules"]:
        assert run["ok"], run
        assert "vm_containment" in run["paths"]


def test_vm_soak_payload_shape():
    p = _vm(1, 2)
    assert p["incident"] in (None, "checks_failed")
    r = p["schedules"][0]
    spec = _kill_spec(r)
    assert spec["params"]["policy"] in VM_POLICIES
    assert spec["max_fires"] == spec["params"]["count"] in (1, 2)
    assert 50_000 <= spec["params"]["at"] <= 225_000


def test_vm_soak_exercises_every_policy():
    p = _vm(8, 16, seed=3)
    assert p["ok"]
    policies = {_kill_spec(r)["params"]["policy"] for r in p["schedules"]}
    # Across a handful of seeded runs at least two death policies appear.
    assert len(policies) >= 2
