"""The fault-site registry: single source of truth, fail-fast wiring."""

import pytest

from repro.faults import plan as plan_mod
from repro.faults.plan import FaultSpec
from repro.faults.registry import (
    ALL_SITES,
    CRASHPOINTS,
    RECOVERY_PATHS,
    SERVICE_CRASH,
    SITES,
    VM_KILL,
    VM_POLICIES,
    check_registry,
    site,
    validate_spec_params,
)
from repro.fleet.dispatcher import FLEET_FAULT_SITES, KillSpec


def test_registry_is_internally_consistent():
    assert check_registry() == []


def test_every_site_has_at_least_one_recovery_path():
    for name, s in SITES.items():
        assert s.recovery_paths, name
        for p in s.recovery_paths:
            assert p in RECOVERY_PATHS, (name, p)


def test_unknown_site_error_names_the_valid_list():
    with pytest.raises(ValueError, match="pcap.transfer_error"):
        site("pcap.transfre_error")


def test_inline_and_fleet_partition_the_registry():
    """The dispatcher's fleet fault domains are exactly the registry's
    ``fleet``-layer sites, so the two lists cannot drift apart."""
    fleet = [n for n, s in SITES.items() if s.layer == "fleet"]
    assert sorted(fleet) == sorted(FLEET_FAULT_SITES)


def test_plan_reexports_registry_constants():
    # plan.py consumes the registry rather than keeping its own list.
    assert plan_mod.ALL_SITES is ALL_SITES
    assert plan_mod.SERVICE_CRASH == SERVICE_CRASH


class TestSpecValidation:
    def test_typoed_crashpoint_rejected_at_construction(self):
        with pytest.raises(ValueError, match="pickup"):
            FaultSpec(SERVICE_CRASH, params={"point": "picup"})

    def test_every_crashpoint_accepted(self):
        for pt in CRASHPOINTS:
            FaultSpec(SERVICE_CRASH, params={"point": pt})

    def test_typoed_policy_rejected(self):
        with pytest.raises(ValueError, match="restart_from_checkpoint"):
            FaultSpec(VM_KILL, params={"policy": "checkpoint_restart"})

    def test_every_policy_accepted(self):
        for pol in VM_POLICIES:
            FaultSpec(VM_KILL, params={"policy": pol})

    def test_untargeted_spec_needs_no_params(self):
        validate_spec_params(SERVICE_CRASH, {})    # no "point": fires anywhere

    def test_non_target_params_pass_through(self):
        FaultSpec("plirq.storm", params={"line": 3, "count": 2})


class TestKillSpecValidation:
    def test_board_sites_accepted(self):
        for s in ("board.crash", "board.hang", "board.partition"):
            KillSpec(tick=1, board=0, site=s)

    def test_inline_site_rejected(self):
        with pytest.raises(ValueError, match="board"):
            KillSpec(tick=1, board=0, site="service.crash")

    def test_typo_rejected(self):
        with pytest.raises(ValueError):
            KillSpec(tick=1, board=0, site="board.crashh")


def test_spec_dict_round_trip():
    spec = FaultSpec(SERVICE_CRASH, after=2, max_fires=3,
                     params={"point": "pickup"})
    again = FaultSpec.from_dict(spec.as_dict())
    assert again.as_dict() == spec.as_dict()
