"""Hardened PCAP: retry with backoff, timeout watchdog, bounded giveup."""

import pytest

from repro.common.errors import DeviceBusy, DeviceError
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    BITSTREAM_CORRUPT,
    FaultPlan,
    FaultSpec,
    PCAP_HANG,
    PCAP_TRANSFER_ERROR,
    UNLIMITED,
)
from repro.fpga.controller import TASKID_RECONFIG_FAILED
from repro.fpga.prr import PrrStatus, REG_TASKID
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def attach(machine, specs, seed=1):
    inj = FaultInjector(FaultPlan(specs, seed=seed))
    tracer, metrics = Tracer(), MetricsRegistry()
    tracer.bind(machine.sim)
    inj.attach(machine)
    inj.attach_obs(tracer, metrics)
    machine.pcap.attach_obs(tracer, metrics)
    return inj, tracer, metrics


def run_to_quiescence(machine, cap=500_000_000):
    machine.sim.run_until(machine.now + cap)


def test_device_busy_hierarchy(machine):
    """A second transfer while one is in flight raises DeviceBusy, a
    DeviceError."""
    bit = machine.bitstreams.get("fft1024")
    machine.pcap.start_transfer(bit, 0)
    with pytest.raises(DeviceBusy):
        machine.pcap.start_transfer(machine.bitstreams.get("qam4"), 1)
    assert issubclass(DeviceBusy, DeviceError)


def test_transfer_error_retried_then_succeeds(machine):
    inj, tracer, metrics = attach(
        machine, [FaultSpec(PCAP_TRANSFER_ERROR, max_fires=1)])
    done = []
    machine.pcap.on_done = lambda prr, task: done.append((prr, task))
    machine.pcap.start_transfer(machine.bitstreams.get("fft256"), 0)
    run_to_quiescence(machine)
    assert not machine.pcap.busy
    assert machine.prrs[0].core.name == "fft256"
    assert done == [(0, "fft256")]
    assert metrics.counter("pcap.errors", reason="dma").value == 1
    assert metrics.counter("recovery.pcap_retries").value == 1
    assert metrics.counter("recovery.pcap_giveups").value == 0
    assert tracer.count("pcap_xfer_error") == 1
    assert tracer.count("pcap_retry") == 1


def test_corrupt_bitstream_fails_crc_then_retries(machine):
    inj, tracer, metrics = attach(
        machine, [FaultSpec(BITSTREAM_CORRUPT, max_fires=1)])
    machine.pcap.start_transfer(machine.bitstreams.get("qam16"), 1)
    run_to_quiescence(machine)
    assert machine.prrs[1].core.name == "qam16"
    assert metrics.counter("pcap.errors", reason="crc").value == 1
    assert metrics.counter("recovery.pcap_retries").value == 1


def test_hang_resolved_by_timeout_then_retry(machine):
    inj, tracer, metrics = attach(
        machine, [FaultSpec(PCAP_HANG, max_fires=1)])
    machine.pcap.start_transfer(machine.bitstreams.get("fft256"), 0)
    run_to_quiescence(machine)
    assert not machine.pcap.busy
    assert machine.prrs[0].core.name == "fft256"
    assert metrics.counter("pcap.errors", reason="timeout").value == 1
    assert metrics.counter("recovery.pcap_retries").value == 1


def test_exhausted_retries_abort_reconfig(machine):
    inj, tracer, metrics = attach(
        machine, [FaultSpec(PCAP_TRANSFER_ERROR, max_fires=UNLIMITED)])
    done = []
    machine.pcap.on_done = lambda prr, task: done.append((prr, task))
    machine.pcap.start_transfer(machine.bitstreams.get("fft256"), 0)
    run_to_quiescence(machine)
    assert not machine.pcap.busy                      # never wedged
    assert done == []                                 # no success callback
    prr = machine.prrs[0]
    assert prr.status is PrrStatus.ERR_RECONFIG
    assert not prr.reconfiguring
    assert prr.core is None
    # Guests learn about the abort through REG_TASKID.
    ctl = machine.prr_controller
    assert ctl.mmio_read(0 + REG_TASKID) == TASKID_RECONFIG_FAILED
    assert metrics.counter("recovery.pcap_giveups").value == 1
    # max_retries=2 -> 3 attempts, 3 errors, 2 retries.
    assert machine.pcap.transfers == 3
    assert metrics.counter("recovery.pcap_retries").value == 2
    assert tracer.count("pcap_giveup") == 1


def test_no_plan_means_untouched_happy_path(machine):
    """Without an injector the PCAP schedules exactly one event per
    transfer — the timing-neutrality invariant behind the baselines."""
    pending0 = machine.sim.pending_count
    machine.pcap.start_transfer(machine.bitstreams.get("qam4"), 2)
    assert machine.sim.pending_count == pending0 + 1
    machine.sim.advance_to_next_event()
    assert machine.prrs[2].core.name == "qam4"
