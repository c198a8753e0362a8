"""PCAP reconfiguration port + bitstream store."""

import pytest

from repro.common.errors import DeviceError
from repro.fpga.pcap import PCAP_LEN, PCAP_SRC, PCAP_STATUS
from repro.gic.irqs import IRQ_PCAP_DONE


def test_bitstreams_installed_in_dram(machine):
    bit = machine.bitstreams.get("fft1024")
    assert bit.size == machine.bitstreams.core("fft1024").bitstream_bytes
    blob = machine.mem.bus.dram.read_bytes(bit.paddr, 64)
    assert blob != b"\x00" * 64


def test_bitstream_checksum_deterministic(machine):
    b1 = machine.bitstreams.get("qam16")
    from repro.machine import Machine
    other = Machine()
    b2 = other.bitstreams.get("qam16")
    assert b1.checksum(machine.mem.bus) == b2.checksum(other.mem.bus)


def test_install_idempotent(machine):
    a = machine.bitstreams.install("fft256")
    b = machine.bitstreams.install("fft256")
    assert a is b


def test_unknown_task_raises(machine):
    with pytest.raises(DeviceError):
        machine.bitstreams.get("fft123456")


def test_transfer_latency_scales_with_size(machine):
    pcap = machine.pcap
    small = machine.bitstreams.get("qam4")
    big = machine.bitstreams.get("fft8192")
    assert pcap.transfer_cycles(big.size) > pcap.transfer_cycles(small.size)
    # 145 MB/s at 660 MHz: bytes * 660e6 / 145e6 cycles, rounded up.
    expect = -(-small.size * machine.params.cpu.hz
               // machine.params.fpga.pcap_bytes_per_sec)
    assert pcap.transfer_cycles(small.size) == expect


def test_transfer_configures_prr_and_raises_irq(machine):
    machine.gic.set_enable(IRQ_PCAP_DONE, True)
    bit = machine.bitstreams.get("fft1024")
    delay = machine.pcap.start_transfer(bit, 0)
    assert machine.pcap.busy
    assert machine.prrs[0].reconfiguring
    machine.sim.run_until(machine.now + delay)
    assert not machine.pcap.busy
    assert machine.prrs[0].core.name == "fft1024"
    assert not machine.prrs[0].reconfiguring
    assert machine.gic.pending[IRQ_PCAP_DONE]
    assert machine.metrics.total("prr.reconfigs", prr=0) == 1


def test_second_transfer_while_busy_rejected(machine):
    bit = machine.bitstreams.get("fft1024")
    machine.pcap.start_transfer(bit, 0)
    with pytest.raises(DeviceError):
        machine.pcap.start_transfer(machine.bitstreams.get("qam4"), 1)


def test_reconfig_into_too_small_prr_rejected(machine):
    bit = machine.bitstreams.get("fft8192")
    machine.pcap.start_transfer(bit, 3)          # PRR3 is small
    with pytest.raises(DeviceError):
        machine.sim.advance_to_next_event()


def test_on_done_hook(machine):
    done = []
    machine.pcap.on_done = lambda prr, task: done.append((prr, task))
    machine.pcap.start_transfer(machine.bitstreams.get("qam64"), 2)
    machine.sim.advance_to_next_event()
    assert done == [(2, "qam64")]


def test_mmio_status_and_done_flag(machine):
    pcap = machine.pcap
    assert pcap.mmio_read(PCAP_STATUS) == 0
    pcap.start_transfer(machine.bitstreams.get("qam4"), 3)
    assert pcap.mmio_read(PCAP_STATUS) & 1          # busy
    machine.sim.advance_to_next_event()
    assert pcap.mmio_read(PCAP_STATUS) == 2          # done flag
    pcap.mmio_write(PCAP_STATUS, 2)                  # W1C
    assert pcap.mmio_read(PCAP_STATUS) == 0


def test_mmio_regs_roundtrip(machine):
    pcap = machine.pcap
    pcap.mmio_write(PCAP_SRC, 0x123)
    pcap.mmio_write(PCAP_LEN, 0x456)
    assert pcap.mmio_read(PCAP_SRC) == 0x123
    assert pcap.mmio_read(PCAP_LEN) == 0x456


def test_reconfig_overwrites_previous_task(machine):
    ctl = machine.prr_controller
    from repro.fpga.ip import make_core
    ctl.finish_reconfig(0, make_core("fft256"))
    machine.pcap.start_transfer(machine.bitstreams.get("fft512"), 0)
    # During reconfig the PRR reports no task.
    from repro.fpga.prr import REG_TASKID
    assert ctl.mmio_read(0 + REG_TASKID) == 0
    machine.sim.advance_to_next_event()
    assert machine.prrs[0].core.name == "fft512"
