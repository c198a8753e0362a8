"""Hardware-task table and PRR table construction."""

import pytest

from repro.common.errors import DeviceError
from repro.hwmgr.tables import HardwareTaskTable, HwTaskEntry, PrrTable


def test_build_from_bitstream_store(machine):
    table = HardwareTaskTable.build(machine.bitstreams, machine.prrs,
                                    machine.pcap.transfer_cycles,
                                    row_base=0x1000)
    assert len(table) == len(machine.bitstreams.tasks())
    # IDs are 1..N over sorted names.
    names = sorted(machine.bitstreams.tasks())
    for i, name in enumerate(names):
        e = table.by_id(i + 1)
        assert e is not None and e.name == name
        assert table.by_name(name) is e
        assert e.reconfig_cycles == machine.pcap.transfer_cycles(e.bitstream.size)
        assert e.row_addr == 0x1000 + i * 64


def test_prr_lists_respect_capacity(machine):
    table = HardwareTaskTable.build(machine.bitstreams, machine.prrs,
                                    machine.pcap.transfer_cycles)
    # Paper floorplan: FFTs only in the two big PRRs, QAM anywhere.
    assert table.by_name("fft8192").prr_list == (0, 1)
    assert table.by_name("qam16").prr_list == (0, 1, 2, 3)


def test_duplicate_id_rejected(machine):
    t = HardwareTaskTable()
    e = HwTaskEntry(task_id=1, name="x",
                    bitstream=machine.bitstreams.get("qam4"),
                    prr_list=(0,), reconfig_cycles=1)
    t.add(e)
    with pytest.raises(DeviceError):
        t.add(HwTaskEntry(task_id=1, name="y",
                          bitstream=machine.bitstreams.get("qam16"),
                          prr_list=(0,), reconfig_cycles=1))


def test_unfittable_task_rejected(machine):
    machine.prrs[0].capacity = machine.prrs[2].capacity  # shrink big PRRs
    machine.prrs[1].capacity = machine.prrs[2].capacity
    with pytest.raises(DeviceError):
        HardwareTaskTable.build(machine.bitstreams, machine.prrs,
                                machine.pcap.transfer_cycles)


def test_prr_table_queries(machine):
    t = PrrTable(machine.prrs, row_base=0x2000)
    t.row(0).client_vm = 1
    t.row(2).client_vm = 1
    t.row(3).client_vm = 2
    assert [r.prr_id for r in t.rows_of_client(1)] == [0, 2]
    assert t.row(1).row_addr == 0x2000 + 64
