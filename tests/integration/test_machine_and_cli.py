"""Machine assembly, kernel address spaces, report and CLI plumbing."""

import pytest

from repro.eval.report import scenario_report
from repro.eval.scenarios import build_native, build_virtualized
from repro.kernel import layout as L
from repro.kernel.core import MiniNova
from repro.machine import (
    GIC_BASE,
    GLOBAL_TIMER_BASE,
    Machine,
    MachineConfig,
    PCAP_BASE,
    PRIV_TIMER_BASE,
    PRR_LARGE,
)


def test_machine_devices_reachable_over_bus(machine):
    bus = machine.mem.bus
    for base in (GIC_BASE, PRIV_TIMER_BASE, GLOBAL_TIMER_BASE, PCAP_BASE,
                 machine.params.memmap.prr_reg_base):
        assert bus.is_device(base)
        bus.read32(base)     # must not bus-error


def test_machine_gic_drives_cpu_line(machine):
    machine.gic.set_enable(61, True)
    machine.gic.assert_irq(61)
    assert machine.cpu.irq_line
    machine.gic.ack()
    assert not machine.cpu.irq_line


def test_machine_prr_page_addresses(machine):
    assert machine.prr_reg_page_paddr(0) == machine.params.memmap.prr_reg_base
    assert machine.prr_reg_page_paddr(3) - machine.prr_reg_page_paddr(2) == 4096
    assert machine.prr_ctl_page_paddr() == machine.prr_reg_page_paddr(0) + 4 * 4096


def test_custom_floorplan(machine):
    m = Machine(MachineConfig(prr_capacities=(PRR_LARGE,), tasks=("fft256",)))
    assert len(m.prrs) == 1
    assert m.bitstreams.tasks() == ["fft256"]


def test_guest_spaces_disjoint_physical(small_machine):
    k = MiniNova(small_machine)
    k.boot()

    class _N:
        def bind(s, *a): ...
        def step(s, b): ...
        def deliver_virq(s, i): ...
        def complete_hypercall(s, e): ...

    a = k.create_vm("a", _N())
    b = k.create_vm("b", _N())
    assert a.phys_base + a.phys_size <= b.phys_base or \
        b.phys_base + b.phys_size <= a.phys_base
    assert a.asid != b.asid
    # Same VA maps to different PAs.
    pa_a = a.page_table.l2_entry_addr(L.GUEST_KERNEL_CODE)
    pa_b = b.page_table.l2_entry_addr(L.GUEST_KERNEL_CODE)
    assert pa_a != pa_b


def test_kva_linear_map():
    pa = L.KERNEL_BASE + 0x1234
    assert L.kva(pa) == L.KERNEL_LINEAR_BASE + 0x1234


def test_report_smoke_virtualized():
    sc = build_virtualized(1, seed=61, iterations=2, with_workloads=True,
                           task_set=("qam4",))
    sc.run_until_completions(2, max_ms=2000)
    text = scenario_report(sc)
    assert "virtualized scenario report" in text
    assert "PRR0" in text and "TLB" in text
    assert "T_hw ok 2/2" in text


def test_report_smoke_native():
    sc = build_native(seed=62, iterations=2, with_workloads=False,
                      task_set=("qam4",))
    sc.run_until_completions(2, max_ms=2000)
    text = scenario_report(sc)
    assert "native scenario report" in text


def test_cli_inventory(capsys):
    from repro.__main__ import main
    assert main(["inventory"]) == 0
    out = capsys.readouterr().out
    assert "fft8192" in out and "PRR3" in out


def test_cli_run_native(capsys):
    from repro.__main__ import main
    assert main(["run", "--native", "--ms", "30"]) == 0
    out = capsys.readouterr().out
    assert "native scenario report" in out


def test_cli_run_and_bench_share_the_slo_verdict(tmp_path, capsys):
    """``run`` and ``bench`` print one SLO verdict; a breach exits 3."""
    import json

    from repro.__main__ import main
    slo = tmp_path / "slo.json"
    slo.write_text(json.dumps({"slos": [{
        "name": "switch-p99", "kind": "latency_p99",
        "histogram": "kernel.vm_switch_cycles", "quantile": 0.99,
        "max": 1, "window_cycles": 6_600_000}]}))
    args = ["--ms", "30", "--slo", str(slo)]
    assert main(["run", *args, "--flight-out", str(tmp_path / "f.json")]) == 3
    run_err = capsys.readouterr().err
    assert main(["bench", *args, "--out", str(tmp_path / "b.json")]) == 3
    bench_err = capsys.readouterr().err
    for err in (run_err, bench_err):
        assert "SLO BREACH:" in err and "across 1 rule(s)" in err
        assert "switch-p99 (latency_p99) at cycle" in err


def test_cli_run_and_bench_share_the_stream_setup(tmp_path, capsys):
    """``run`` and ``bench`` build their stream and SLO engine one way: a
    bad SLO config or an unwritable stream path exits 2 before anything
    runs, and a bad SLO config leaves no stream file behind."""
    from repro.__main__ import main
    stream = tmp_path / "s.jsonl"
    bad_slo = tmp_path / "bad.json"
    bad_slo.write_text("{")
    for cmd in (["run", "--flight-out", str(tmp_path / "f.json")],
                ["bench", "--out", str(tmp_path / "b.json")]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--ms", "1", "--slo", str(bad_slo),
                  "--stream-out", str(stream)])
        assert exc.value.code == 2
        assert "error: bad SLO config" in capsys.readouterr().err
        assert not stream.exists()
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--ms", "1",
                  "--stream-out", str(tmp_path / "missing" / "s.jsonl")])
        assert exc.value.code == 2
        assert "error: cannot write stream to" in capsys.readouterr().err


def test_cli_record_bus_streams_start_with_a_header(tmp_path):
    """``fleet`` and ``explore`` record buses open with a ``header`` that
    carries the schema version, the source and the seed."""
    import json

    from repro.__main__ import main
    from repro.obs.stream import STREAM_SCHEMA_VERSION
    runs = {"fleet": ["fleet", "--boards", "2", "--ticks", "8", "--seed", "3"],
            "explore": ["explore", "--named", "pcap-retry", "--seed", "5"]}
    for source, argv in runs.items():
        stream = tmp_path / f"{source}.jsonl"
        assert main([*argv, "--stream-out", str(stream),
                     "--out", str(tmp_path / f"{source}.json")]) == 0
        records = [json.loads(x) for x in stream.read_text().splitlines()]
        head = records[0]
        assert head["type"] == "header" and head["seq"] == 0
        assert head["schema_version"] == STREAM_SCHEMA_VERSION
        assert head["source"] == source
        assert head["seed"] == int(argv[-1])
        assert head["snapshot"]["counters"] == {}
        assert [r["type"] for r in records].count("header") == 1
        assert records[-1]["type"] == "end"
        assert records[-1]["records"] == len(records)


def test_cli_migration_demo_writes_out(tmp_path, capsys):
    import json

    from repro.__main__ import main
    out = tmp_path / "demo.json"
    assert main(["fleet", "--migration-demo", "--out", str(out)]) == 0
    demo = json.loads(out.read_text())
    assert demo["ok"] and demo["bit_exact"]
    assert capsys.readouterr().out == f"wrote {out}\n"


def test_cli_fleet_has_one_board_host(capsys):
    from repro.__main__ import main
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "--workers", "process"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
