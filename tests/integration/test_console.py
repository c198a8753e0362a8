"""Supervised UART console (Section V-A shared-I/O supervision)."""

import pytest

from repro.eval.scenarios import build_native, build_virtualized
from repro.guest.actions import Delay, Finish, Hypercall
from repro.io.uart import UART_FIFO, UART_SR, SR_TXEMPTY, Uart
from repro.kernel.hypercalls import Hc


def test_uart_device_model():
    u = Uart()
    for b in b"hi":
        u.mmio_write(UART_FIFO, b)
    assert u.text() == "hi"
    assert u.mmio_read(UART_SR) & SR_TXEMPTY
    u.mmio_write(0x00, 0)      # CR: disable
    u.mmio_write(UART_FIFO, ord("x"))
    assert u.text() == "hi"    # dropped while disabled


def console_print(text):
    """Print through the kernel-supervised UART (DEV_ACCESS hypercall).

    Characters are packed 8 per hypercall (two argument words); a trailing
    newline is added, closing the line in the kernel's per-VM transcript.
    """
    data = (text + "\n").encode("latin-1").replace(b"\x00", b"?")
    for i in range(0, len(data), 8):
        chunk = data[i:i + 8].ljust(8, b"\x00")
        w0 = int.from_bytes(chunk[:4], "little")
        w1 = int.from_bytes(chunk[4:], "little")
        yield Hypercall(int(Hc.DEV_ACCESS), (0, 0, w0, w1))


def _printer(text, times=1, delay=0):
    def fn(os):
        for _ in range(times):
            yield from console_print(text)
            if delay:
                yield Delay(delay)
        yield Finish()
    return fn


def test_guest_print_reaches_physical_uart():
    sc = build_virtualized(1, seed=81, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    sc.guests[0].os.create_task("print", 7, _printer("hello from vm1"))
    sc.run_ms(30)
    assert "hello from vm1\n" in sc.machine.uart.text()


def test_kernel_transcript_tags_lines_per_vm():
    sc = build_virtualized(2, seed=82, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    sc.guests[0].os.create_task("p", 7, _printer("alpha"))
    sc.guests[1].os.create_task("p", 7, _printer("beta"))
    sc.run_ms(80)
    by_vm = {}
    for vm_id, line in sc.kernel.console_log:
        by_vm.setdefault(vm_id, []).append(line)
    texts = {tuple(v) for v in by_vm.values()}
    assert ("alpha",) in texts and ("beta",) in texts


def test_interleaved_output_keeps_line_integrity():
    """Two chatty guests: the per-VM transcript never mixes their bytes,
    even though the physical UART stream interleaves."""
    sc = build_virtualized(2, seed=83, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    sc.guests[0].os.create_task("p", 7, _printer("aaaaaaaaaaaaaaaaaaaa", 5, 1))
    sc.guests[1].os.create_task("p", 7, _printer("bbbbbbbbbbbbbbbbbbbb", 5, 1))
    sc.run_ms(200)
    for vm_id, line in sc.kernel.console_log:
        assert line in ("aaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbb")
        assert len(set(line)) == 1       # no cross-VM byte mixing


def test_guest_cannot_touch_uart_directly():
    from repro.common.errors import DataAbort
    from repro.machine import UART_BASE
    sc = build_virtualized(1, seed=84, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    pd = next(p for p in sc.kernel.domains.values() if p.name == "vm1")
    sc.kernel._vm_switch(pd)
    with pytest.raises(DataAbort):
        sc.machine.mem.touch(UART_BASE + UART_FIFO, privileged=False,
                             write=True)


def test_native_console_path():
    sc = build_native(seed=85, with_workloads=False, iterations=0,
                      task_set=("qam4",))
    sc.guest.os.create_task("p", 7, _printer("native says hi"))
    sc.run_ms(30)
    assert "native says hi\n" in sc.machine.uart.text()


def test_bad_device_op_rejected():
    from repro.guest.actions import Hypercall
    from repro.kernel.hypercalls import Hc, HcStatus
    sc = build_virtualized(1, seed=86, with_workloads=False, iterations=0,
                           task_set=("qam4",))
    results = []

    def fn(os):
        results.append((yield Hypercall(int(Hc.DEV_ACCESS), (9, 0, 0, 0))))
        yield Finish()

    sc.guests[0].os.create_task("t", 7, fn)
    sc.run_ms(30)
    assert results == [HcStatus.ERR_ARG]
