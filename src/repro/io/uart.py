"""UART model (Zynq UART0-flavoured, transmit side).

The paper's guests use the UART "with the microkernel's supervision"
(Section V-A): guests never map the device; they print through the
DEV_ACCESS hypercall and the kernel serializes characters into the one
physical port, tagging output per VM.  The device model itself is a
simple MMIO FIFO that records everything written.
"""

from __future__ import annotations

# Register offsets (subset of the Zynq UART block).
UART_FIFO = 0x30     # TX/RX FIFO
UART_SR = 0x2C       # channel status
UART_CR = 0x00

SR_TXEMPTY = 1 << 3

UART_WINDOW_SIZE = 0x1000


class Uart:
    def __init__(self) -> None:
        self.output = bytearray()
        self.enabled = True

    def putc(self, byte: int) -> None:
        if self.enabled:
            self.output.append(byte & 0xFF)

    def text(self) -> str:
        return self.output.decode("latin-1")

    # -- MMIO ---------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        if offset == UART_SR:
            return SR_TXEMPTY          # transmitter always ready
        if offset == UART_CR:
            return int(self.enabled)
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        if offset == UART_FIFO:
            self.putc(value)
        elif offset == UART_CR:
            self.enabled = bool(value & 1)
