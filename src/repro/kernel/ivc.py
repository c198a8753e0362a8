"""Inter-VM communication: bounded kernel mailboxes + notification vIRQ.

The microkernel property the paper lists third ("communication"): a VM can
send a small message to a peer; the kernel copies it into the receiver's
mailbox and pends a vIRQ so the receiver learns about it when scheduled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry

#: vIRQ id used to notify a VM of pending IVC messages.
IVC_IRQ = 30

#: Mailbox capacity (messages) per VM.
MAILBOX_SLOTS = 16

#: Payload words per message.
MSG_WORDS = 4


@dataclass
class IvcMessage:
    src_vm: int
    payload: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.payload) > MSG_WORDS:
            raise ValueError(f"IVC payload exceeds {MSG_WORDS} words")


@dataclass
class Mailbox:
    vm_id: int
    queue: deque[IvcMessage] = field(default_factory=deque)

    def push(self, msg: IvcMessage) -> bool:
        if len(self.queue) >= MAILBOX_SLOTS:
            return False
        self.queue.append(msg)
        return True

    def pop(self) -> IvcMessage | None:
        return self.queue.popleft() if self.queue else None

    def __len__(self) -> int:
        return len(self.queue)


class IvcRouter:
    """All mailboxes; owned by the kernel, driven by IVC_SEND/IVC_RECV.

    Messages delivered and messages refused by a full mailbox are counted
    in the machine's registry (``kernel.ivc_sent``, ``kernel.ivc_dropped``),
    so the counts survive a mailbox being replaced when its VM dies."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._boxes: dict[int, Mailbox] = {}
        self._m_sent = metrics.counter("kernel.ivc_sent")
        self._m_dropped = metrics.counter("kernel.ivc_dropped")

    def register(self, vm_id: int) -> Mailbox:
        box = Mailbox(vm_id)
        self._boxes[vm_id] = box
        return box

    def send(self, src_vm: int, dst_vm: int, payload: tuple[int, ...]) -> bool:
        """Deliver a message; returns False when dst is unknown or full."""
        box = self._boxes.get(dst_vm)
        if box is None:
            return False
        ok = box.push(IvcMessage(src_vm=src_vm, payload=payload))
        (self._m_sent if ok else self._m_dropped).inc()
        return ok

    def recv(self, vm_id: int) -> IvcMessage | None:
        box = self._boxes.get(vm_id)
        return box.pop() if box else None

    def pending(self, vm_id: int) -> int:
        box = self._boxes.get(vm_id)
        return len(box) if box else 0
