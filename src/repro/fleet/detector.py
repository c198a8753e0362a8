"""Heartbeat failure detector: deadline timeouts over dispatcher ticks.

The dispatcher probes every non-fenced board once per tick (a heartbeat
RPC, subject to the same retry policy as any other call).  The detector
folds the outcomes: a board whose last successful probe is more than
``deadline_ticks`` ticks old is **declared dead** — the dispatcher then
fences its link (F6) and recovers its tenants.

The deadline is the availability/accuracy dial: shorter deadlines
migrate tenants sooner after a real crash but misdeclare boards whose
hang or partition would have healed (the classic impossibility — the
detector cannot distinguish slow from dead).  A misdeclared board stays
fenced: its worker may heal and keep running, but nothing it does is
ever observed again, so the fleet's request accounting stays exact.
"""

from __future__ import annotations


class FailureDetector:
    """Per-board last-heard bookkeeping + deadline declaration."""

    def __init__(self, board_ids, *, deadline_ticks: int) -> None:
        self.deadline = deadline_ticks
        self.last_ok = {b: -1 for b in board_ids}
        self.declared: set[int] = set()

    def observe(self, board_id: int, *, ok: bool, tick: int) -> None:
        """Record one heartbeat outcome for ``board_id`` at ``tick``."""
        if ok:
            self.last_ok[board_id] = tick

    def sweep(self, tick: int) -> list[int]:
        """Declare newly-dead boards as of ``tick`` (sorted, each board
        is declared at most once, ever)."""
        newly = []
        for board_id, last in sorted(self.last_ok.items()):
            if board_id in self.declared:
                continue
            if tick - last > self.deadline:
                self.declared.add(board_id)
                newly.append(board_id)
        return newly

    def alive(self, board_id: int) -> bool:
        return board_id not in self.declared
