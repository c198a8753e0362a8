"""Board hosting: every board lives in the dispatcher's own process.

:class:`InlineHost` speaks the board protocol — ``call(op, *args)``
invokes a :class:`~repro.fleet.board.BoardServer` method with plain-data
arguments and returns its plain-data result — fully deterministic, with
no processes.  A ``board.crash`` fault drops the server; the RPC layer
(:mod:`repro.fleet.rpc`) marks its link crashed first, so no call ever
reaches a killed host.
"""

from __future__ import annotations

from typing import Any

from .board import BoardServer


class InlineHost:
    """The board lives in the dispatcher's own process."""

    def __init__(self, board_id: int, *, seed: int) -> None:
        self._server: BoardServer | None = BoardServer(board_id, seed=seed)

    def call(self, op: str, *args: Any) -> Any:
        if self._server is None:
            raise RuntimeError(f"board op {op!r} reached a killed host")
        return getattr(self._server, op)(*args)

    def kill(self) -> None:
        """Drop the board (crash fault)."""
        self._server = None

    def close(self) -> None:
        self._server = None
