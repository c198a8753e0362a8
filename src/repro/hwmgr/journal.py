"""Write-ahead intent journal for the Hardware Task Manager.

The manager follows the paper's de-privileged-service argument to its
conclusion: if the service PD can die at any instruction, every mutation
of fabric state must be replayable.  Before touching a PRR the manager
appends an **intent** record to a small journal kept in its data area
(``L.MANAGER_DATA_VA + JOURNAL_OFF``), advances it to **act** once the
first side effect lands, and **commits** (or **aborts**) it when the
operation completes.  The journal object itself is owned by the *kernel*
(``kernel.manager_journal``) and the backing frames are part of the
manager PD's persistent data area, so it survives a manager restart — the
fresh instance replays or rolls back whatever its predecessor left open
(see :mod:`repro.hwmgr.recovery` and docs/RECOVERY.md).

Journal bookkeeping is deliberately *untimed*: the modelled cost rides on
the allocator's existing ``alloc_bookkeeping`` budget, so healthy runs
stay cycle-identical to the pre-journal codebase.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Byte offset of the journal inside the manager data area.
JOURNAL_OFF = 0x5000

#: Entry life cycle (monotonic; COMMITTED/ABORTED are terminal).
INTENT = "intent"
ACT = "act"
COMMITTED = "committed"
ABORTED = "aborted"

#: Journalled operations.
OP_ALLOCATE = "allocate"
OP_RELEASE = "release"
OP_RECLAIM = "reclaim"

_OPEN_STATES = frozenset({INTENT, ACT})


@dataclass
class JournalEntry:
    """One journalled manager operation (fixed 32-byte slot in the model)."""

    seq: int
    op: str
    client_vm: int | None
    task_id: int
    prr_id: int | None
    row_addr: int = 0
    state: str = INTENT
    reconfig: bool = False

    @property
    def open(self) -> bool:
        return self.state in _OPEN_STATES


class IntentJournal:
    """Append-only intent log with idempotent state transitions.

    ``begin`` appends an INTENT record; ``note_act`` marks the first side
    effect; ``commit``/``abort`` close the entry.  Closing an already
    closed entry is a no-op (recovery may race a late PCAP callback), but
    an entry can never move *back* to an open state, so an operation is
    applied at most once.
    """

    def __init__(self, row_base: int = 0) -> None:
        self.row_base = row_base
        self._next_seq = 0
        self._entries: list[JournalEntry] = []
        #: Entry transitions; they balance the journal (invariant I6).
        self.stats = {"opened": 0, "committed": 0, "aborted": 0}

    # -- the write path (manager side) ----------------------------------

    def begin(self, op: str, *, client_vm: int | None, task_id: int,
              prr_id: int | None, reconfig: bool = False) -> JournalEntry:
        e = JournalEntry(seq=self._next_seq, op=op, client_vm=client_vm,
                         task_id=task_id, prr_id=prr_id, reconfig=reconfig,
                         row_addr=self.row_base + 32 * (self._next_seq % 64))
        self._next_seq += 1
        self._entries.append(e)
        self.stats["opened"] += 1
        return e

    def reuse_or_begin(self, op: str, *, client_vm: int | None, task_id: int,
                       prr_id: int | None) -> JournalEntry:
        """Return the newest matching *open* entry, or append a fresh one.

        Recovery replays an interrupted release/reclaim by re-running it
        through the normal code path; reusing the predecessor's open
        entry keeps the journal balanced (no orphaned open records).
        """
        for e in reversed(self._entries):
            if (e.open and e.op == op and e.client_vm == client_vm
                    and e.task_id == task_id and e.prr_id == prr_id):
                return e
        return self.begin(op, client_vm=client_vm, task_id=task_id,
                          prr_id=prr_id)

    def note_act(self, entry: JournalEntry) -> None:
        if entry.state == INTENT:
            entry.state = ACT

    def commit(self, entry: JournalEntry) -> None:
        if entry.open:
            entry.state = COMMITTED
            self.stats["committed"] += 1

    def abort(self, entry: JournalEntry) -> None:
        if entry.open:
            entry.state = ABORTED
            self.stats["aborted"] += 1

    # -- the read path (recovery side) ----------------------------------

    def open_entries(self) -> list[JournalEntry]:
        return [e for e in self._entries if e.open]

    def entry_for_prr(self, prr_id: int) -> JournalEntry | None:
        """The newest *open* entry touching ``prr_id`` (or ``None``)."""
        for e in reversed(self._entries):
            if e.open and e.prr_id == prr_id:
                return e
        return None

    def balanced(self) -> bool:
        """Every opened entry is committed, aborted, or still open."""
        open_n = len(self.open_entries())
        return (self.stats["opened"]
                == self.stats["committed"] + self.stats["aborted"] + open_n)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<IntentJournal opened={self.stats['opened']} "
                f"open={len(self.open_entries())} "
                f"committed={self.stats['committed']} "
                f"aborted={self.stats['aborted']}>")
