"""Intent-journal unit tests: lifecycle, idempotent closing, balance."""

from repro.hwmgr.journal import (
    ABORTED,
    ACT,
    COMMITTED,
    INTENT,
    IntentJournal,
    OP_ALLOCATE,
    OP_RECLAIM,
    OP_RELEASE,
)


def test_lifecycle_intent_act_commit():
    j = IntentJournal(row_base=0x5000)
    e = j.begin(OP_ALLOCATE, client_vm=1, task_id=3, prr_id=0, reconfig=True)
    assert e.state == INTENT and e.open
    j.note_act(e)
    assert e.state == ACT and e.open
    j.commit(e)
    assert e.state == COMMITTED and not e.open
    assert j.balanced()


def test_closing_is_idempotent_and_terminal():
    j = IntentJournal()
    e = j.begin(OP_RELEASE, client_vm=1, task_id=0, prr_id=None)
    j.commit(e)
    # A late abort (recovery racing a PCAP callback) must not reopen or
    # double-count the entry.
    j.abort(e)
    assert e.state == COMMITTED
    assert j.stats == {"opened": 1, "committed": 1, "aborted": 0}
    # note_act after close is a no-op too.
    j.note_act(e)
    assert e.state == COMMITTED


def test_reuse_or_begin_returns_open_match():
    j = IntentJournal()
    e1 = j.begin(OP_RECLAIM, client_vm=2, task_id=0, prr_id=1)
    assert j.reuse_or_begin(OP_RECLAIM, client_vm=2, task_id=0,
                            prr_id=1) is e1
    # A closed entry is never reused.
    j.commit(e1)
    e2 = j.reuse_or_begin(OP_RECLAIM, client_vm=2, task_id=0, prr_id=1)
    assert e2 is not e1
    assert j.stats["opened"] == 2


def test_entry_for_prr_finds_newest_open():
    j = IntentJournal()
    old = j.begin(OP_ALLOCATE, client_vm=1, task_id=1, prr_id=2)
    j.commit(old)
    assert j.entry_for_prr(2) is None
    new = j.begin(OP_ALLOCATE, client_vm=2, task_id=1, prr_id=2)
    assert j.entry_for_prr(2) is new
    assert j.entry_for_prr(3) is None


def test_balanced_counts_open_entries():
    j = IntentJournal()
    j.commit(j.begin(OP_RELEASE, client_vm=1, task_id=0, prr_id=None))
    j.begin(OP_ALLOCATE, client_vm=1, task_id=1, prr_id=0)   # left open
    assert j.balanced()
    assert len(j.open_entries()) == 1
