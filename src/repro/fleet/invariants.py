"""Fleet invariants F1-F6: checked after every dispatcher tick.

The fleet counterpart of the board-local I1-I8 (docs/RECOVERY.md) and
L1-L6 sweeps — properties of the *dispatcher's* bookkeeping against the
boards' ground truth, the ones a lost message or a half-finished
migration would break:

F1  **No VM lost.**  Every tenant is running (placed on a non-fenced
    board), migrating (with a checkpoint held by the dispatcher), shed,
    or dead — never limbo.
F2  **No VM duplicated.**  At most one active placement per tenant, and
    no two tenants share a ``(board, vm_id)`` slot.  Fenced boards do
    not count: whatever a misdeclared-but-alive worker still runs is
    outside the accounted fleet by fencing (F6).
F3  **No orphaned PRR grants.**  On every reachable board, each PRR
    granted to a client VM belongs to a tenant currently placed there
    (or to the board's manager service).  A migrated or shed tenant's
    grants must have been reclaimed by its kill.
F4  **Request conservation.**  Per tenant, every request in the ledger
    is queued or has exactly one outcome: the queue holds exactly the
    request IDs that have no outcome, oldest first, at every tick.  The
    same pass checks O3, the overload plane's per-request timing (O1-O5
    in :mod:`repro.fleet.overload`), so each ledger is read once a tick.
F5  **Monotonic placement epochs.**  The epoch sequence of every tenant
    is strictly increasing — a stale (pre-migration) placement can never
    be re-admitted as current.
F6  **Fencing.**  Once a board is declared dead, no RPC is ever issued
    to it and nothing it produces is counted.  The link layer counts
    attempts in ``fleet.fencing_violations``; this check demands zero.

Violations funnel into the dispatcher's run report and trigger a
flight-recorder dump on the first reachable board (docs/FLEET.md §6).
"""

from __future__ import annotations

from .overload import DROP_DEADLINE
from .tenant import DEAD, MIGRATING, REFUSALS, RUNNING, SERVED, SHED

#: ``attach_manager`` always takes the first VM id on a board.
MANAGER_VM_ID = 1


def check_fleet_invariants(disp) -> list[str]:
    """Run F1-F6 against ``disp`` (a :class:`~repro.fleet.dispatcher.
    Dispatcher`); returns human-readable violation strings, [] if sound."""
    out: list[str] = []

    # F1: no VM lost.
    for name, rec in sorted(disp.tenants.items()):
        if rec.state not in (RUNNING, MIGRATING, SHED, DEAD):
            out.append(f"F1: tenant {name} in unknown state {rec.state!r}")
            continue
        if rec.state == RUNNING:
            if rec.board is None or rec.vm_id is None:
                out.append(f"F1: running tenant {name} has no placement")
            elif disp.links[rec.board].fenced:
                out.append(f"F1: running tenant {name} placed on fenced "
                           f"board {rec.board}")
        elif rec.state == MIGRATING and name not in disp.ckpts:
            out.append(f"F1: migrating tenant {name} holds no checkpoint")

    # F2: no VM duplicated.
    placed: dict[tuple[int, int], str] = {}
    for name, rec in sorted(disp.tenants.items()):
        if rec.state != RUNNING or rec.board is None:
            continue
        key = (rec.board, rec.vm_id)
        if key in placed:
            out.append(f"F2: tenants {placed[key]} and {name} share "
                       f"board {key[0]} vm {key[1]}")
        placed[key] = name

    # F3: no orphaned PRR grants (reachable boards only — an unreachable
    # board's fabric cannot be observed, and a fenced one is out of the
    # fleet by F6).  The oracle reads the host directly: a probe through
    # ``BoardLink.call`` would count as fleet traffic, feed the retry
    # budget and close a half-open breaker.
    for link in disp.links:
        if not link.reachable:
            continue
        grants = link.host.call("prr_grants")
        vm_ids = {rec.vm_id for rec in disp.tenants.values()
                  if rec.state == RUNNING and rec.board == link.board_id}
        for prr_id, client in grants:
            if client != MANAGER_VM_ID and client not in vm_ids:
                out.append(f"F3: board {link.board_id} PRR {prr_id} "
                           f"granted to unplaced vm {client}")

    # F4: request conservation, with O3 in the same pass.
    for _, rec in sorted(disp.tenants.items()):
        out.extend(check_ledger(rec, disp.overload.deadline_ticks))

    # F5: strictly monotonic placement epochs.
    for name, log in sorted(disp.epoch_log.items()):
        if any(b <= a for a, b in zip(log, log[1:])):
            out.append(f"F5: tenant {name} epoch sequence not strictly "
                       f"increasing: {log}")

    # F6: fencing honoured.
    fenced_calls = disp.metrics.total("fleet.fencing_violations")
    if fenced_calls:
        out.append(f"F6: {fenced_calls} RPC attempt(s) to fenced boards")

    return out


def check_ledger(rec, deadline: int) -> list[str]:
    """F4 and O3 over one tenant's request ledger, in one pass (a
    request that arrives at tick ``a`` and is served at ``e`` waited
    ``e - a + 1`` ticks)."""
    out: list[str] = []
    name = rec.spec.name
    open_ids = []
    for rid, (arrival, outcome, end) in enumerate(rec.ledger):
        if outcome is None:
            open_ids.append(rid)
        elif outcome in REFUSALS:
            if end != arrival:
                out.append(f"O3: tenant {name} request {rid} refused "
                           f"({outcome}) at t{end}, not on arrival "
                           f"t{arrival}")
        elif outcome == SERVED:
            if end - arrival >= deadline:
                out.append(f"O3: tenant {name} request {rid} served at "
                           f"t{end} past its deadline (arrived t{arrival})")
        elif outcome == DROP_DEADLINE and end - arrival < deadline:
            out.append(f"O3: tenant {name} request {rid} expired at "
                       f"t{end} before its deadline (arrived t{arrival})")
    if open_ids != list(rec.queue):
        out.append(f"F4: tenant {name} queues {list(rec.queue)} but its "
                   f"requests without an outcome are {open_ids}")
    return out
