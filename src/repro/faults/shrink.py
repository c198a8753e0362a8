"""Delta-debugging shrinker: failing schedule → minimal reproducer.

Given a failing fault schedule and a deterministic ``runner`` (same
faults ⇒ byte-identical result), the shrinker:

1. **ddmin over faults** — repeatedly drops individual faults while the
   schedule keeps failing, so a two-fault combination whose failure is
   really a one-fault bug shrinks to that one fault;
2. **window tightening** — per surviving fault, pulls gating back to
   its tightest still-failing form (``after`` → 0, ``max_fires`` → 1,
   ``every`` → 1, ``probability`` → 1.0, storm/kill ``count`` → 1);
3. **re-validation** — runs the minimal schedule twice and requires the
   two results to be byte-identical (their canonical-JSON fingerprints
   equal) *and* still failing.

The returned dict is embedded in the explore payload's ``repros`` list
and written as a standalone repro JSON runnable via
``python -m repro explore --repro`` (docs/FAULTS.md §5).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable


def result_fingerprint(result: dict[str, Any]) -> str:
    """Canonical byte-identity fingerprint of an executor result."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fails(result: dict[str, Any]) -> bool:
    return not result.get("ok", False)


def failed_checks(result: dict[str, Any]) -> list[str]:
    """The names of a result's failed checks, sorted."""
    return sorted(k for k, v in result.get("checks", {}).items() if not v)


def shrink_schedule(faults, *,
                    runner: Callable[[tuple], dict[str, Any]],
                    revalidations: int = 2,
                    reasons=None) -> dict[str, Any]:
    """Reduce ``faults`` (a tuple of JSON-stable fault dicts) to a
    minimal still-failing schedule; see the module docstring.  With
    ``reasons`` (the original run's failed checks), a candidate counts
    as still failing only if it fails one of them — so dropping a fault
    that a named schedule's expectations need cannot pass for the
    original failure."""
    cur = tuple(dict(f) for f in faults)
    runs = 0

    def failing(cand: tuple) -> bool:
        nonlocal runs
        runs += 1
        res = runner(cand)
        return _fails(res) and (not reasons
                                or not set(reasons).isdisjoint(
                                    failed_checks(res)))

    # 1. ddmin over whole faults (n is small; one-at-a-time removal is
    #    the n<=4 specialisation of ddmin's subset phase).
    shrunk = True
    while shrunk and len(cur) > 1:
        shrunk = False
        for i in range(len(cur)):
            cand = cur[:i] + cur[i + 1:]
            if failing(cand):
                cur = cand
                shrunk = True
                break

    # 2. Tighten each surviving fault's gating, keeping every change
    #    that preserves the failure.
    for i in range(len(cur)):
        f = dict(cur[i])
        for key, tight in (("after", 0), ("max_fires", 1), ("every", 1),
                           ("probability", 1.0)):
            if f.get(key) == tight or key not in f:
                continue
            cand_f = {**f, key: tight}
            cand = cur[:i] + (cand_f,) + cur[i + 1:]
            if failing(cand):
                cur = cand
                f = cand_f
        params = dict(f.get("params") or {})
        if params.get("count", 1) not in (1, None) and "count" in params:
            cand_f = {**f, "params": {**params, "count": 1}}
            cand = cur[:i] + (cand_f,) + cur[i + 1:]
            if failing(cand):
                cur = cand
                f = cand_f

    # 3. Re-validate: the minimal schedule must fail byte-identically
    #    ``revalidations`` times over.
    fingerprints: list[str] = []
    final: dict[str, Any] = {}
    still_failing = True
    for _ in range(max(2, revalidations)):
        runs += 1
        final = runner(cur)
        fingerprints.append(result_fingerprint(final))
        still_failing = still_failing and _fails(final)
    identical = len(set(fingerprints)) == 1 and still_failing

    return {
        "faults": [dict(sorted(f.items())) for f in cur],
        "fingerprint": fingerprints[0],
        "replayed_identical": identical,
        "reasons": failed_checks(final),
        "violations": list(final.get("violations", ()))[:8],
        "shrink_runs": runs,
    }
