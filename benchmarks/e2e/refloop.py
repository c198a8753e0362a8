"""A fixed reference loop: how fast the machine runs Python right now.

The benchmark runs on shared hosts whose speed changes by tens of percent
within minutes as other tenants' load comes and goes.  Mostly a rep is
slowed while it runs, so its CPU time grows with its wall time; ``rep.py``
therefore times this loop between slices of its run phase and scales each
slice's time to the speed the loop measured around it.  The loop does not
touch the simulator: a change to the simulator moves the scaled times
exactly as it moves the raw ones.

Loop and slices are timed in CPU time of the calling thread.  Time in which
the thread does not run at all (another process holds the CPU, or the
hypervisor runs another guest and reports it as steal time) then counts in
neither.  A wall-clock loop of a few milliseconds that such a pause hits
reads several times too slow and shrinks the slices next to it by as much.

It mixes what the simulator's hot paths do (dict updates, attribute reads,
method calls, a heap, small-integer arithmetic) and runs with the cyclic
garbage collector off, so its time does not depend on how many objects the
simulation holds.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The loop's CPU time on the reference machine: scaled host times read as
#: they would on a machine on which one ``reference_loop`` takes this long
#: (about a quiet 2-vCPU Xeon container, see README.md).
REFERENCE_S = 0.005

#: Iterations of one loop.
ITERATIONS = 3000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value ^ self.key


def _work(n: int) -> int:
    table: dict[int, int] = {}
    cells = [_Cell(k, k * 3) for k in range(64)]
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= cells[i & 63].bump(key)
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
        acc += len(str(i)) + sum(x & 7 for x in (i, key, acc & 255))
    return acc


def reference_loop(n: int = ITERATIONS) -> float:
    """Run the loop once; returns its thread CPU time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _work(n)
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()
