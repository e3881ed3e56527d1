"""The frozen reference kernel that measures how fast the host is right now.

Every host-time number the benchmark prints is rescaled by this kernel:
a unit of work that took ``t`` seconds while one kernel iteration took
``k`` seconds is reported as ``t * NOMINAL_ITERATION_S / k`` -- the time
it would have taken on a host where an iteration takes exactly
:data:`NOMINAL_ITERATION_S`.

The kernel is a miniature cycle loop shaped like the simulator's hot
path: a set-associative LRU tag store kept in insertion-ordered dicts, a
table of two-bit counters indexed by a folded history, a FIFO of slotted
block objects, a fill-event heap and a name-keyed counter dict.  That
mix of dict, list, attribute and call traffic makes its speed respond to
a shared host's speed swings the way the simulator's does, which a tight
arithmetic loop does not.

Frozen means: it imports nothing from ``repro``, every iteration does
identical work (``run_iteration`` always returns :data:`CHECKSUM`), and
nothing it allocates outlives the iteration that allocated it.  The
garbage collector is paused while it runs, so GC thresholds or frozen
generations set elsewhere in the process cannot move it.  Editing this
file changes every normalized number; a change to it is a change to the
benchmark, never to the program it measures.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush

__all__ = ["run", "run_iteration", "CHECKSUM", "NOMINAL_ITERATION_S",
           "STEPS"]

#: Cycles simulated by one iteration.
STEPS = 512
#: Value every iteration returns; a different value means the work changed.
CHECKSUM = 11319
#: Host time of one iteration on the nominal host, in seconds.
NOMINAL_ITERATION_S = 0.002

_SEED = 12345
_SETS = 64
_WAYS = 4
_TABLE = 1024
_QUEUE = 24


class _Block:
    __slots__ = ("start", "end", "taken")

    def __init__(self, start: int, end: int, taken: bool) -> None:
        self.start = start
        self.end = end
        self.taken = taken


class _Counters:
    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def bump(self, name: str, amount: int = 1) -> None:
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount


def run_iteration() -> int:
    """One kernel iteration; always returns :data:`CHECKSUM`."""
    sets = [{} for _ in range(_SETS)]
    table = [2] * _TABLE
    queue: deque = deque()
    events: list = []
    stats = _Counters()
    x = _SEED
    history = 0
    checksum = 0
    for cycle in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        pc = (x >> 4) & 0x3FFF
        tags = sets[pc & (_SETS - 1)]
        tag = pc >> 6
        if tag in tags:
            del tags[tag]
            tags[tag] = cycle
            stats.bump("hits")
        else:
            if len(tags) >= _WAYS:
                del tags[next(iter(tags))]
            tags[tag] = cycle
            stats.bump("misses")
            heappush(events, (cycle + 20 + (x & 7), pc))
        index = (pc ^ history) & (_TABLE - 1)
        counter = table[index]
        taken = (x >> 9) & 1 == 1
        if taken:
            table[index] = counter + 1 if counter < 3 else 3
        else:
            table[index] = counter - 1 if counter > 0 else 0
        history = ((history << 1) | taken) & (_TABLE - 1)
        if (counter >= 2) != taken:
            stats.bump("mispredicts")
        queue.append(_Block(pc, pc + 16, taken))
        if len(queue) > _QUEUE:
            block = queue.popleft()
            checksum += block.end - block.start + block.taken
        while events and events[0][0] <= cycle:
            heappop(events)
            stats.bump("fills")
    return checksum + sum(stats.counts.values()) + sum(table)


def run(iterations: int = 1) -> int:
    """Run ``iterations`` iterations with the garbage collector paused.

    Returns the sum of the iteration checksums (``iterations *
    CHECKSUM``), so a caller can check that the work was done.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for _ in range(iterations):
            total += run_iteration()
        return total
    finally:
        if enabled:
            gc.enable()
