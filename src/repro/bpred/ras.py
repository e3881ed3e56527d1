"""Return address stack with circular overwrite and snapshot repair.

The RAS is finite: pushing beyond the depth silently overwrites the oldest
entry (the corruption real hardware exhibits on deep recursion).  The
decoupled front end runs the RAS *speculatively*; before following a
mispredicted block down the wrong path it snapshots the RAS and restores it
at squash time.
"""

from __future__ import annotations

from repro.component import StatsComponent
from repro.stats import StatGroup

__all__ = ["ReturnAddressStack", "RasSnapshot"]


class RasSnapshot:
    """An immutable copy of RAS state (opaque to callers)."""

    __slots__ = ("entries", "top", "count")

    def __init__(self, entries: tuple[int, ...], top: int, count: int):
        self.entries = entries
        self.top = top
        self.count = count


class ReturnAddressStack(StatsComponent):
    """Circular return-address stack."""

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self.stats = StatGroup("ras")
        self._entries = [0] * depth
        self._top = 0      # index of the next free slot
        self._count = 0    # number of live entries (<= depth)

    def push(self, return_pc: int) -> None:
        """Push a return address, overwriting the oldest on overflow."""
        self._entries[self._top] = return_pc
        self._top = (self._top + 1) % self.depth
        if self._count < self.depth:
            self._count += 1
        else:
            self.stats.bump("overflows")
        self.stats.bump("pushes")

    def pop(self) -> int | None:
        """Pop the most recent return address; None when empty."""
        self.stats.bump("pops")
        if self._count == 0:
            self.stats.bump("underflows")
            return None
        self._top = (self._top - 1) % self.depth
        self._count -= 1
        return self._entries[self._top]

    def peek(self) -> int | None:
        """The address a pop would return, without popping."""
        if self._count == 0:
            return None
        return self._entries[(self._top - 1) % self.depth]

    def __len__(self) -> int:
        return self._count

    def snapshot(self) -> RasSnapshot:
        """Capture the complete state for later :meth:`restore`."""
        return RasSnapshot(tuple(self._entries), self._top, self._count)

    def restore(self, snap: RasSnapshot) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self._entries = list(snap.entries)
        self._top = snap.top
        self._count = snap.count
        self.stats.bump("restores")
