"""Host-speed normalization: reference-kernel samples over wall time.

On a shared 2-vCPU VM the CPU speed swings by up to 2x on a time scale
of tens to hundreds of milliseconds (a busy sibling hyperthread, not
descheduling: thread CPU time and wall time agree), so a kernel run only
before and after a 0.5 s unit says little about the speed during it.
The :class:`HostClock` therefore samples the reference kernel

- right before and right after every timed unit (a *bracket*;
  consecutive units share one), and
- every :data:`SAMPLE_PERIOD_S` of wall time in between, from a
  ``SIGALRM`` handler that runs one kernel iteration in the main
  thread.

A sample's *speed* is ``NOMINAL_ITERATION_S / iteration_time``.  An
interval's *work* time is its wall time minus the kernel time that ran
inside it; its *normalized* time integrates work × speed, taking the
speed of each stretch between two samples as the mean of those two.
Intervals are normalized after the fact, once the sample that follows
them exists.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from typing import Callable

from perfbench import kernel

__all__ = ["HostClock", "SAMPLE_PERIOD_S"]

#: Wall time between in-unit kernel samples.
SAMPLE_PERIOD_S = 0.02

now = time.perf_counter


def _mean(a: float | None, b: float | None) -> float:
    if a is None and b is None:
        raise RuntimeError("no reference-kernel sample near the interval; "
                           "take a bracket after it")
    if a is None or b is None:
        return a if b is None else b
    return (a + b) / 2


class HostClock:
    """A timeline of reference-kernel speed samples.

    Samples never overlap: the alarm handler skips a tick that lands
    inside a bracket.  ``on_sample`` (set by the tracer) is called
    with the duration of every sample, so time the kernel steals from a
    traced call can be taken out of that call's self time.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._speeds: list[float] = []
        self._busy = False
        self._holding = False
        self._owed = False
        self._previous_handler = None
        self.on_sample: Callable[[float], None] | None = None

    # -- sampling -------------------------------------------------------

    def _sample(self) -> None:
        """Time one kernel iteration and record it."""
        if self._busy:
            return
        self._busy = True
        try:
            start = now()
            done = kernel.run(1)
            end = now()
            if done != kernel.CHECKSUM:
                raise RuntimeError(
                    "reference kernel returned a wrong checksum")
            self._starts.append(start)
            self._ends.append(end)
            self._speeds.append(kernel.NOMINAL_ITERATION_S / (end - start))
            if self.on_sample is not None:
                self.on_sample(end - start)
        finally:
            self._busy = False

    def bracket(self) -> None:
        """Sample now, between two timed units.

        One iteration, like an alarm sample: multi-iteration brackets
        read faster (their later iterations find warm caches), and a
        varying mix of the two kinds moved the normalized numbers.
        """
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        if self._holding:
            self._owed = True
        else:
            self._sample()

    def hold(self) -> None:
        """Defer alarm samples until :meth:`release` (around short timed
        requests: a sample inside one would evict its working set from
        the CPU caches and inflate it far more than its own duration)."""
        self._holding = True

    def release(self) -> None:
        """End a :meth:`hold`; take the deferred sample, if one is owed."""
        self._holding = False
        if self._owed:
            self._owed = False
            self._sample()

    def start(self) -> None:
        """Start in-unit sampling (main thread only)."""
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)

    def stop(self) -> None:
        """Stop in-unit sampling and restore the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    # -- normalization --------------------------------------------------

    def work(self, start: float, end: float) -> float:
        """Wall time of ``[start, end)`` minus kernel time inside it."""
        lo = bisect_left(self._starts, start)
        hi = bisect_left(self._starts, end)
        stolen = sum(min(self._ends[i], end) - self._starts[i]
                     for i in range(lo, hi))
        return (end - start) - stolen

    def normalized(self, start: float, end: float) -> float:
        """Work time of ``[start, end)`` rescaled to the nominal host.

        The samples inside the interval cut it into pieces; each piece
        of work is scaled by the mean speed of the samples on its two
        sides, so the result is a time-weighted integral however the
        samples are spaced.
        """
        lo = bisect_left(self._starts, start)
        hi = bisect_left(self._starts, end)
        before = self._speeds[lo - 1] if lo > 0 else None
        total = 0.0
        cursor = start
        for i in range(lo, hi):
            total += (self._starts[i] - cursor) * _mean(before,
                                                        self._speeds[i])
            cursor = min(self._ends[i], end)
            before = self._speeds[i]
        after = self._speeds[hi] if hi < len(self._speeds) else None
        return total + (end - cursor) * _mean(before, after)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end)`` relative to nominal."""
        work = self.work(start, end)
        return self.normalized(start, end) / work if work > 0 else 1.0

    @property
    def samples(self) -> int:
        return len(self._speeds)

    def median_iteration_s(self) -> float:
        """Median raw time of one kernel iteration over the run."""
        return statistics.median(e - s for s, e in zip(self._starts,
                                                         self._ends))
