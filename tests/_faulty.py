"""Picklable fault-injection workers for the resilience tests.

Each worker records its invocation in a per-task counter file (attempts
for one task are strictly sequential, so plain read/write is safe) and
then misbehaves in a controlled way.  They live in an importable module
— not the test file's locals — so a forked pool worker can unpickle
them.
"""

from __future__ import annotations

import os
import time
from pathlib import Path


def bump(counter: str) -> int:
    """Increment the invocation count stored at ``counter``; return it."""
    path = Path(counter)
    count = int(path.read_text()) if path.exists() else 0
    count += 1
    path.write_text(str(count))
    return count


def read_count(counter: str) -> int:
    path = Path(counter)
    return int(path.read_text()) if path.exists() else 0


def ok(counter: str, value: object) -> object:
    bump(counter)
    return value


def flaky(counter: str, fail_times: int, value: object) -> object:
    """Raise on the first ``fail_times`` invocations, then succeed."""
    count = bump(counter)
    if count <= fail_times:
        raise RuntimeError(f"flaky failure #{count}")
    return value


def crash(counter: str) -> None:
    """Die like a segfault: the process exits without raising."""
    bump(counter)
    os._exit(3)


def crash_then_ok(counter: str, fail_times: int, value: object) -> object:
    count = bump(counter)
    if count <= fail_times:
        os._exit(3)
    return value


def crash_once_after(counter: str, delay_s: float, value: object) -> object:
    """Die on the first invocation that lives ``delay_s`` seconds.

    The count is bumped only after the delay, so an attempt killed
    while waiting (another task took the pool down) leaves no mark.
    """
    time.sleep(delay_s)
    return crash_then_ok(counter, 1, value)


def hang(counter: str, sleep_s: float = 60.0) -> None:
    bump(counter)
    time.sleep(sleep_s)


def hang_then_ok(counter: str, fail_times: int, value: object,
                 sleep_s: float = 60.0) -> object:
    count = bump(counter)
    if count <= fail_times:
        time.sleep(sleep_s)
    return value


def slow_progress(counter: str, progress_file: str, steps: int,
                  step_s: float, value: object) -> object:
    """Run past any reasonable timeout, but honestly report progress.

    Bumps ``progress_file`` after every step so a supervisor probing it
    sees the token advance — the signature of a slow worker, not a
    stuck one.
    """
    bump(counter)
    for step in range(steps):
        time.sleep(step_s)
        Path(progress_file).write_text(str(step + 1))
    return value
