"""In-memory trace container.

A :class:`Trace` is an immutable-by-convention sequence of committed
:class:`~repro.trace.records.TraceRecord` values plus identifying metadata.
The simulator consumes traces by index (it needs random access to look ahead
for fetch-block construction), so the records live in a list.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.cfg.model import Program
from repro.cfg.walker import TraceWalker
from repro.errors import TraceError
from repro.trace.records import TraceRecord

__all__ = ["Trace"]


class Trace:
    """A named, seeded committed-instruction trace."""

    def __init__(self, records: Sequence[TraceRecord], name: str = "trace",
                 seed: int = 0):
        if not records:
            raise TraceError("a trace must contain at least one record")
        self.name = name
        self.seed = seed
        #: The record list (treat as read-only).
        self.records: list[TraceRecord] = list(records)

    @classmethod
    def from_program(cls, program: Program, length: int, seed: int = 0,
                     name: str | None = None) -> "Trace":
        """Walk ``program`` for ``length`` committed instructions."""
        walker = TraceWalker(program, seed=seed)
        records = walker.walk(length)
        return cls(records, name=name or program.name, seed=seed)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering records [start, stop)."""
        if not 0 <= start < stop <= len(self.records):
            raise TraceError(
                f"invalid slice [{start}, {stop}) of a trace with "
                f"{len(self.records)} records")
        return Trace(self.records[start:stop],
                     name=f"{self.name}[{start}:{stop}]", seed=self.seed)

    def __repr__(self) -> str:
        return (f"Trace({self.name!r}, records={len(self.records)}, "
                f"seed={self.seed})")
