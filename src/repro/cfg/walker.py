"""Dynamic execution of a synthetic program: the trace walker.

The walker interprets a :class:`~repro.cfg.model.Program` and emits the
committed instruction stream as :class:`~repro.trace.records.TraceRecord`
values.  Execution starts at the program entry; when ``main`` returns the
walker restarts it, so a walk can produce arbitrarily long traces.

Branch outcomes:

- loop back edges follow their deterministic trip pattern
  (taken ``trips - 1`` times, then not taken once),
- other conditional branches are Bernoulli draws with the block's
  ``taken_bias``,
- indirect jumps/calls sample their target set by weight,
- returns pop the walker's call stack.

Everything is seeded, so the same (program, seed) pair always yields the
identical trace.

The walker pays per visited block.  A block is compiled the first time
a walk of the program enters it; the records of its non-terminator
instructions do not depend on the path taken, so they are built once,
as one tuple that every visit shares.  So are the terminator's possible
records: a conditional branch's taken and not-taken record, a direct
jump's or call's one record, and one record per target of an indirect
jump or call.  A visit resolves its terminator inline and appends the
shared record; only a return, whose target comes from the call stack,
builds its record per visit.  A compiled block depends only on the
program, so it is kept on the program (:attr:`Program.compiled_blocks`)
and every walker of that program shares it; a walker keeps only its own
position, call stack, loop trip counts and random stream.  Records are
immutable, so the sharing is invisible to their readers.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.cfg.model import Program
from repro.errors import SimulationError
from repro.isa import (
    BRANCH_COND,
    CALL,
    CALL_INDIRECT,
    INSTRUCTION_BYTES,
    JUMP_DIRECT,
    JUMP_INDIRECT,
    RETURN,
    InstrKind,
)
from repro.trace.records import TraceRecord

__all__ = ["TraceWalker", "MAX_CALL_DEPTH"]

MAX_CALL_DEPTH = 128
"""Hard cap on dynamic call depth; exceeding it indicates a generator bug."""


@dataclass(slots=True)
class _CompiledBlock:
    """A basic block pre-flattened for the walker's hot loop.

    ``body`` holds the shared records of every instruction before the
    terminator; ``kind`` is the terminator's kind, None when the block
    falls through to ``fallthrough``.  The terminator's possible records
    are built here once: a conditional branch's ``taken`` and
    ``not_taken``, a direct jump's or call's ``taken``, an indirect jump's
    or call's ``targets`` (one per target, drawn by ``cumweights``).  A
    return's target comes from the call stack, so its record is built
    per visit from ``term_pc``.
    """

    body: tuple[TraceRecord, ...]
    kind: InstrKind | None
    term_pc: int
    fallthrough: int | None
    taken: TraceRecord | None
    not_taken: TraceRecord | None
    taken_bias: float
    loop_trips: int | None
    targets: tuple[TraceRecord, ...]
    cumweights: tuple[float, ...]


class TraceWalker:
    """Seeded interpreter producing the committed instruction stream."""

    def __init__(self, program: Program, seed: int = 0):
        self.program = program
        self.seed = seed
        self._rng = random.Random(seed)
        self._blocks: dict[int, _CompiledBlock] = program.compiled_blocks
        self._pc = program.entry
        self._stack: list[int] = []
        self._loop_counts: dict[int, int] = {}
        # Records of the last walked block that the caller has not
        # received yet; they open the next call's output.
        self._carry: list[TraceRecord] = []

    def _compile(self, pc: int) -> _CompiledBlock:
        """Compile the block starting at ``pc`` into the program's table."""
        block = self.program.block_at(pc)
        if block is None or block.start != pc:
            raise SimulationError(
                f"walker jumped to {pc:#x}, which is not a block start")
        term = block.terminator
        body = block.instrs[:-1] if term is not None else block.instrs
        for instr in body:
            if instr.kind >= BRANCH_COND:
                raise SimulationError(
                    f"control instruction mid-block at {instr.pc:#x}")
        if term is None and block.fallthrough is None:
            raise SimulationError(f"block at {pc:#x} fell off the end")
        term_pc = block.instrs[-1].pc
        kind = term.kind if term is not None else None
        taken = not_taken = None
        targets: tuple[TraceRecord, ...] = ()
        cumweights: tuple[float, ...] = ()
        if kind == BRANCH_COND:
            taken = TraceRecord(term_pc, kind, True, term.target)
            not_taken = TraceRecord(term_pc, kind, False,
                                    term_pc + INSTRUCTION_BYTES)
        elif kind == JUMP_DIRECT or kind == CALL:
            taken = TraceRecord(term_pc, kind, True, term.target)
        elif kind == JUMP_INDIRECT or kind == CALL_INDIRECT:
            targets = tuple(TraceRecord(term_pc, kind, True, target)
                            for target in block.indirect_targets)
            cumweights = tuple(
                itertools.accumulate(block.indirect_weights))
        compiled = _CompiledBlock(
            body=tuple(TraceRecord(i.pc, i.kind, False,
                                   i.pc + INSTRUCTION_BYTES)
                       for i in body),
            kind=kind,
            term_pc=term_pc,
            fallthrough=block.fallthrough,
            taken=taken,
            not_taken=not_taken,
            taken_bias=block.taken_bias,
            loop_trips=block.loop_trips,
            targets=targets,
            cumweights=cumweights,
        )
        self._blocks[pc] = compiled
        return compiled

    def records(self) -> Iterator[TraceRecord]:
        """Yield committed trace records forever (restarting main).

        The generator shares the walker's position with :meth:`walk`: a
        record taken from it is never emitted again.
        """
        while True:
            yield from self.walk(1)

    def walk(self, n: int) -> list[TraceRecord]:
        """Return the next ``n`` committed records.

        The walk appends whole blocks; records of the last block beyond
        ``n`` carry over to the next call, so consecutive calls continue
        one stream.
        """
        if n < 0:
            raise ValueError(f"cannot walk {n} records")
        out = self._carry[:n]
        del self._carry[:n]
        blocks = self._blocks
        draw = self._rng.random
        loop_counts = self._loop_counts
        stack = self._stack
        pc = self._pc
        while len(out) < n:
            block = blocks.get(pc) or self._compile(pc)
            out += block.body
            kind = block.kind
            if kind == BRANCH_COND:
                trips = block.loop_trips
                if trips is None:
                    record = (block.taken if draw() < block.taken_bias
                              else block.not_taken)
                else:
                    # Loop back edge: taken trips - 1 times, then not
                    # taken once.
                    count = loop_counts.get(pc, 0) + 1
                    if count < trips:
                        loop_counts[pc] = count
                        record = block.taken
                    else:
                        loop_counts[pc] = 0
                        record = block.not_taken
            elif kind is None:
                pc = block.fallthrough
                continue
            elif kind == JUMP_DIRECT:
                record = block.taken
            elif kind == RETURN:
                # An empty stack means main returned: restart it.
                record = TraceRecord(block.term_pc, kind, True,
                                     stack.pop() if stack
                                     else self.program.entry)
            else:
                if kind == CALL or kind == CALL_INDIRECT:
                    if len(stack) >= MAX_CALL_DEPTH:
                        raise SimulationError(
                            f"call depth exceeded {MAX_CALL_DEPTH}; the "
                            f"generator produced an unbounded call chain")
                    stack.append(block.term_pc + INSTRUCTION_BYTES)
                if kind == CALL:
                    record = block.taken
                elif kind == CALL_INDIRECT or kind == JUMP_INDIRECT:
                    cumweights = block.cumweights
                    index = bisect.bisect_left(cumweights,
                                               draw() * cumweights[-1])
                    targets = block.targets
                    record = targets[min(index, len(targets) - 1)]
                else:
                    raise SimulationError(
                        f"unhandled control kind {kind!r} at "
                        f"{block.term_pc:#x}")
            out.append(record)
            pc = record.next_pc
        self._pc = pc
        if len(out) > n:
            self._carry = out[n:]
            del out[n:]
        return out
