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
the walk enters it; the records of its non-terminator instructions do
not depend on the path taken, so they are built once, as one tuple that
every visit shares, and only the terminator's record is built per visit.
Records are immutable, so the sharing is invisible to their readers.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.cfg.model import Program
from repro.errors import SimulationError
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.trace.records import TraceRecord

__all__ = ["TraceWalker", "MAX_CALL_DEPTH"]

MAX_CALL_DEPTH = 128
"""Hard cap on dynamic call depth; exceeding it indicates a generator bug."""


@dataclass(slots=True)
class _CompiledBlock:
    """A basic block pre-flattened for the walker's hot loop.

    ``body`` holds the shared records of every instruction before the
    terminator; ``term_kind`` is None when the block falls through.
    """

    body: tuple[TraceRecord, ...]
    term_pc: int
    term_kind: InstrKind | None
    term_target: int | None
    fallthrough: int | None
    taken_bias: float
    loop_trips: int | None
    indirect_targets: tuple[int, ...]
    indirect_cumweights: tuple[float, ...]


class TraceWalker:
    """Seeded interpreter producing the committed instruction stream."""

    def __init__(self, program: Program, seed: int = 0):
        self.program = program
        self.seed = seed
        self._rng = random.Random(seed)
        self._blocks: dict[int, _CompiledBlock] = {}
        self._pc = program.entry
        self._stack: list[int] = []
        self._loop_counts: dict[int, int] = {}
        # Records of the last walked block that the caller has not
        # received yet; they open the next call's output.
        self._carry: list[TraceRecord] = []

    def _compile(self, pc: int) -> _CompiledBlock:
        """Compile (and remember) the block starting at ``pc``."""
        block = self.program.block_at(pc)
        if block is None or block.start != pc:
            raise SimulationError(
                f"walker jumped to {pc:#x}, which is not a block start")
        term = block.terminator
        body = block.instrs[:-1] if term is not None else block.instrs
        for instr in body:
            if instr.kind.is_control:
                raise SimulationError(
                    f"control instruction mid-block at {instr.pc:#x}")
        if term is None and block.fallthrough is None:
            raise SimulationError(f"block at {pc:#x} fell off the end")
        cumweights: tuple[float, ...] = ()
        if block.indirect_targets:
            cumweights = tuple(
                itertools.accumulate(block.indirect_weights))
        compiled = _CompiledBlock(
            body=tuple(TraceRecord(i.pc, i.kind, False,
                                   i.pc + INSTRUCTION_BYTES)
                       for i in body),
            term_pc=block.instrs[-1].pc,
            term_kind=term.kind if term is not None else None,
            term_target=term.target if term is not None else None,
            fallthrough=block.fallthrough,
            taken_bias=block.taken_bias,
            loop_trips=block.loop_trips,
            indirect_targets=block.indirect_targets,
            indirect_cumweights=cumweights,
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
        while len(out) < n:
            pc = self._pc
            block = blocks.get(pc) or self._compile(pc)
            out += block.body
            kind = block.term_kind
            if kind is None:
                self._pc = block.fallthrough
                continue
            next_pc, taken = self._resolve(block, kind)
            out.append(TraceRecord(block.term_pc, kind, taken, next_pc))
            self._pc = next_pc
        if len(out) > n:
            self._carry = out[n:]
            del out[n:]
        return out

    def _resolve(self, block: _CompiledBlock,
                 kind: InstrKind) -> tuple[int, bool]:
        """Compute (next_pc, taken) for ``block``'s terminator."""
        pc = block.term_pc
        sequential = pc + INSTRUCTION_BYTES
        if kind == InstrKind.BRANCH_COND:
            if self._cond_outcome(block, pc):
                return block.term_target, True
            return sequential, False
        if kind == InstrKind.JUMP_DIRECT:
            return block.term_target, True
        if kind == InstrKind.CALL:
            self._push(sequential)
            return block.term_target, True
        if kind == InstrKind.CALL_INDIRECT:
            self._push(sequential)
            return self._pick_indirect(block), True
        if kind == InstrKind.JUMP_INDIRECT:
            return self._pick_indirect(block), True
        if kind == InstrKind.RETURN:
            if self._stack:
                return self._stack.pop(), True
            return self.program.entry, True  # main returned: restart
        raise SimulationError(f"unhandled control kind {kind!r} at {pc:#x}")

    def _cond_outcome(self, block: _CompiledBlock, pc: int) -> bool:
        trips = block.loop_trips
        if trips is not None:
            count = self._loop_counts.get(pc, 0) + 1
            if count < trips:
                self._loop_counts[pc] = count
                return True
            self._loop_counts[pc] = 0
            return False
        return self._rng.random() < block.taken_bias

    def _pick_indirect(self, block: _CompiledBlock) -> int:
        index = bisect.bisect_left(block.indirect_cumweights,
                                   self._rng.random() *
                                   block.indirect_cumweights[-1])
        index = min(index, len(block.indirect_targets) - 1)
        return block.indirect_targets[index]

    def _push(self, return_pc: int) -> None:
        if len(self._stack) >= MAX_CALL_DEPTH:
            raise SimulationError(
                f"call depth exceeded {MAX_CALL_DEPTH}; the generator "
                f"produced an unbounded call chain")
        self._stack.append(return_pc)
