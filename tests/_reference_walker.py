"""Per-instruction reference walker for the walker equivalence tests.

This is the trace walker as it was before it learned to emit whole
blocks: it compiles every block of the program up front and builds each
record one instruction at a time.  :class:`repro.cfg.TraceWalker` must
produce exactly the same stream for every (program, seed) pair, because
the trace cache keys only on how a trace was requested, not on the
walker that built it.

Only :meth:`ReferenceWalker.walk` is meant to be called, once per
instance: like the original, a second call would restart the block the
first one stopped in.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.cfg.model import BasicBlock, Program
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.trace.records import TraceRecord


@dataclass
class _CompiledBlock:
    pcs: tuple[int, ...]
    kinds: tuple[InstrKind, ...]
    term_target: int | None
    fallthrough: int | None
    taken_bias: float
    loop_trips: int | None
    indirect_targets: tuple[int, ...]
    indirect_cumweights: tuple[float, ...]


class ReferenceWalker:
    """Seeded per-instruction interpreter of a :class:`Program`."""

    def __init__(self, program: Program, seed: int = 0):
        self.program = program
        self._rng = random.Random(seed)
        self._blocks = {
            block.start: self._compile(block)
            for function in program.functions
            for block in function.blocks
        }
        self._pc = program.entry
        self._stack: list[int] = []
        self._loop_counts: dict[int, int] = {}

    @staticmethod
    def _compile(block: BasicBlock) -> _CompiledBlock:
        term = block.terminator
        cumweights: tuple[float, ...] = ()
        if block.indirect_targets:
            cumweights = tuple(
                itertools.accumulate(block.indirect_weights))
        return _CompiledBlock(
            pcs=tuple(i.pc for i in block.instrs),
            kinds=tuple(i.kind for i in block.instrs),
            term_target=term.target if term is not None else None,
            fallthrough=block.fallthrough,
            taken_bias=block.taken_bias,
            loop_trips=block.loop_trips,
            indirect_targets=block.indirect_targets,
            indirect_cumweights=cumweights,
        )

    def records(self) -> Iterator[TraceRecord]:
        rng = self._rng
        while True:
            block = self._blocks[self._pc]
            for pc, kind in zip(block.pcs, block.kinds):
                if not kind.is_control:
                    yield TraceRecord(pc, kind, False,
                                      pc + INSTRUCTION_BYTES)
                    continue
                next_pc, taken = self._resolve(block, pc, kind, rng)
                yield TraceRecord(pc, kind, taken, next_pc)
                self._pc = next_pc
                break
            else:
                self._pc = block.fallthrough

    def walk(self, n: int) -> list[TraceRecord]:
        return list(itertools.islice(self.records(), n))

    def _resolve(self, block: _CompiledBlock, pc: int, kind: InstrKind,
                 rng: random.Random) -> tuple[int, bool]:
        sequential = pc + INSTRUCTION_BYTES
        if kind == InstrKind.BRANCH_COND:
            trips = block.loop_trips
            if trips is not None:
                count = self._loop_counts.get(pc, 0) + 1
                if count < trips:
                    self._loop_counts[pc] = count
                    return block.term_target, True
                self._loop_counts[pc] = 0
                return sequential, False
            if rng.random() < block.taken_bias:
                return block.term_target, True
            return sequential, False
        if kind == InstrKind.JUMP_DIRECT:
            return block.term_target, True
        if kind == InstrKind.CALL:
            self._stack.append(sequential)
            return block.term_target, True
        if kind == InstrKind.CALL_INDIRECT:
            self._stack.append(sequential)
            return self._pick_indirect(block, rng), True
        if kind == InstrKind.JUMP_INDIRECT:
            return self._pick_indirect(block, rng), True
        if self._stack:                                # RETURN
            return self._stack.pop(), True
        return self.program.entry, True

    @staticmethod
    def _pick_indirect(block: _CompiledBlock, rng: random.Random) -> int:
        index = bisect.bisect_left(block.indirect_cumweights,
                                   rng.random() *
                                   block.indirect_cumweights[-1])
        index = min(index, len(block.indirect_targets) - 1)
        return block.indirect_targets[index]
