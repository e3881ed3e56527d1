"""Static program model: basic blocks, functions, and whole programs.

The workload generator (:mod:`repro.cfg.generator`) emits instances of these
classes; the trace walker (:mod:`repro.cfg.walker`) executes them to produce
dynamic instruction traces; and the front end consults the static image
(:meth:`Program.instr_at`) when it speculates down a wrong path.

Control-flow invariants enforced here (and relied on by the walker to
guarantee forward progress):

- every block's fallthrough is the next block in layout order (or the block
  ends in an unconditional transfer),
- conditional branches either jump *forward* within the function or are
  *loop back edges* with a finite trip count,
- the final block of every function returns,
- direct calls only target function entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.isa import (
    BRANCH_COND,
    CALL,
    CALL_INDIRECT,
    INSTRUCTION_BYTES,
    JUMP_INDIRECT,
    RETURN,
    StaticInstr,
)

__all__ = ["TEXT_BASE", "BasicBlock", "Function", "Program"]

TEXT_BASE = 0x0040_0000
"""Base address of the program text segment (SimpleScalar convention)."""


@dataclass
class BasicBlock:
    """A straight-line run of instructions with one optional terminator.

    ``instrs`` includes the terminator (last element) when the block ends in
    a control instruction; a block whose last instruction is not control
    simply falls through to ``fallthrough``.

    Dynamic-behaviour annotations drive the trace walker:

    - ``taken_bias``: probability a conditional branch is taken on a random
      (non-loop) execution,
    - ``loop_trips``: when set, the conditional terminator is a loop back
      edge taken ``loop_trips - 1`` consecutive times then not taken
      (a deterministic, learnable pattern),
    - ``indirect_targets`` / ``indirect_weights``: the dynamic target set of
      an indirect jump or call.
    """

    start: int
    instrs: list[StaticInstr]
    fallthrough: int | None
    taken_bias: float = 0.5
    loop_trips: int | None = None
    indirect_targets: tuple[int, ...] = ()
    indirect_weights: tuple[float, ...] = ()

    @property
    def end(self) -> int:
        """Address one past the last instruction of the block."""
        return self.start + len(self.instrs) * INSTRUCTION_BYTES

    @property
    def n_instrs(self) -> int:
        return len(self.instrs)

    @property
    def terminator(self) -> StaticInstr | None:
        """The control instruction ending this block, if any."""
        if self.instrs and self.instrs[-1].kind >= BRANCH_COND:
            return self.instrs[-1]
        return None

    def validate(self) -> None:
        """Check internal consistency; raise GenerationError on violation.

        Every block of every generated program passes through here, so
        kinds compare with the :mod:`repro.isa` constants (``kind >=
        BRANCH_COND`` is ``is_control``), not through ``InstrKind``
        properties.
        """
        instrs = self.instrs
        if not instrs:
            raise GenerationError(f"empty basic block at {self.start:#x}")
        expected_pc = self.start
        for instr in instrs:
            if instr.pc != expected_pc:
                raise GenerationError(
                    f"non-contiguous pc {instr.pc:#x} in block at "
                    f"{self.start:#x} (expected {expected_pc:#x})")
            expected_pc += INSTRUCTION_BYTES
        for instr in instrs[:-1]:
            if instr.kind >= BRANCH_COND:
                raise GenerationError(
                    f"control instruction {instr!r} in the middle of the "
                    f"block at {self.start:#x}")
        term = instrs[-1]
        kind = term.kind
        if kind < BRANCH_COND:
            if self.fallthrough is None:
                raise GenerationError(
                    f"block at {self.start:#x} has no terminator and no "
                    f"fallthrough")
        else:
            if kind in (JUMP_INDIRECT, CALL_INDIRECT):
                if not self.indirect_targets:
                    raise GenerationError(
                        f"indirect terminator at {term.pc:#x} has no "
                        f"target set")
                if len(self.indirect_targets) != len(self.indirect_weights):
                    raise GenerationError(
                        f"indirect target/weight length mismatch at "
                        f"{term.pc:#x}")
            elif kind != RETURN and term.target is None:
                raise GenerationError(
                    f"direct control instruction at {term.pc:#x} has no "
                    f"static target")
        if not 0.0 <= self.taken_bias <= 1.0:
            raise GenerationError(
                f"taken_bias {self.taken_bias} out of range at "
                f"{self.start:#x}")
        if self.loop_trips is not None and self.loop_trips < 1:
            raise GenerationError(
                f"loop_trips must be >= 1 at {self.start:#x}")


@dataclass
class Function:
    """A contiguous sequence of basic blocks with a single entry."""

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)

    @property
    def entry(self) -> int:
        return self.blocks[0].start

    @property
    def start(self) -> int:
        return self.blocks[0].start

    @property
    def end(self) -> int:
        return self.blocks[-1].end

    @property
    def n_instrs(self) -> int:
        return sum(block.n_instrs for block in self.blocks)

    def validate(self) -> None:
        """Check layout contiguity and the return-at-end invariant."""
        if not self.blocks:
            raise GenerationError(f"function {self.name} has no blocks")
        expected = self.blocks[0].start
        for block in self.blocks:
            if block.start != expected:
                raise GenerationError(
                    f"function {self.name}: block at {block.start:#x} not "
                    f"contiguous (expected {expected:#x})")
            block.validate()
            expected = block.end
        if self.blocks[-1].instrs[-1].kind != RETURN:
            raise GenerationError(
                f"function {self.name} does not end in a return")


class Program:
    """A complete synthetic program: functions laid out contiguously.

    Provides O(1) lookup of the instruction and block at any text address,
    which the wrong-path front end uses to speculate through code the trace
    has not (yet) touched.
    """

    def __init__(self, functions: list[Function], name: str = "synthetic"):
        if not functions:
            raise GenerationError("a program needs at least one function")
        self.name = name
        self.functions = functions
        self._instr_index: dict[int, StaticInstr] = {}
        self._block_index: dict[int, BasicBlock] = {}
        self._entry_index: dict[int, Function] = {}
        #: Block start -> the block as compiled by
        #: :class:`~repro.cfg.walker.TraceWalker`.  A compiled block
        #: depends only on the program, so every walker of this program
        #: fills and reads this one table.
        self.compiled_blocks: dict[int, object] = {}
        self._build_indexes()
        self.validate()

    def _build_indexes(self) -> None:
        instr_index = self._instr_index
        block_index = self._block_index
        for function in self.functions:
            self._entry_index[function.entry] = function
            for block in function.blocks:
                for instr in block.instrs:
                    instr_index[instr.pc] = instr
                    block_index[instr.pc] = block

    @property
    def entry(self) -> int:
        """Program entry point (the first function's first instruction)."""
        return self.functions[0].entry

    @property
    def start(self) -> int:
        return self.functions[0].start

    @property
    def end(self) -> int:
        return self.functions[-1].end

    @property
    def n_instrs(self) -> int:
        return len(self._instr_index)

    @property
    def footprint_bytes(self) -> int:
        """Static code footprint in bytes."""
        return self.n_instrs * INSTRUCTION_BYTES

    def instr_at(self, pc: int) -> StaticInstr | None:
        """The instruction at ``pc``, or None outside the text segment."""
        return self._instr_index.get(pc)

    def block_at(self, pc: int) -> BasicBlock | None:
        """The basic block containing ``pc``, or None."""
        return self._block_index.get(pc)

    def function_entered_at(self, pc: int) -> Function | None:
        """The function whose entry point is exactly ``pc``, or None."""
        return self._entry_index.get(pc)

    def validate(self) -> None:
        """Validate every function plus cross-function invariants."""
        expected = self.functions[0].start
        for function in self.functions:
            if function.start != expected:
                raise GenerationError(
                    f"function {function.name} at {function.start:#x} not "
                    f"contiguous (expected {expected:#x})")
            function.validate()
            expected = function.end
        for function in self.functions:
            for block in function.blocks:
                term = block.instrs[-1]
                kind = term.kind
                if kind < BRANCH_COND:
                    continue
                if kind in (CALL, CALL_INDIRECT) and term.target is not None:
                    if term.target not in self._entry_index:
                        raise GenerationError(
                            f"call at {term.pc:#x} targets {term.target:#x} "
                            f"which is not a function entry")
                for target in block.indirect_targets:
                    if target not in self._instr_index:
                        raise GenerationError(
                            f"indirect target {target:#x} of {term.pc:#x} "
                            f"is outside the program")

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, functions={len(self.functions)}, "
                f"instrs={self.n_instrs}, "
                f"footprint={self.footprint_bytes // 1024}KB)")
