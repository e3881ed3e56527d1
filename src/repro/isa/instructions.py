"""The synthetic ISA used by the workload generator and simulator.

Instructions are fixed-width (4 bytes) and word aligned, matching the
RISC-style machines of the paper's era (the authors' SimpleScalar baseline
models a MIPS-like PISA).  The simulator never interprets operand values;
only the *kind* of each instruction and its control-flow behaviour matter to
the front end, so that is all the ISA encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

__all__ = ["INSTRUCTION_BYTES", "InstrKind", "StaticInstr", "LOAD",
           "BRANCH_COND", "JUMP_DIRECT", "JUMP_INDIRECT", "CALL",
           "CALL_INDIRECT", "RETURN"]

INSTRUCTION_BYTES = 4
"""Size of every instruction in bytes (word aligned, RISC style)."""


class InstrKind(IntEnum):
    """Instruction classes distinguished by the front end and backend.

    ``IntEnum`` so trace files can store the kind as a single byte and the
    hot simulation loop can compare kinds as integers.
    """

    ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH_COND = 3      # conditional direct branch
    JUMP_DIRECT = 4      # unconditional direct jump
    JUMP_INDIRECT = 5    # unconditional indirect jump (e.g. switch tables)
    CALL = 6             # direct call (pushes return address)
    CALL_INDIRECT = 7    # indirect call (function pointers, virtual calls)
    RETURN = 8           # return (pops return address)

    @property
    def is_control(self) -> bool:
        """True for every instruction that can redirect the fetch stream."""
        return self >= InstrKind.BRANCH_COND

    @property
    def is_conditional(self) -> bool:
        """True only for conditional branches."""
        return self == InstrKind.BRANCH_COND

    @property
    def is_unconditional(self) -> bool:
        """True for control instructions that always transfer control."""
        return self >= InstrKind.JUMP_DIRECT

    @property
    def is_call(self) -> bool:
        return self in (InstrKind.CALL, InstrKind.CALL_INDIRECT)

    @property
    def is_return(self) -> bool:
        return self == InstrKind.RETURN

    @property
    def is_indirect(self) -> bool:
        """True when the target comes from a register, not the encoding."""
        return self in (InstrKind.JUMP_INDIRECT, InstrKind.CALL_INDIRECT,
                        InstrKind.RETURN)

    @property
    def is_memory(self) -> bool:
        return self in (InstrKind.LOAD, InstrKind.STORE)


# Module-level names for the kinds that the simulator's per-block path
# and the program builder (generation, validation, walker compile) test.
# Reading a module global takes about 20 ns, against about 190 ns for
# ``InstrKind.BRANCH_COND`` and 200-500 ns for a property such as
# ``kind.is_return`` or ``kind.is_call`` (timeit, CPython 3.11).  The
# kinds are ordered so that ``kind >= BRANCH_COND`` is ``is_control``.
LOAD = InstrKind.LOAD
BRANCH_COND = InstrKind.BRANCH_COND
JUMP_DIRECT = InstrKind.JUMP_DIRECT
JUMP_INDIRECT = InstrKind.JUMP_INDIRECT
CALL = InstrKind.CALL
CALL_INDIRECT = InstrKind.CALL_INDIRECT
RETURN = InstrKind.RETURN


@dataclass(frozen=True, slots=True)
class StaticInstr:
    """One instruction in the static program image.

    ``target`` is the statically-encoded target for direct control
    transfers; ``None`` for non-control and indirect instructions (indirect
    targets are chosen dynamically by the trace walker).

    Slotted: a program holds one per static instruction (43,206 for
    ``gcc_like``), and without a ``__dict__`` each takes 56 bytes
    instead of 96 (tracemalloc, CPython 3.11).
    """

    pc: int
    kind: InstrKind
    target: int | None = None

    def __post_init__(self) -> None:
        if self.pc % INSTRUCTION_BYTES != 0:
            raise ValueError(f"pc {self.pc:#x} is not word aligned")
        if self.target is not None and self.target % INSTRUCTION_BYTES != 0:
            raise ValueError(f"target {self.target:#x} is not word aligned")

    @property
    def next_sequential(self) -> int:
        """Address of the instruction that follows this one in memory."""
        return self.pc + INSTRUCTION_BYTES

    def __repr__(self) -> str:
        tgt = f", target={self.target:#x}" if self.target is not None else ""
        return f"StaticInstr(pc={self.pc:#x}, kind={self.kind.name}{tgt})"
