"""Synthetic ISA: instruction kinds and the static instruction model."""

from repro.isa.instructions import (
    BRANCH_COND,
    CALL,
    CALL_INDIRECT,
    INSTRUCTION_BYTES,
    JUMP_DIRECT,
    JUMP_INDIRECT,
    LOAD,
    RETURN,
    InstrKind,
    StaticInstr,
)

__all__ = ["INSTRUCTION_BYTES", "InstrKind", "StaticInstr", "LOAD",
           "BRANCH_COND", "JUMP_DIRECT", "JUMP_INDIRECT", "CALL",
           "CALL_INDIRECT", "RETURN"]
