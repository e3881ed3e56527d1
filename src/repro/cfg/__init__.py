"""Synthetic program substrate: CFG model, generator, and trace walker."""

from repro.cfg.generator import ProgramGenerator, generate_program
from repro.cfg.model import TEXT_BASE, BasicBlock, Function, Program
from repro.cfg.shape import ProgramShape
from repro.cfg.walker import MAX_CALL_DEPTH, TraceWalker

__all__ = [
    "TEXT_BASE",
    "BasicBlock",
    "Function",
    "Program",
    "ProgramShape",
    "ProgramGenerator",
    "generate_program",
    "TraceWalker",
    "MAX_CALL_DEPTH",
]
