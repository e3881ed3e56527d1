"""Digests of generated programs and of walks over them.

Used by ``tests/test_program_pins.py``.  Kept free of pytest so that any
interpreter can compute the digests directly::

    PYTHONPATH=src:. python -c "from tests._program_digests import \\
        print_digests; print_digests()"
"""

from __future__ import annotations

import hashlib
import struct

from repro.cfg import Program, TraceWalker
from repro.workloads.suite import ALL_WORKLOADS, build_program

#: Walk seeds of :func:`walks_digest`, walked back to back from one
#: program object.
WALK_SEEDS = (1, 2, 3, 4)
WALK_LENGTH = 2000

_RECORD = struct.Struct("<QBBQ")


def program_digest(program: Program) -> str:
    """sha256 over the structure of ``program``.

    Covers function names, block starts, fallthroughs, ``taken_bias``,
    ``loop_trips``, indirect targets and weights, and each instruction's
    pc, kind and target.  Weights are rounded to 9 decimal places: they
    are normalized with a float ``sum``, whose last bit differs between
    interpreters (3.12's ``sum`` is compensated).
    """
    sha = hashlib.sha256()
    for function in program.functions:
        sha.update(f"function {function.name}\n".encode())
        for block in function.blocks:
            weights = ",".join(f"{w:.9f}" for w in block.indirect_weights)
            sha.update(
                f"block {block.start} {block.fallthrough} "
                f"{block.taken_bias!r} {block.loop_trips} "
                f"{block.indirect_targets} [{weights}]\n".encode())
            for instr in block.instrs:
                sha.update(f"{instr.pc} {int(instr.kind)} "
                           f"{instr.target}\n".encode())
    return sha.hexdigest()


def walks_digest(program: Program) -> str:
    """sha256 over the records of walks with :data:`WALK_SEEDS`, each
    :data:`WALK_LENGTH` long, taken one after another from ``program``."""
    sha = hashlib.sha256()
    pack = _RECORD.pack
    for seed in WALK_SEEDS:
        for pc, kind, taken, next_pc in TraceWalker(
                program, seed=seed).walk(WALK_LENGTH):
            sha.update(pack(pc, kind, taken, next_pc))
    return sha.hexdigest()


def digests(name: str) -> tuple[str, str]:
    """(program digest, walks digest) of suite workload ``name``."""
    program = build_program(name)
    return program_digest(program), walks_digest(program)


def print_digests() -> None:
    for name in ALL_WORKLOADS:
        program, walks = digests(name)
        print(name, program, walks)
