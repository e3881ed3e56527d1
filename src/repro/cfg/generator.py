"""Synthetic program generator.

Generates a :class:`~repro.cfg.model.Program` from a
:class:`~repro.cfg.shape.ProgramShape`, deterministically per seed.  The
generator works in two phases:

1. **Planning** — decide, per function, the block sizes, terminator kinds,
   and *symbolic* targets (references to blocks/functions by index).
   Functions are assigned to call-graph levels; calls only target deeper
   levels, which bounds dynamic call depth by ``shape.n_levels``.
2. **Materialization** — lay functions out contiguously from
   :data:`~repro.cfg.model.TEXT_BASE`, resolve symbolic targets to
   addresses, and build the immutable program image.

Function 0 (``main``) is always a dispatch loop: a block ending in an
indirect call whose target set spans ``dispatcher_fanout`` handler
functions, wrapped in a long-trip loop.  A small fan-out yields a
client-like program that re-executes a small working set; a large fan-out
yields a server-like program that sweeps a working set far larger than an
L1 instruction cache.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.cfg.model import TEXT_BASE, BasicBlock, Function, Program
from repro.cfg.shape import ProgramShape
from repro.errors import GenerationError
from repro.isa import (
    BRANCH_COND,
    CALL,
    CALL_INDIRECT,
    INSTRUCTION_BYTES,
    JUMP_DIRECT,
    JUMP_INDIRECT,
    RETURN,
    InstrKind,
    StaticInstr,
)

__all__ = ["ProgramGenerator", "generate_program"]

_BODY_KINDS = (InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE)

# Symbolic terminator tags used during planning.
_COND, _JUMP, _CALL, _ICALL, _IJUMP, _FALL, _RET = (
    "cond", "jump", "call", "icall", "ijump", "fall", "ret")


@dataclass
class _BlockPlan:
    body_len: int
    tag: str
    # Symbolic target: block index (cond/jump), function index (call),
    # or a list of (index, weight) pairs for indirect terminators.
    target_block: int | None = None
    target_func: int | None = None
    indirect: list[tuple[int, float]] = field(default_factory=list)
    indirect_kind: str = ""          # "block" or "func"
    is_loop: bool = False
    loop_trips: int = 0
    taken_bias: float = 0.5


@dataclass
class _Callees:
    """The functions a call at one call-graph level may target.

    Built once per level: every call site of the level draws from the
    same candidates (the functions of deeper levels), so the lists are
    not rebuilt per call site.
    """

    candidates: list[int]
    # Cumulative weights of a direct call's draw: hotness, divided by
    # how many levels down the callee sits.
    cum_weights: list[float]
    # 1 / hotness of each candidate, for an indirect call's sample.
    exponents: list[float]


class ProgramGenerator:
    """Deterministic generator of synthetic programs.

    The same (shape, seed, name) always produces the identical program, so
    traces derived from it are reproducible and cacheable.
    """

    def __init__(self, shape: ProgramShape, seed: int = 0,
                 name: str = "synthetic"):
        self.shape = shape
        self.seed = seed
        self.name = name

    def generate(self) -> Program:
        """Build and validate the program."""
        rng = random.Random(self.seed)
        levels = self._assign_levels()
        hotness = self._assign_hotness(rng)
        callees = self._callee_tables(levels, hotness)
        plans = [self._plan_function(f, levels, hotness, callees, rng)
                 for f in range(self.shape.n_functions)]
        return self._materialize(plans, rng)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _assign_levels(self) -> list[int]:
        """Map function index -> call-graph level (0 = main).

        Deeper levels hold more functions (call graphs fan out), and level
        grows with function index so calls to deeper levels are always
        forward in the address space.
        """
        shape = self.shape
        levels = [0]
        remaining = shape.n_functions - 1
        depth_levels = shape.n_levels - 1
        weights = [l + 1 for l in range(depth_levels)]
        total_weight = sum(weights)
        counts = [max(1, round(remaining * w / total_weight))
                  for w in weights]
        # Adjust the deepest level so counts sum exactly to `remaining`.
        counts[-1] += remaining - sum(counts)
        if counts[-1] < 1:
            # Degenerate tiny programs: flatten into two levels.
            counts = [0] * (depth_levels - 1) + [remaining]
        for level_index, count in enumerate(counts, start=1):
            levels.extend([level_index] * count)
        return levels

    def _assign_hotness(self, rng: random.Random) -> list[float]:
        """Zipf-distributed per-function weight (hot shared callees)."""
        n = self.shape.n_functions
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        s = self.shape.call_zipf_s
        return [1.0 / (rank ** s) for rank in ranks]

    @staticmethod
    def _callee_tables(levels: list[int],
                       hotness: list[float]) -> dict[int, _Callees]:
        """Call-graph level -> the callees a call at that level draws
        from.  Calls only target deeper levels, biased toward the next
        level down and weighted by global hotness."""
        tables = {}
        for level in set(levels):
            candidates = [f for f in range(len(levels))
                          if levels[f] > level]
            tables[level] = _Callees(
                candidates=candidates,
                cum_weights=list(itertools.accumulate(
                    hotness[f] / (levels[f] - level) for f in candidates)),
                exponents=[1.0 / hotness[f] for f in candidates])
        return tables

    def _body_len(self, rng: random.Random) -> int:
        mean = self.shape.block_body_mean
        if mean <= 1.0:
            return 1
        draw = 1 + int(rng.expovariate(1.0 / (mean - 1.0)))
        return min(draw, self.shape.block_body_max)

    def _blocks_for_function(self, func: int, rng: random.Random) -> int:
        shape = self.shape
        per_function = shape.target_instrs / shape.n_functions
        per_block = shape.block_body_mean + 1.0
        mean_blocks = max(2.0, per_function / per_block)
        draw = 1 + int(rng.expovariate(1.0 / mean_blocks))
        return max(2, min(draw, 4 * int(mean_blocks) + 2))

    def _plan_function(self, func: int, levels: list[int],
                       hotness: list[float],
                       callees: dict[int, _Callees],
                       rng: random.Random) -> list[_BlockPlan]:
        if func == 0:
            return self._plan_main(levels, hotness, rng)
        n_blocks = self._blocks_for_function(func, rng)
        my_callees = callees[levels[func]]
        plans = [self._plan_block(i, n_blocks, my_callees, hotness, rng)
                 for i in range(n_blocks - 1)]
        plans.append(_BlockPlan(body_len=self._body_len(rng), tag=_RET))
        return plans

    def _plan_main(self, levels: list[int], hotness: list[float],
                   rng: random.Random) -> list[_BlockPlan]:
        """main() is a dispatch loop over handler functions."""
        shape = self.shape
        handlers = [f for f in range(1, shape.n_functions)
                    if levels[f] >= 1]
        fanout = min(shape.dispatcher_fanout, len(handlers))
        if fanout == 0:
            raise GenerationError("no handler functions for the dispatcher")
        chosen = self._weighted_sample(handlers,
                                       [1.0 / hotness[f] for f in handlers],
                                       fanout, rng)
        s = shape.dispatcher_zipf_s
        weights = [1.0 / ((i + 1) ** s) for i in range(len(chosen))]
        total = sum(weights)
        targets = [(f, w / total) for f, w in zip(chosen, weights)]

        prologue = _BlockPlan(body_len=self._body_len(rng), tag=_FALL)
        dispatch = _BlockPlan(body_len=self._body_len(rng), tag=_ICALL,
                              indirect=targets, indirect_kind="func")
        loop = _BlockPlan(body_len=1, tag=_COND, target_block=1,
                          is_loop=True, loop_trips=shape.dispatcher_trips,
                          taken_bias=0.999)
        epilogue = _BlockPlan(body_len=1, tag=_RET)
        return [prologue, dispatch, loop, epilogue]

    def _plan_block(self, index: int, n_blocks: int, callees: _Callees,
                    hotness: list[float],
                    rng: random.Random) -> _BlockPlan:
        shape = self.shape
        plan = _BlockPlan(body_len=self._body_len(rng), tag=_FALL)
        last = n_blocks - 1
        roll = rng.random()

        cut_cond = shape.p_cond
        cut_jump = cut_cond + shape.p_jump
        cut_call = cut_jump + shape.p_call
        cut_ijump = cut_call + shape.p_indirect_jump
        cut_ret = cut_ijump + shape.p_early_return

        if roll < cut_cond:
            self._plan_cond(plan, index, last, rng)
        elif roll < cut_jump:
            target = self._forward_block(index, last, rng, min_skip=2)
            if target is not None:
                plan.tag = _JUMP
                plan.target_block = target
        elif roll < cut_call:
            candidates = callees.candidates
            if candidates:
                callee = rng.choices(candidates,
                                     cum_weights=callees.cum_weights)[0]
                if rng.random() < shape.p_call_indirect:
                    chosen = self._weighted_sample(
                        candidates, callees.exponents,
                        min(shape.indirect_fanout, len(candidates)), rng)
                    total = sum(hotness[f] for f in chosen)
                    plan.tag = _ICALL
                    plan.indirect = [(f, hotness[f] / total)
                                     for f in chosen]
                    plan.indirect_kind = "func"
                else:
                    plan.tag = _CALL
                    plan.target_func = callee
        elif roll < cut_ijump:
            candidates = list(range(index + 1, last + 1))
            if candidates:
                k = min(shape.indirect_fanout, len(candidates))
                chosen = rng.sample(candidates, k)
                weights = [1.0 / (i + 1) for i in range(k)]
                total = sum(weights)
                plan.tag = _IJUMP
                plan.indirect = [(b, w / total)
                                 for b, w in zip(chosen, weights)]
                plan.indirect_kind = "block"
        elif roll < cut_ret:
            plan.tag = _RET
        return plan

    def _plan_cond(self, plan: _BlockPlan, index: int, last: int,
                   rng: random.Random) -> None:
        shape = self.shape
        if rng.random() < shape.p_loop:
            # Loop back edge to this block or a nearby earlier block.
            target = rng.randint(max(0, index - 6), index)
            trips = 2 + int(rng.expovariate(1.0 / shape.loop_trip_mean))
            plan.tag = _COND
            plan.target_block = target
            plan.is_loop = True
            plan.loop_trips = min(trips, shape.loop_trip_max)
            plan.taken_bias = 0.9
            return
        target = self._forward_block(index, last, rng, min_skip=2)
        if target is None:
            return  # stays a fallthrough block
        plan.tag = _COND
        plan.target_block = target
        plan.taken_bias = rng.choice(shape.taken_bias_choices)

    def _forward_block(self, index: int, last: int, rng: random.Random,
                       min_skip: int) -> int | None:
        lo = index + min_skip
        if lo > last:
            return None
        hi = min(last, index + 8)
        if hi < lo:
            hi = lo
        return rng.randint(lo, hi)

    @staticmethod
    def _weighted_sample(items: list[int], exponents: list[float], k: int,
                         rng: random.Random) -> list[int]:
        """Weighted sampling without replacement (Efraimidis-Spirakis).

        ``exponents`` holds ``1 / weight`` of each item.  Each item
        draws its key in order and the stable sort keeps ties in item
        order.
        """
        if k >= len(items):
            return list(items)
        random_ = rng.random
        keys = [-(random_() ** exponent) for exponent in exponents]
        order = sorted(range(len(items)), key=keys.__getitem__)
        return [items[i] for i in order[:k]]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _materialize(self, plans: list[list[_BlockPlan]],
                     rng: random.Random) -> Program:
        shape = self.shape
        # First pass: compute block start addresses.
        block_addr: list[list[int]] = []
        func_entry: list[int] = []
        cursor = TEXT_BASE
        for func_plans in plans:
            starts = []
            func_entry.append(cursor)
            for plan in func_plans:
                starts.append(cursor)
                n_instrs = plan.body_len + (0 if plan.tag == _FALL else 1)
                cursor += n_instrs * INSTRUCTION_BYTES
            block_addr.append(starts)

        # Second pass: build blocks with resolved targets.
        functions = []
        body_cum_weights = list(itertools.accumulate(shape.body_mix))
        for func_index, func_plans in enumerate(plans):
            blocks = []
            for block_index, plan in enumerate(func_plans):
                start = block_addr[func_index][block_index]
                blocks.append(self._build_block(
                    plan, start, func_index, block_index, func_plans,
                    block_addr, func_entry, body_cum_weights, rng))
            functions.append(Function(name=f"f{func_index}", blocks=blocks))
        return Program(functions, name=self.name)

    def _build_block(self, plan: _BlockPlan, start: int, func_index: int,
                     block_index: int, func_plans: list[_BlockPlan],
                     block_addr: list[list[int]], func_entry: list[int],
                     body_cum_weights: list[float],
                     rng: random.Random) -> BasicBlock:
        instrs = []
        pc = start
        for kind in rng.choices(_BODY_KINDS, cum_weights=body_cum_weights,
                                k=plan.body_len):
            instrs.append(StaticInstr(pc, kind))
            pc += INSTRUCTION_BYTES

        my_blocks = block_addr[func_index]
        is_last = block_index == len(func_plans) - 1
        fallthrough = None if is_last else my_blocks[block_index + 1]

        indirect_targets: tuple[int, ...] = ()
        indirect_weights: tuple[float, ...] = ()
        if plan.tag == _FALL:
            if fallthrough is None:
                raise GenerationError(
                    "final block planned as fallthrough; generator bug")
            terminator = None
        elif plan.tag == _COND:
            target = my_blocks[plan.target_block]
            terminator = StaticInstr(pc, BRANCH_COND, target)
        elif plan.tag == _JUMP:
            target = my_blocks[plan.target_block]
            terminator = StaticInstr(pc, JUMP_DIRECT, target)
        elif plan.tag == _CALL:
            target = func_entry[plan.target_func]
            terminator = StaticInstr(pc, CALL, target)
        elif plan.tag == _ICALL:
            terminator = StaticInstr(pc, CALL_INDIRECT)
            indirect_targets = tuple(func_entry[f]
                                     for f, _ in plan.indirect)
            indirect_weights = tuple(w for _, w in plan.indirect)
        elif plan.tag == _IJUMP:
            terminator = StaticInstr(pc, JUMP_INDIRECT)
            indirect_targets = tuple(my_blocks[b]
                                     for b, _ in plan.indirect)
            indirect_weights = tuple(w for _, w in plan.indirect)
        elif plan.tag == _RET:
            terminator = StaticInstr(pc, RETURN)
        else:
            raise GenerationError(f"unknown block tag {plan.tag!r}")

        if terminator is not None:
            instrs.append(terminator)
        return BasicBlock(
            start=start,
            instrs=instrs,
            fallthrough=fallthrough,
            taken_bias=plan.taken_bias,
            loop_trips=plan.loop_trips if plan.is_loop else None,
            indirect_targets=indirect_targets,
            indirect_weights=indirect_weights,
        )


def generate_program(shape: ProgramShape, seed: int = 0,
                     name: str = "synthetic") -> Program:
    """Convenience wrapper: generate a validated program in one call."""
    return ProgramGenerator(shape, seed=seed, name=name).generate()
