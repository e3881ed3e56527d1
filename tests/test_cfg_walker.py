"""Trace walker semantics."""

import hashlib
import itertools
import struct

import pytest

from repro.cfg import (
    MAX_CALL_DEPTH,
    ProgramShape,
    TraceWalker,
    generate_program,
)
from repro.cfg.model import TEXT_BASE, BasicBlock, Function, Program
from repro.errors import SimulationError
from repro.isa import INSTRUCTION_BYTES, InstrKind, StaticInstr
from repro.trace import Trace
from repro.workloads.suite import ALL_WORKLOADS, build_program


def build_loop_program(trips: int) -> Program:
    """main: B0 body(1) + loop-branch back to B0, then return block."""
    b0 = BasicBlock(
        start=TEXT_BASE,
        instrs=[StaticInstr(TEXT_BASE, InstrKind.ALU),
                StaticInstr(TEXT_BASE + 4, InstrKind.BRANCH_COND,
                            TEXT_BASE)],
        fallthrough=TEXT_BASE + 8,
        loop_trips=trips,
        taken_bias=0.9,
    )
    b1 = BasicBlock(
        start=TEXT_BASE + 8,
        instrs=[StaticInstr(TEXT_BASE + 8, InstrKind.RETURN)],
        fallthrough=None,
    )
    return Program([Function(name="main", blocks=[b0, b1])])


def build_call_program() -> Program:
    """main calls f1 then returns; f1 returns immediately."""
    main_b0 = BasicBlock(
        start=TEXT_BASE,
        instrs=[StaticInstr(TEXT_BASE, InstrKind.CALL, TEXT_BASE + 8)],
        fallthrough=TEXT_BASE + 4,
    )
    main_b1 = BasicBlock(
        start=TEXT_BASE + 4,
        instrs=[StaticInstr(TEXT_BASE + 4, InstrKind.RETURN)],
        fallthrough=None,
    )
    f1_b0 = BasicBlock(
        start=TEXT_BASE + 8,
        instrs=[StaticInstr(TEXT_BASE + 8, InstrKind.RETURN)],
        fallthrough=None,
    )
    return Program([
        Function(name="main", blocks=[main_b0, main_b1]),
        Function(name="f1", blocks=[f1_b0]),
    ])


def build_indirect_program() -> Program:
    """main calls f1 or f2 through a pointer; f2 switches between two
    returning blocks through an indirect jump."""
    b = TEXT_BASE

    def instrs(start, *kinds):
        return [StaticInstr(start + INSTRUCTION_BYTES * i, kind)
                for i, kind in enumerate(kinds)]

    main = Function(name="main", blocks=[
        BasicBlock(start=b, instrs=instrs(b, InstrKind.ALU,
                                          InstrKind.CALL_INDIRECT),
                   fallthrough=b + 8, indirect_targets=(b + 16, b + 28),
                   indirect_weights=(1.0, 2.0)),
        BasicBlock(start=b + 8, instrs=instrs(b + 8, InstrKind.ALU,
                                              InstrKind.RETURN),
                   fallthrough=None),
    ])
    f1 = Function(name="f1", blocks=[
        BasicBlock(start=b + 16, instrs=instrs(b + 16, InstrKind.ALU,
                                               InstrKind.LOAD,
                                               InstrKind.RETURN),
                   fallthrough=None),
    ])
    f2 = Function(name="f2", blocks=[
        BasicBlock(start=b + 28, instrs=instrs(b + 28, InstrKind.STORE,
                                               InstrKind.JUMP_INDIRECT),
                   fallthrough=None, indirect_targets=(b + 36, b + 44),
                   indirect_weights=(1.0, 1.0)),
        BasicBlock(start=b + 36, instrs=instrs(b + 36, InstrKind.ALU,
                                               InstrKind.RETURN),
                   fallthrough=None),
        BasicBlock(start=b + 44, instrs=instrs(b + 44, InstrKind.RETURN),
                   fallthrough=None),
    ])
    return Program([main, f1, f2])


class TestLoopSemantics:
    def test_trip_count_pattern(self):
        program = build_loop_program(trips=3)
        walker = TraceWalker(program, seed=0)
        records = walker.walk(20)
        outcomes = [r.taken for r in records
                    if r.kind == InstrKind.BRANCH_COND][:6]
        # taken twice, not-taken once, repeating (trips=3).
        assert outcomes == [True, True, False, True, True, False]

    def test_loop_body_replays(self):
        program = build_loop_program(trips=2)
        walker = TraceWalker(program, seed=0)
        records = walker.walk(5)
        assert [r.pc for r in records] == [
            TEXT_BASE, TEXT_BASE + 4,       # body + taken branch
            TEXT_BASE, TEXT_BASE + 4,       # body + not-taken branch
            TEXT_BASE + 8,                  # return
        ]


class TestCallReturn:
    def test_return_pops_to_call_site(self):
        program = build_call_program()
        walker = TraceWalker(program, seed=0)
        records = walker.walk(3)
        assert records[0].kind == InstrKind.CALL
        assert records[0].next_pc == TEXT_BASE + 8
        assert records[1].kind == InstrKind.RETURN
        assert records[1].next_pc == TEXT_BASE + 4   # back after the call

    def test_main_return_restarts_program(self):
        program = build_call_program()
        walker = TraceWalker(program, seed=0)
        records = walker.walk(4)
        assert records[2].kind == InstrKind.RETURN
        assert records[2].next_pc == program.entry
        assert records[3].pc == program.entry


class TestDeterminismAndShape:
    def test_same_seed_same_trace(self, small_program):
        a = TraceWalker(small_program, seed=4).walk(2000)
        b = TraceWalker(small_program, seed=4).walk(2000)
        assert a == b

    def test_different_seed_differs(self, small_program):
        a = TraceWalker(small_program, seed=4).walk(2000)
        b = TraceWalker(small_program, seed=5).walk(2000)
        assert a != b

    def test_next_pc_chain_is_consistent(self, small_program):
        records = TraceWalker(small_program, seed=1).walk(5000)
        for previous, current in zip(records, records[1:]):
            assert previous.next_pc == current.pc

    def test_taken_iff_redirect_or_unconditional(self, small_program):
        for record in TraceWalker(small_program, seed=1).walk(5000):
            if record.kind.is_unconditional:
                assert record.taken
            if not record.kind.is_control:
                assert not record.taken
                assert record.next_pc == record.pc + INSTRUCTION_BYTES

    def test_all_pcs_inside_program(self, small_program):
        for record in TraceWalker(small_program, seed=1).walk(5000):
            assert small_program.instr_at(record.pc) is not None

    def test_record_kind_matches_static_image(self, small_program):
        for record in TraceWalker(small_program, seed=2).walk(3000):
            assert small_program.instr_at(record.pc).kind == record.kind

    def test_call_depth_bounded(self):
        shape = ProgramShape(target_instrs=4096, n_functions=32,
                             n_levels=6)
        program = generate_program(shape, seed=9)
        walker = TraceWalker(program, seed=1)
        depth = 0
        max_depth = 0
        for record in walker.records():
            if record.kind.is_call:
                depth += 1
            elif record.kind.is_return:
                depth = max(0, depth - 1)
            max_depth = max(max_depth, depth)
            if walker._stack == [] and max_depth > 0:
                break
        assert max_depth <= 6 < MAX_CALL_DEPTH

    def test_walk_returns_requested_length(self, small_program):
        assert len(TraceWalker(small_program, seed=0).walk(123)) == 123


_PROGRAMS = {
    "loop": lambda: build_loop_program(trips=3),
    "call": build_call_program,
    "indirect": build_indirect_program,
}


class TestContinuation:
    """Consecutive calls continue one stream: nothing is re-emitted and
    no terminator resolves twice."""

    LENGTH = 24

    @pytest.mark.parametrize("shape", sorted(_PROGRAMS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_split_continues_the_stream(self, shape, seed):
        program = _PROGRAMS[shape]()
        whole = TraceWalker(program, seed=seed).walk(self.LENGTH)
        for first in range(self.LENGTH + 1):
            walker = TraceWalker(program, seed=seed)
            split = walker.walk(first) + walker.walk(self.LENGTH - first)
            assert split == whole, f"split at {first}"

    def test_suite_workload_split_mid_block(self):
        # compress_like's first block ends in an indirect call at
        # 0x400010; a walk of 5 stops right after it, and a second walk
        # must not resolve it (redraw its target) again.
        program = build_program("compress_like")
        walker = TraceWalker(program, seed=1)
        split = walker.walk(5) + walker.walk(5)
        assert split == TraceWalker(program, seed=1).walk(10)
        assert [r.pc for r in split].count(0x400010) == 1

    @pytest.mark.parametrize("shape", sorted(_PROGRAMS))
    def test_records_matches_walk(self, shape):
        program = _PROGRAMS[shape]()
        for n in range(self.LENGTH + 1):
            records = TraceWalker(program, seed=1).records()
            assert (list(itertools.islice(records, n))
                    == TraceWalker(program, seed=1).walk(n))

    def test_records_and_walk_share_the_position(self):
        program = build_indirect_program()
        whole = TraceWalker(program, seed=3).walk(30)
        walker = TraceWalker(program, seed=3)
        head = list(itertools.islice(walker.records(), 7))
        assert head + walker.walk(23) == whole

    def test_zero_walk_emits_nothing(self):
        program = build_indirect_program()
        walker = TraceWalker(program, seed=0)
        assert walker.walk(0) == []
        assert walker.walk(9) == TraceWalker(program, seed=0).walk(9)

    def test_negative_walk_rejected(self):
        with pytest.raises(ValueError):
            TraceWalker(build_call_program()).walk(-1)


class TestSharedRecords:
    def test_block_body_records_shared_between_visits(self):
        program = build_loop_program(trips=4)
        records = TraceWalker(program, seed=0).walk(8)
        bodies = [r for r in records if r.pc == TEXT_BASE]
        assert len(bodies) == 4
        assert all(r is bodies[0] for r in bodies)


class TestWalkErrors:
    def test_jump_into_the_middle_of_a_block(self):
        # A target inside a block passes Program.validate (it is inside
        # the text) but is not where any block starts.
        b = TEXT_BASE
        main = Function(name="main", blocks=[
            BasicBlock(start=b, instrs=[
                StaticInstr(b, InstrKind.JUMP_INDIRECT)],
                fallthrough=None, indirect_targets=(b + 8,),
                indirect_weights=(1.0,)),
            BasicBlock(start=b + 4, instrs=[
                StaticInstr(b + 4, InstrKind.ALU),
                StaticInstr(b + 8, InstrKind.RETURN)],
                fallthrough=None),
        ])
        walker = TraceWalker(Program([main]), seed=0)
        with pytest.raises(SimulationError, match="not a block start"):
            walker.walk(3)

    def test_block_without_a_way_out(self):
        b = TEXT_BASE
        body = BasicBlock(start=b, instrs=[StaticInstr(b, InstrKind.ALU)],
                          fallthrough=b + 4)
        main = Function(name="main", blocks=[
            body,
            BasicBlock(start=b + 4, instrs=[
                StaticInstr(b + 4, InstrKind.RETURN)], fallthrough=None),
        ])
        program = Program([main])
        body.fallthrough = None      # corrupt it after validation
        with pytest.raises(SimulationError, match="fell off the end"):
            TraceWalker(program, seed=0).walk(2)


def _stream_digest(trace: Trace) -> str:
    pack = struct.Struct("<QBBQ").pack
    sha = hashlib.sha256()
    for pc, kind, taken, next_pc in trace:
        sha.update(pack(pc, kind, taken, next_pc))
    return sha.hexdigest()


#: sha256 over the ``<QBBQ`` records of a 5000-instruction, seed-1 walk of
#: each suite workload, taken from the per-instruction walker.  The trace
#: cache keys only on generator version, workload, seeds and length, so a
#: walker change that moved a record would leave stale cached traces
#: beside fresh ones: such a change must bump ``_GENERATOR_VERSION`` in
#: ``repro.workloads.suite`` and update these digests with it.
PINNED_STREAMS = {
    "compress_like":
        "0227bffc82b585aab2a0a241c56a22f3b42afbc6b3c79b174c3f7244ec57a45b",
    "li_like":
        "5a355c30722ece1a94a45e6bf803ad284517c2402291ea4dcfd51bb856a12f43",
    "ijpeg_like":
        "00af594088df5704e3fd436c4cbd4426805a45e61276b32c63c09804cdec9d9c",
    "m88ksim_like":
        "ae8b62dd292f8fb51cab8b785f3214be646b0f3bc7efec4518ba41fd01a97bc7",
    "deltablue_like":
        "3bba9b65aa75f7c12d9d6acf0202a7570ca15fa80b453cc9157d1c066d458e12",
    "go_like":
        "d9264e336d39368f2274c1f30016e837c301091bc19a1beb11a7cdfd69adc2af",
    "groff_like":
        "300a4f6cce037fe484f581c78b2f509d232b1f875d26467fa49bdd825447fc41",
    "perl_like":
        "ae3ea74d5f27b3687bfe82ebceaa7ad55f6faaf64c65aa568bde01fb938fa5b2",
    "gcc_like":
        "b9ac3a77249520059ecf22c57497ad85c6878647e92ce77af36ca12c211a3565",
    "vortex_like":
        "51581d4bd44a5bb581aaa8e0540ec62a156e401cf72d45dc6ec0313ae796c0cb",
}


class TestPinnedStreams:
    def test_every_suite_workload_is_pinned(self):
        assert sorted(PINNED_STREAMS) == sorted(ALL_WORKLOADS)

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_walk_matches_pinned_digest(self, workload):
        trace = Trace.from_program(build_program(workload), 5000, seed=1)
        assert _stream_digest(trace) == PINNED_STREAMS[workload]
