"""End-to-end property tests: random programs through the full simulator.

The strongest invariant in the repository: for *any* generated program
and *any* prefetcher, the trace-driven front end must deliver exactly
the committed instruction stream — every record retires, in order, no
matter how the predictors, FTB, caches, and squash logic interact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PrefetchConfig, PrefetcherKind, SimConfig, simulate
from repro.cfg import ProgramShape, TraceWalker, generate_program
from repro.ftb import FetchTargetBuffer, FTBEntry
from repro.isa import InstrKind
from repro.trace import Trace
from tests._reference_walker import ReferenceWalker

_shapes = st.builds(
    ProgramShape,
    target_instrs=st.sampled_from([512, 1024, 2048]),
    n_functions=st.sampled_from([4, 8, 16]),
    n_levels=st.sampled_from([2, 3, 4]),
    dispatcher_fanout=st.integers(1, 4),
    p_loop=st.floats(0.0, 0.5),
    p_call_indirect=st.floats(0.0, 0.5),
    block_body_mean=st.floats(1.5, 6.0),
)


@given(_shapes, st.integers(0, 2 ** 16))
@settings(max_examples=12, deadline=None)
def test_generated_programs_always_validate(shape, seed):
    program = generate_program(shape, seed=seed)
    program.validate()
    assert program.n_instrs > 0


@given(_shapes, st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_walker_chain_consistency_on_random_programs(shape, seed):
    program = generate_program(shape, seed=seed)
    walker = TraceWalker(program, seed=seed ^ 0xABCD)
    records = walker.walk(1500)
    for previous, current in zip(records, records[1:]):
        assert previous.next_pc == current.pc
        assert program.instr_at(current.pc) is not None


@given(_shapes, st.integers(0, 2 ** 16), st.integers(0, 1500))
@settings(max_examples=10, deadline=None)
def test_block_walker_matches_per_instruction_reference(shape, seed, split):
    program = generate_program(shape, seed=seed)
    expected = ReferenceWalker(program, seed=seed).walk(1500)
    assert TraceWalker(program, seed=seed).walk(1500) == expected
    walker = TraceWalker(program, seed=seed)
    assert walker.walk(split) + walker.walk(1500 - split) == expected


@given(_shapes, st.integers(0, 2 ** 10),
       st.sampled_from(list(PrefetcherKind.ALL)))
@settings(max_examples=10, deadline=None)
def test_simulator_retires_every_record(shape, seed, kind):
    program = generate_program(shape, seed=seed)
    trace = Trace.from_program(program, 1200, seed=seed + 1)
    config = SimConfig(prefetch=PrefetchConfig(kind=kind))
    result = simulate(trace, config)
    assert result.instructions == len(trace)
    assert result.cycles > 0
    assert result.get("backend.retired") == len(trace)


@given(_shapes, st.integers(0, 2 ** 10))
@settings(max_examples=8, deadline=None)
def test_simulation_is_deterministic(shape, seed):
    program = generate_program(shape, seed=seed)
    trace = Trace.from_program(program, 800, seed=seed)
    config = SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.FDIP))
    a = simulate(trace, config)
    b = simulate(trace, config)
    assert a.cycles == b.cycles
    assert a.counters == b.counters


# ----------------------------------------------------------------------
# FTB vs. a reference LRU model
# ----------------------------------------------------------------------

_ftb_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 31)), max_size=150)


@given(_ftb_ops)
@settings(max_examples=50)
def test_ftb_matches_reference_lru(ops):
    ftb = FetchTargetBuffer(sets=4, ways=2)
    # Reference: per-set dict of pc -> entry, insertion order = LRU.
    reference: list[dict[int, int]] = [{} for _ in range(4)]

    for is_install, slot in ops:
        pc = 0x40_0000 + slot * 4
        set_index = slot % 4
        ref_set = reference[set_index]
        if is_install:
            entry = FTBEntry(start=pc, fallthrough=pc + 16,
                             target=pc + 64, kind=InstrKind.JUMP_DIRECT)
            ftb.install(entry)
            if pc in ref_set:
                del ref_set[pc]
            elif len(ref_set) >= 2:
                del ref_set[next(iter(ref_set))]
            ref_set[pc] = pc + 64
        else:
            found = ftb.lookup(pc)
            expected = ref_set.get(pc)
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert found.target == expected
                del ref_set[pc]
                ref_set[pc] = expected
    assert ftb.resident_entries() == sum(len(s) for s in reference)
