"""Golden regression values.

The simulator is fully deterministic, so these exact counter values pin
the current model's behaviour.  If a change breaks them *intentionally*
(a model fix or feature), regenerate the table with the snippet in the
module docstring below and say so in the commit; if it breaks them
unintentionally, you just caught a behavioural regression.

Regenerate::

    python -c "
    from repro.cfg import ProgramShape, generate_program
    from repro.trace import Trace
    from repro import SimConfig, PrefetchConfig, simulate
    shape = ProgramShape(target_instrs=2048, n_functions=16,
                         n_levels=5, dispatcher_fanout=4)
    prog = generate_program(shape, seed=42, name='small')
    tr = Trace.from_program(prog, 10000, seed=7)
    for kind, fm in [('none','none'),('nlp','none'),('stream','none'),
                     ('fdip','enqueue'),('fdip','ideal'),
                     ('fdip_nlp','enqueue')]:
        r = simulate(tr, SimConfig(prefetch=PrefetchConfig(
            kind=kind, filter_mode=fm)))
        print(kind, fm, r.cycles, r.mispredicts, r.demand_misses,
              r.prefetches_issued)
    "
"""

import hashlib

import pytest

from repro import PrefetchConfig, SimConfig, simulate
from repro.cfg import ProgramShape, generate_program
from repro.sim.serialize import result_to_json
from repro.trace import Trace

GOLDEN = {
    ("none", "none"): dict(cycles=9749, mispredicts=412,
                           demand_misses=66, prefetches_issued=0),
    ("nlp", "none"): dict(cycles=8874, mispredicts=412,
                          demand_misses=18, prefetches_issued=62),
    ("stream", "none"): dict(cycles=8709, mispredicts=412,
                             demand_misses=28, prefetches_issued=70),
    ("fdip", "enqueue"): dict(cycles=7992, mispredicts=412,
                              demand_misses=7, prefetches_issued=299),
    ("fdip", "ideal"): dict(cycles=7989, mispredicts=412,
                            demand_misses=5, prefetches_issued=168),
    ("fdip_nlp", "enqueue"): dict(cycles=8005, mispredicts=412,
                                  demand_misses=8,
                                  prefetches_issued=303),
}


@pytest.fixture(scope="module")
def golden_trace():
    shape = ProgramShape(target_instrs=2048, n_functions=16,
                         n_levels=5, dispatcher_fanout=4)
    program = generate_program(shape, seed=42, name="small")
    return Trace.from_program(program, 10000, seed=7)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_counters(golden_trace, key):
    kind, filter_mode = key
    result = simulate(golden_trace, SimConfig(
        prefetch=PrefetchConfig(kind=kind, filter_mode=filter_mode)))
    expected = GOLDEN[key]
    measured = dict(cycles=result.cycles,
                    mispredicts=result.mispredicts,
                    demand_misses=result.demand_misses,
                    prefetches_issued=result.prefetches_issued)
    assert measured == expected


def test_golden_trace_identity(golden_trace):
    """The trace itself must be byte-stable across versions."""
    assert len(golden_trace) == 10000
    assert golden_trace[0].pc == 0x40_0000
    # Pin structural facts rather than a full hash dump.
    taken = sum(1 for record in golden_trace if record.taken)
    assert taken == 1651
    checksum = sum(record.pc for record in golden_trace) & 0xFFFFFFFF
    assert checksum == 0xC75D54E0


# First 16 hex digits of sha256(result_to_json(result)) per golden
# configuration.  They pin the whole serialized SimResult — every
# counter, its presence, every histogram and the telemetry tree — and
# both cycle engines must reproduce them.
GOLDEN_DIGESTS = {
    ("none", "none"): "85e0ea6c58623902",
    ("nlp", "none"): "bdc2aa60996f688d",
    ("stream", "none"): "f61c8b8b02693487",
    ("fdip", "enqueue"): "0481986ea5b10fcd",
    ("fdip", "ideal"): "bfd2cbf55a50264e",
    ("fdip_nlp", "enqueue"): "a6834c7f7b382e75",
}


@pytest.mark.parametrize("engine", ["naive", "event"])
@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_golden_result_digest(golden_trace, key, engine):
    kind, filter_mode = key
    result = simulate(golden_trace, SimConfig(
        prefetch=PrefetchConfig(kind=kind, filter_mode=filter_mode)),
        engine=engine)
    digest = hashlib.sha256(
        result_to_json(result).encode("utf-8")).hexdigest()
    assert digest[:16] == GOLDEN_DIGESTS[key]


# The FDIP scan's edge cases and the stream probe depth, pinned the
# same way: filter modes without and with PIQ re-probing, a lookahead
# window cut at either end, a PIQ that fills mid-entry (so the entry is
# rescanned next cycle), and a stream buffer compared beyond its head.
EDGE_DIGESTS = [
    (dict(kind="fdip", filter_mode="remove"), "f8b72d0e46d7fa07"),
    (dict(kind="fdip", filter_mode="none"), "a6e411f334170cef"),
    (dict(kind="fdip", filter_mode="enqueue", min_lookahead=3),
     "077c9c098b5c42b2"),
    (dict(kind="fdip", filter_mode="enqueue", max_lookahead=6),
     "6ba8273e26d86537"),
    (dict(kind="fdip", filter_mode="enqueue", piq_depth=2),
     "b3a27d99512afb96"),
    (dict(kind="fdip", filter_mode="remove", piq_depth=2,
          max_prefetches_per_cycle=2), "92919914a2f09e55"),
    (dict(kind="stream", stream_probe_depth=2), "4567be3bfbe73fe2"),
]


@pytest.mark.parametrize("engine", ["naive", "event"])
@pytest.mark.parametrize(
    "kw,expected", EDGE_DIGESTS,
    ids=["-".join(f"{k}={v}" for k, v in kw.items())
         for kw, _ in EDGE_DIGESTS])
def test_edge_result_digest(golden_trace, kw, expected, engine):
    result = simulate(golden_trace,
                      SimConfig(prefetch=PrefetchConfig(**kw)),
                      engine=engine)
    digest = hashlib.sha256(
        result_to_json(result).encode("utf-8")).hexdigest()
    assert digest[:16] == expected


# Front-end paths the default configuration does not take, pinned the
# same way under the default FDIP/enqueue prefetcher: a two-level FTB
# (49 L2 promotions on this trace), oracle directions, no wrong-path
# production, two demand accesses per cycle, wrong-path instructions
# held in the backend window, and each table-based direction predictor
# other than the default hybrid.
FRONTEND_DIGESTS = [
    ({"frontend.predictor.ftb_sets": 16,
      "frontend.predictor.ftb_l2_sets": 512}, None, "2d60a3fa17deb519"),
    ({"frontend.perfect_direction": True}, None, "f9fe78da70313cc4"),
    ({"frontend.model_wrong_path": False}, None, "1e683203dd07f0d4"),
    ({"core.fetch_accesses_per_cycle": 2}, None, "7548f276b28b4fec"),
    ({"core.wrong_path_in_window": True}, None, "fd362ce36e16b72c"),
    ({"frontend.predictor.direction": "gshare"}, None, "2714585ef3d05a8a"),
    ({"frontend.predictor.direction": "bimodal"}, None,
     "7b838965bc2945f3"),
    ({"frontend.predictor.direction": "local"}, None, "843eff14d7efc981"),
]

# Memory-system corners, pinned the same way, each with a counter that
# shows the corner is reached: one tag port (the enqueue filter's probe
# finds none free), one MSHR (demand retries and prefetch MSHR stalls),
# a slow bus (prefetches refused the grant), prefetches filled straight
# into the L1-I, and NLP, the bus grant's second user, on the slow bus
# (its default-memory digest is the nlp row of GOLDEN_DIGESTS).
MEMORY_DIGESTS = [
    ({"memory.icache_tag_ports": 1}, "mem.cpf_no_port",
     "f8e9c69032a447e0"),
    ({"memory.mshr_entries": 1}, "mem.demand_mshr_stalls",
     "b0beaff60f54a732"),
    ({"memory.bus_transfer_cycles": 8}, "bus.prefetch_rejected",
     "d2f9a7e757031ddd"),
    ({"prefetch.fill_l1_directly": True}, "mem.prefetch_fills_to_l1",
     "b175491d93cefa99"),
    ({"prefetch.kind": "nlp", "memory.bus_transfer_cycles": 8},
     "bus.prefetch_rejected", "3c90a0faa3e8ebbe"),
]


@pytest.mark.parametrize("engine", ["naive", "event"])
@pytest.mark.parametrize(
    "overrides,reached,expected", FRONTEND_DIGESTS + MEMORY_DIGESTS,
    ids=["-".join(f"{k.rpartition('.')[2]}={v}" for k, v in o.items())
         for o, _, _ in FRONTEND_DIGESTS + MEMORY_DIGESTS])
def test_frontend_result_digest(golden_trace, overrides, reached, expected,
                                engine):
    result = simulate(golden_trace,
                      SimConfig().with_overrides(**overrides),
                      engine=engine)
    if reached is not None:
        assert result.counters.get(reached, 0) > 0
    digest = hashlib.sha256(
        result_to_json(result).encode("utf-8")).hexdigest()
    assert digest[:16] == expected
