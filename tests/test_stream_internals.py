"""Stream-buffer internals: merges, reallocation, pending hygiene, and
the count of buffers that want a request."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheGeometry, MemoryConfig, PrefetchConfig
from repro.frontend import FetchTargetQueue
from repro.memory import HIT_L1, MISS, MemorySystem
from repro.prefetch import StreamBufferPrefetcher


def make(buffers=2, depth=3, mshrs=8, probe_depth=1,
         allocation_filter=False):
    config = MemoryConfig(
        icache=CacheGeometry(size_bytes=1024, assoc=2, block_bytes=32),
        l2=CacheGeometry(size_bytes=64 * 1024, assoc=4, block_bytes=32),
        l2_hit_latency=8, memory_latency=40, bus_transfer_cycles=4,
        mshr_entries=mshrs)
    memory = MemorySystem(config)
    prefetch = PrefetchConfig(kind="stream", stream_buffers=buffers,
                              stream_depth=depth,
                              allocation_filter=allocation_filter,
                              stream_probe_depth=probe_depth,
                              max_prefetches_per_cycle=1)
    stream = StreamBufferPrefetcher(memory, prefetch)
    memory.sidecar = stream.sidecar
    return memory, stream


FTQ = FetchTargetQueue(2)


class TestMergedFills:
    def test_demand_merge_marks_slot_arrived(self):
        memory, stream = make(buffers=1)
        memory.begin_cycle(1)
        stream.on_demand(100, MISS, 1)
        memory.begin_cycle(2)
        stream.tick(2, FTQ)                 # request 101
        _, ready = memory.demand_fetch(101, 3)  # merges into the prefetch
        memory.begin_cycle(ready)
        assert stream.stats.get("late_fills") == 1
        # The slot was popped by probe_and_claim during the demand, so
        # the buffer keeps streaming from 102.
        assert stream.buffers[0].next_bid == 102

    def test_pending_map_cleared_after_merge(self):
        memory, stream = make(buffers=1)
        memory.begin_cycle(1)
        stream.on_demand(100, MISS, 1)
        memory.begin_cycle(2)
        stream.tick(2, FTQ)
        memory.demand_fetch(101, 3)
        memory.begin_cycle(200)
        assert 101 not in stream._pending


class TestReallocation:
    def test_reallocation_unpends_old_slots(self):
        memory, stream = make(buffers=1, depth=3)
        memory.begin_cycle(1)
        stream.on_demand(100, MISS, 1)
        for cycle in (2, 7, 12):
            memory.begin_cycle(cycle)
            stream.tick(cycle, FTQ)
        pending_before = set(stream._pending)
        assert pending_before
        memory.begin_cycle(20)
        stream.on_demand(500, MISS, 20)   # reallocates the only buffer
        for bid in pending_before:
            assert bid not in stream._pending \
                or stream._pending[bid] == []
        assert stream.buffers[0].next_bid == 501

    def test_orphan_fill_after_reallocation_is_harmless(self):
        memory, stream = make(buffers=1, depth=2)
        memory.begin_cycle(1)
        stream.on_demand(100, MISS, 1)
        memory.begin_cycle(2)
        stream.tick(2, FTQ)               # 101 in flight
        memory.begin_cycle(3)
        stream.on_demand(500, MISS, 3)    # reallocate; 101 fill orphaned
        memory.begin_cycle(200)           # fill completes anyway
        # Buffer must be streaming 501.. and not corrupted by the fill.
        assert stream.buffers[0].next_bid is not None
        assert stream.buffers[0].next_bid >= 501
        assert not stream.probe_and_claim(101)


class TestSharedRequests:
    def test_two_buffers_share_one_fill(self):
        memory, stream = make(buffers=2, depth=2)
        memory.begin_cycle(1)
        stream.on_demand(100, MISS, 1)
        memory.begin_cycle(2)
        stream.on_demand(100, MISS, 2)    # second buffer, same stream
        # Both buffers now stream from 101.
        for cycle in (3, 8, 13, 18):
            memory.begin_cycle(cycle)
            stream.tick(cycle, FTQ)
        issued = stream.stats.get("issued")
        memory.begin_cycle(300)
        arrived = [slot.arrived
                   for buffer in stream.buffers
                   for slot in buffer.slots]
        assert all(arrived)
        # Shared fills mean fewer bus transfers than total slots.
        total_slots = sum(len(b.slots) for b in stream.buffers)
        assert issued < total_slots or total_slots == 0


class TestInactiveBuffers:
    def test_fresh_buffers_request_nothing(self):
        memory, stream = make(buffers=2)
        memory.begin_cycle(1)
        stream.tick(1, FTQ)
        assert stream.stats.get("issued") == 0
        assert all(not b.active for b in stream.buffers)


def _wanting(stream) -> bool:
    """Whether any buffer wants a request, from every buffer's state."""
    return any(buffer.next_bid is not None
               and len(buffer.slots) < buffer.depth
               for buffer in stream.buffers)


_stream_steps = st.lists(
    st.tuples(st.sampled_from(["miss", "hit", "probe", "probe_slot",
                               "tick", "skip"]),
              st.integers(0, 12), st.integers(0, 7)),
    min_size=1, max_size=60)


class TestWantCount:
    @given(buffers=st.integers(1, 4), depth=st.integers(1, 4),
           probe_depth=st.integers(1, 3), filtered=st.booleans(),
           steps=_stream_steps)
    @settings(max_examples=60, deadline=None)
    def test_quiescent_matches_buffer_state(self, buffers, depth,
                                            probe_depth, filtered, steps):
        memory, stream = make(buffers=buffers, depth=depth, mshrs=4,
                              probe_depth=probe_depth,
                              allocation_filter=filtered)
        now = 0
        for action, offset, pick in steps:
            now += 1
            memory.begin_cycle(now)
            bid = 100 + offset
            if action == "miss":
                stream.on_demand(bid, MISS, now)
            elif action == "hit":
                stream.on_demand(bid, HIT_L1, now)
            elif action == "probe":
                stream.probe_and_claim(bid, now)
            elif action == "probe_slot":
                # Claim a block some buffer holds, so hits (and the
                # skipped-slot shifts past the head) really happen.
                held = [slot.bid for buffer in stream.buffers
                        for slot in buffer.slots]
                if held:
                    stream.probe_and_claim(held[pick % len(held)], now)
            elif action == "tick":
                stream.tick(now, FTQ)
            else:
                now += pick
                stream.on_skip(now)
            assert stream.quiescent(FTQ) == (not _wanting(stream))
