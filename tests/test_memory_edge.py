"""Memory-system edge cases beyond the basic hierarchy tests."""

import pytest

from repro.config import CacheGeometry, MemoryConfig
from repro.memory import MERGED, MemorySystem, PrefetchBuffer
from repro.prefetch.fdip import PrefetchBufferSidecar


def make_memory(l2_kb=2, sidecar=None, fill_to_l1=False):
    config = MemoryConfig(
        icache=CacheGeometry(size_bytes=512, assoc=2, block_bytes=32),
        l2=CacheGeometry(size_bytes=l2_kb * 1024, assoc=2, block_bytes=32),
        l2_hit_latency=10, memory_latency=50, bus_transfer_cycles=4,
        mshr_entries=8)
    return MemorySystem(config, sidecar=sidecar,
                        prefetch_fill_to_l1=fill_to_l1)


class TestL2Contents:
    def test_l2_eviction_restores_memory_latency(self):
        memory = make_memory(l2_kb=2)   # 64 blocks, 2-way, 32 sets
        memory.begin_cycle(1)
        _, now = memory.demand_fetch(0, 1)
        assert now == 1 + 4 + 50
        # Thrash L2 set 0 (block ids congruent mod 32).
        for bid in (32, 64):
            memory.begin_cycle(now)
            _, now = memory.demand_fetch(bid, now)
        memory.begin_cycle(now)
        memory.l1i.invalidate(0)
        _, ready = memory.demand_fetch(0, now)
        # Block 0 was evicted from L2: full memory latency again.
        assert ready - now == 4 + 50

    def test_l2_hit_after_unrelated_traffic(self):
        memory = make_memory(l2_kb=64)
        memory.begin_cycle(1)
        _, first_ready = memory.demand_fetch(0, 1)
        memory.begin_cycle(first_ready)
        memory.l1i.invalidate(0)
        _, ready = memory.demand_fetch(0, first_ready)
        assert ready - first_ready == 4 + 10


class TestDirectFill:
    def test_prefetch_fill_to_l1_skips_sidecar(self):
        buffer = PrefetchBuffer(4)
        memory = make_memory(sidecar=PrefetchBufferSidecar(buffer),
                             fill_to_l1=True)
        memory.begin_cycle(1)
        assert memory.try_issue_prefetch(5, 1)
        memory.drain_in_flight()
        assert memory.l1i.contains(5)
        assert not buffer.contains(5)
        assert memory.stats.get("prefetch_fills_to_l1") == 1

    def test_merged_prefetch_still_goes_to_l1(self):
        buffer = PrefetchBuffer(4)
        memory = make_memory(sidecar=PrefetchBufferSidecar(buffer),
                             fill_to_l1=True)
        memory.begin_cycle(1)
        memory.try_issue_prefetch(5, 1)
        outcome, _ = memory.demand_fetch(5, 2)
        assert outcome == MERGED
        memory.drain_in_flight()
        assert memory.l1i.contains(5)
        assert memory.stats.get("late_prefetch_fills") == 1


class TestDrain:
    def test_drain_handles_mixed_entries(self):
        buffer = PrefetchBuffer(4)
        memory = make_memory(sidecar=PrefetchBufferSidecar(buffer))
        memory.begin_cycle(1)
        memory.demand_fetch(1, 1)
        memory.try_issue_prefetch(2, 6)
        memory.try_issue_prefetch(3, 11)
        memory.demand_fetch(3, 12)        # merges into the prefetch
        memory.drain_in_flight()
        assert memory.l1i.contains(1)
        assert buffer.contains(2)
        assert memory.l1i.contains(3)     # merged -> L1
        assert len(memory.mshrs) == 0

    def test_drain_empty_is_noop(self):
        memory = make_memory()
        memory.drain_in_flight()
        assert memory.in_flight_blocks() == []


class TestLeadTimes:
    def test_claim_records_lead(self):
        buffer = PrefetchBuffer(4)
        memory = make_memory(sidecar=PrefetchBufferSidecar(buffer))
        memory.begin_cycle(1)
        memory.try_issue_prefetch(5, 1)
        ready = 1 + 4 + 50
        memory.begin_cycle(ready)
        use_cycle = ready + 20
        memory.begin_cycle(use_cycle)
        outcome, _ = memory.demand_fetch(5, use_cycle)
        assert outcome == "sidecar"
        hist = buffer.stats.histogram("lead_cycles")
        assert hist.total == 1
        assert hist.mean == pytest.approx(20.0)
