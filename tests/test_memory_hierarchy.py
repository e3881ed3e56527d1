"""MemorySystem: the demand path, prefetch path, ports, and merges."""


from repro.config import CacheGeometry, MemoryConfig
from repro.memory import (
    HIT_L1,
    HIT_SIDECAR,
    MERGED,
    MISS,
    RETRY,
    MemorySystem,
    PrefetchBuffer,
)
from repro.prefetch.fdip import PrefetchBufferSidecar


def small_memory(sidecar=None, mshrs=4, ports=2):
    config = MemoryConfig(
        icache=CacheGeometry(size_bytes=1024, assoc=2, block_bytes=32),
        l2=CacheGeometry(size_bytes=64 * 1024, assoc=4, block_bytes=32),
        l2_hit_latency=10,
        memory_latency=50,
        bus_transfer_cycles=4,
        mshr_entries=mshrs,
        icache_tag_ports=ports,
    )
    return MemorySystem(config, sidecar=sidecar)


class TestDemandPath:
    def test_cold_miss_latency_is_memory(self):
        memory = small_memory()
        memory.begin_cycle(1)
        outcome, ready = memory.demand_fetch(5, 1)
        assert outcome == MISS
        # bus start 1 + transfer 4 + memory 50
        assert ready == 1 + 4 + 50

    def test_l2_hit_latency_after_first_fill(self):
        memory = small_memory()
        memory.begin_cycle(1)
        _, first_ready = memory.demand_fetch(5, 1)
        memory.begin_cycle(first_ready)
        # Evict block 5 from L1 by filling its set beyond assoc.
        memory.l1i.invalidate(5)
        memory.begin_cycle(200)
        assert memory.demand_fetch(5, 200) == (MISS, 200 + 4 + 10)  # L2 hit

    def test_fill_applies_at_ready_cycle(self):
        memory = small_memory()
        memory.begin_cycle(1)
        _, ready = memory.demand_fetch(5, 1)
        memory.begin_cycle(ready)
        assert memory.demand_fetch(5, ready) == (HIT_L1, ready)

    def test_merge_into_inflight_demand(self):
        memory = small_memory()
        memory.begin_cycle(1)
        _, first_ready = memory.demand_fetch(5, 1)
        assert memory.demand_fetch(5, 2) == (MERGED, first_ready)

    def test_retry_when_mshrs_full(self):
        memory = small_memory(mshrs=1)
        memory.begin_cycle(1)
        memory.demand_fetch(5, 1)
        assert memory.demand_fetch(9, 1) == (RETRY, None)

    def test_sidecar_hit_promotes_to_l1(self):
        buffer = PrefetchBuffer(4)
        memory = small_memory(sidecar=PrefetchBufferSidecar(buffer))
        buffer.insert(5)
        memory.begin_cycle(1)
        assert memory.demand_fetch(5, 1) == (HIT_SIDECAR, 1)
        assert not buffer.contains(5)
        assert memory.l1i.contains(5)


class TestPrefetchPath:
    def test_prefetch_fills_sidecar(self):
        buffer = PrefetchBuffer(4)
        memory = small_memory(sidecar=PrefetchBufferSidecar(buffer))
        memory.begin_cycle(1)
        assert memory.try_issue_prefetch(5, 1)
        memory.begin_cycle(1 + 4 + 50)
        assert buffer.contains(5)
        assert not memory.l1i.contains(5)

    def test_prefetch_rejected_when_bus_busy(self):
        memory = small_memory(sidecar=PrefetchBufferSidecar(
            PrefetchBuffer(4)))
        memory.begin_cycle(1)
        memory.demand_fetch(9, 1)            # occupies the bus
        assert not memory.try_issue_prefetch(5, 2)
        assert memory.try_issue_prefetch(5, 6)

    def test_prefetch_rejected_when_inflight_or_full(self):
        memory = small_memory(sidecar=PrefetchBufferSidecar(
            PrefetchBuffer(4)), mshrs=1)
        memory.begin_cycle(1)
        assert memory.try_issue_prefetch(5, 1)
        assert not memory.try_issue_prefetch(5, 6)   # already in flight
        assert not memory.try_issue_prefetch(7, 6)   # MSHRs full

    def test_demand_merge_into_prefetch_goes_to_l1(self):
        buffer = PrefetchBuffer(4)
        memory = small_memory(sidecar=PrefetchBufferSidecar(buffer))
        memory.begin_cycle(1)
        memory.try_issue_prefetch(5, 1)
        outcome, ready = memory.demand_fetch(5, 3)
        assert outcome == MERGED
        memory.begin_cycle(ready)
        assert memory.l1i.contains(5)
        assert not buffer.contains(5)          # merged, not buffered
        assert memory.stats.get("late_prefetch_fills") == 1

    def test_drain_in_flight(self):
        buffer = PrefetchBuffer(4)
        memory = small_memory(sidecar=PrefetchBufferSidecar(buffer))
        memory.begin_cycle(1)
        memory.try_issue_prefetch(5, 1)
        memory.drain_in_flight()
        assert buffer.contains(5)
        assert len(memory.mshrs) == 0


class TestTagPorts:
    def test_demand_consumes_ports(self):
        memory = small_memory(ports=2)
        memory.begin_cycle(1)
        assert memory.idle_tag_ports == 2
        memory.demand_fetch(5, 1)
        assert memory.idle_tag_ports == 1

    def test_cpf_probe_consumes_port_and_answers(self):
        memory = small_memory(ports=2)
        memory.begin_cycle(1)
        memory.l1i.fill(5)
        assert memory.cpf_probe(5) is True
        assert memory.cpf_probe(6) is False
        assert memory.cpf_probe(7) is None     # out of ports
        assert memory.stats.get("cpf_no_port") == 1

    def test_ports_reset_each_cycle(self):
        memory = small_memory(ports=1)
        memory.begin_cycle(1)
        memory.cpf_probe(5)
        assert memory.idle_tag_ports == 0
        memory.begin_cycle(2)
        assert memory.idle_tag_ports == 1

    def test_oracle_probe_free(self):
        memory = small_memory(ports=1)
        memory.begin_cycle(1)
        memory.l1i.fill(5)
        assert memory.oracle_probe(5)
        assert memory.idle_tag_ports == 1     # no port consumed


class TestBusAccounting:
    def test_utilization_includes_prefetches(self):
        memory = small_memory(sidecar=PrefetchBufferSidecar(
            PrefetchBuffer(4)))
        memory.begin_cycle(1)
        memory.demand_fetch(1, 1)
        memory.try_issue_prefetch(2, 6)
        assert memory.bus.stats.get("busy_cycles") == 8

    def test_in_flight_listing(self):
        memory = small_memory()
        memory.begin_cycle(1)
        memory.demand_fetch(3, 1)
        assert memory.in_flight_blocks() == [3]
