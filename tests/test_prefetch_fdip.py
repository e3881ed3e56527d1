"""FDIP prefetch engine: scanning, filtering, PIQ, squash."""


from repro.config import (
    CacheGeometry,
    FilterMode,
    MemoryConfig,
    PrefetchConfig,
)
from repro.frontend import FetchTargetQueue, FTQEntry
from repro.memory import MemorySystem
from repro.prefetch import FdipPrefetcher

BASE = 0x40_0000


def make_memory(ports=2, mshrs=8):
    config = MemoryConfig(
        icache=CacheGeometry(size_bytes=1024, assoc=2, block_bytes=32),
        l2=CacheGeometry(size_bytes=64 * 1024, assoc=4, block_bytes=32),
        l2_hit_latency=8, memory_latency=40, bus_transfer_cycles=4,
        mshr_entries=mshrs, icache_tag_ports=ports)
    return MemorySystem(config)


def make_fdip(memory, filter_mode=FilterMode.NONE, piq_depth=8,
              buffer_entries=8, per_cycle=4):
    config = PrefetchConfig(kind="fdip", filter_mode=filter_mode,
                            piq_depth=piq_depth,
                            buffer_entries=buffer_entries,
                            max_prefetches_per_cycle=per_cycle)
    prefetcher = FdipPrefetcher(memory, config)
    memory.sidecar = prefetcher.sidecar
    return prefetcher


def push_entry(ftq, seq, start, n_instrs, wrong_path=False):
    ftq.push(FTQEntry(seq=seq, start=start, end=start + 4 * n_instrs,
                      predicted_next=start + 4 * n_instrs,
                      wrong_path=wrong_path))


class TestScanning:
    def test_head_entry_not_prefetched(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 8)
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        assert fdip.piq_occupancy == 0
        assert fdip.stats.get("candidates") == 0

    def test_non_head_entries_scanned_once(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 8)
        push_entry(ftq, 2, BASE + 0x100, 8)   # one 32B block
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        candidates_after_first = fdip.stats.get("candidates")
        memory.begin_cycle(2)
        fdip.tick(2, ftq)
        assert fdip.stats.get("candidates") == candidates_after_first

    def test_blocks_decomposed(self):
        memory = make_memory()
        fdip = make_fdip(memory, per_cycle=1)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 16)  # spans 2 blocks
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        assert fdip.stats.get("candidates") == 2

    def test_piq_capacity_respected(self):
        memory = make_memory()
        fdip = make_fdip(memory, piq_depth=2, per_cycle=1)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        for i in range(4):
            push_entry(ftq, 2 + i, BASE + 0x1000 * (i + 1), 16)
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        fdip.validate()
        assert fdip.piq_occupancy <= 2


    def test_entry_cut_by_full_piq_rescanned_from_start(self):
        memory = make_memory(ports=2)
        fdip = make_fdip(memory, filter_mode=FilterMode.REMOVE,
                         piq_depth=2, per_cycle=1)
        ftq = FetchTargetQueue(8)
        first = (BASE + 0x100) // 32
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 24)  # three blocks
        memory.begin_cycle(1)
        memory.demand_fetch(0xFFFF, 1)   # keep the bus busy: no issue
        fdip.tick(1, ftq)
        # The PIQ filled on the entry's second block: the entry is not
        # passed.
        assert list(fdip._piq) == [first, first + 1]
        assert ftq.scan_index == 1
        assert fdip.stats.get("candidates") == 2
        # The remove filter frees a slot; the scan restarts the entry at
        # its first block, which is still queued.
        memory.l1i.fill(first + 1)
        memory.begin_cycle(2)
        fdip.tick(2, ftq)
        assert fdip.stats.get("filtered_remove") == 1
        assert fdip.stats.get("duplicate_candidates") == 1
        assert fdip.stats.get("candidates") == 3
        assert list(fdip._piq) == [first, first + 1]
        assert ftq.scan_index == 1


class TestQuiescence:
    def test_empty_queue_and_piq_is_quiescent(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        assert fdip.quiescent(ftq)
        push_entry(ftq, 1, BASE, 4)      # the head is never scanned
        assert fdip.quiescent(ftq)

    def test_unscanned_entry_in_window_is_not_quiescent(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        assert not fdip.quiescent(ftq)

    def test_queued_prefetch_is_not_quiescent(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(1)
        memory.demand_fetch(0xFFFF, 1)   # bus busy: the block waits
        fdip.tick(1, ftq)
        assert ftq.scan_index == 2
        assert fdip.piq_occupancy == 1
        assert not fdip.quiescent(ftq)
        memory.begin_cycle(6)
        fdip.tick(6, ftq)                # issued; nothing left to do
        assert fdip.piq_occupancy == 0
        assert fdip.quiescent(ftq)

    def test_entries_beyond_max_lookahead_leave_it_quiescent(self):
        memory = make_memory()
        config = PrefetchConfig(kind="fdip", filter_mode=FilterMode.NONE,
                                max_lookahead=2)
        fdip = FdipPrefetcher(memory, config)
        memory.sidecar = fdip.sidecar
        ftq = FetchTargetQueue(8)
        for seq in range(1, 5):
            push_entry(ftq, seq, BASE + 0x100 * seq, 8)
        memory.begin_cycle(1)
        fdip.tick(1, ftq)                # scans position 1, issues it
        assert ftq.scan_index == 2
        assert fdip.quiescent(ftq)       # positions 2, 3 wait outside
        ftq.pop_head()                   # position 2 enters the window
        assert not fdip.quiescent(ftq)


class TestIssue:
    def test_issues_to_memory_and_fills_buffer(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        assert fdip.stats.get("issued") == 1
        memory.begin_cycle(100)
        assert fdip.buffer.contains((BASE + 0x100) // 32)

    def test_bus_priority_blocks_issue(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        memory.begin_cycle(1)
        memory.demand_fetch(0xFFFF, 1)    # bus busy until 5
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        fdip.tick(1, ftq)
        assert fdip.stats.get("issued") == 0
        assert fdip.piq_occupancy == 1
        memory.begin_cycle(6)
        fdip.tick(6, ftq)
        assert fdip.stats.get("issued") == 1

    def test_in_flight_duplicates_dropped(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        ftq = FetchTargetQueue(8)
        bid = (BASE + 0x100) // 32
        memory.begin_cycle(1)
        memory.try_issue_prefetch(bid, 1)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(10)
        fdip.tick(10, ftq)
        assert fdip.stats.get("dropped_in_flight") == 1


class TestFiltering:
    def _run_one(self, mode, resident, ports=2):
        memory = make_memory(ports=ports)
        fdip = make_fdip(memory, filter_mode=mode)
        if resident:
            memory.l1i.fill((BASE + 0x100) // 32)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(1)
        fdip.tick(1, ftq)
        return fdip

    def test_no_filtering_issues_redundant(self):
        fdip = self._run_one(FilterMode.NONE, resident=True)
        assert fdip.stats.get("issued") == 1

    def test_enqueue_filter_drops_resident(self):
        fdip = self._run_one(FilterMode.ENQUEUE, resident=True)
        assert fdip.stats.get("filtered_enqueue") == 1
        assert fdip.stats.get("issued") == 0

    def test_enqueue_filter_passes_missing(self):
        fdip = self._run_one(FilterMode.ENQUEUE, resident=False)
        assert fdip.stats.get("issued") == 1

    def test_ideal_filter_free_of_ports(self):
        memory = make_memory(ports=1)
        fdip = make_fdip(memory, filter_mode=FilterMode.IDEAL)
        memory.l1i.fill((BASE + 0x100) // 32)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(1)
        memory.demand_fetch(BASE // 32, 1)    # consumes the only port
        fdip.tick(1, ftq)
        assert fdip.stats.get("filtered_ideal") == 1
        assert fdip.stats.get("issued") == 0

    def test_enqueue_without_port_enqueues_unfiltered(self):
        memory = make_memory(ports=1)
        fdip = make_fdip(memory, filter_mode=FilterMode.ENQUEUE)
        memory.l1i.fill((BASE + 0x100) // 32)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        memory.begin_cycle(1)
        memory.demand_fetch(BASE // 32, 1)    # port gone
        fdip.tick(1, ftq)
        assert fdip.stats.get("enqueued_unfiltered") == 1

    def test_remove_filter_cleans_piq(self):
        memory = make_memory(ports=2)
        fdip = make_fdip(memory, filter_mode=FilterMode.REMOVE, per_cycle=1)
        ftq = FetchTargetQueue(8)
        bid = (BASE + 0x100) // 32
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        push_entry(ftq, 3, BASE + 0x200, 8)
        memory.begin_cycle(1)
        memory.demand_fetch(0xFFFF, 1)   # keep the bus busy: no issue
        fdip.tick(1, ftq)
        assert fdip.piq_occupancy == 2
        # Block becomes resident between enqueue and issue.
        memory.l1i.fill(bid)
        memory.begin_cycle(2)
        memory.bus._busy_until = 100     # still no issue this cycle
        fdip.tick(2, ftq)
        assert fdip.stats.get("filtered_remove") == 1
        assert fdip.piq_occupancy == 1


class TestSquash:
    def test_squash_clears_piq(self):
        memory = make_memory()
        fdip = make_fdip(memory, per_cycle=1)
        ftq = FetchTargetQueue(8)
        push_entry(ftq, 1, BASE, 4)
        push_entry(ftq, 2, BASE + 0x100, 8)
        push_entry(ftq, 3, BASE + 0x200, 8)
        memory.begin_cycle(1)
        memory.demand_fetch(0xFFFF, 1)
        fdip.tick(1, ftq)
        assert fdip.piq_occupancy > 0
        fdip.squash()
        assert fdip.piq_occupancy == 0

    def test_buffer_survives_squash(self):
        memory = make_memory()
        fdip = make_fdip(memory)
        fdip.buffer.insert(42)
        fdip.squash()
        assert fdip.buffer.contains(42)
