"""Fetch target queue behaviour."""

import pytest

from repro.config import CacheGeometry, MemoryConfig, PrefetchConfig
from repro.errors import SimulationError
from repro.frontend import FetchTargetQueue, FTQEntry
from repro.memory import MemorySystem
from repro.prefetch import FdipPrefetcher


def entry(seq, start=0x40_0000, n=4, wrong_path=False, **kw) -> FTQEntry:
    return FTQEntry(seq=seq, start=start, end=start + 4 * n,
                    predicted_next=start + 4 * n, wrong_path=wrong_path,
                    **kw)


class TestFtqBasics:
    def test_fifo_order(self):
        ftq = FetchTargetQueue(4)
        ftq.push(entry(1))
        ftq.push(entry(2, start=0x40_1000))
        assert ftq.head().seq == 1
        assert ftq.pop_head().seq == 1
        assert ftq.head().seq == 2

    def test_full_and_empty(self):
        ftq = FetchTargetQueue(2)
        assert ftq.empty
        ftq.push(entry(1))
        ftq.push(entry(2))
        assert ftq.full
        with pytest.raises(SimulationError):
            ftq.push(entry(3))

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            FetchTargetQueue(2).pop_head()

    def test_clear_requires_wrong_path_only(self):
        ftq = FetchTargetQueue(4)
        ftq.push(entry(1, wrong_path=True))
        ftq.push(entry(2, wrong_path=True))
        assert ftq.clear() == 2
        assert ftq.empty

    def test_clear_with_correct_path_entry_is_a_bug(self):
        ftq = FetchTargetQueue(4)
        ftq.push(entry(1))
        with pytest.raises(SimulationError):
            ftq.clear()

    def test_depth_validated(self):
        with pytest.raises(SimulationError):
            FetchTargetQueue(0)


def scanning_fdip(**kw) -> FdipPrefetcher:
    """An unfiltered FDIP engine over 32-byte blocks whose issue stage
    stays blocked, so the PIQ shows exactly what the scan enqueued."""
    memory = MemorySystem(MemoryConfig(
        icache=CacheGeometry(size_bytes=1024, assoc=2, block_bytes=32),
        l2=CacheGeometry(size_bytes=64 * 1024, assoc=4, block_bytes=32)))
    fdip = FdipPrefetcher(memory, PrefetchConfig(
        kind="fdip", filter_mode="none", **kw))
    memory.sidecar = fdip.sidecar
    memory.begin_cycle(1)
    memory.demand_fetch(0xFFFF, 1)      # the bus is busy: nothing issues
    return fdip


def block_of(seq: int) -> int:
    return (0x40_0000 + 0x100 * seq) // 32


def push_blocks(ftq, *seqs):
    """One single-block entry per ``seq``, each in its own block."""
    for seq in seqs:
        ftq.push(entry(seq, start=0x40_0000 + 0x100 * seq))


class TestScanCursor:
    def test_scan_skips_head(self):
        ftq = FetchTargetQueue(4)
        push_blocks(ftq, 1, 2, 3)
        assert ftq.scan_index == 0
        fdip = scanning_fdip()
        fdip.tick(1, ftq)
        assert list(fdip._piq) == [block_of(2), block_of(3)]
        assert ftq.scan_index == 3

    def test_scan_resumes_at_cursor(self):
        ftq = FetchTargetQueue(4)
        push_blocks(ftq, 1, 2, 3)
        ftq.scan_index = 2               # entry 2 was scanned earlier
        fdip = scanning_fdip()
        fdip.tick(1, ftq)
        assert list(fdip._piq) == [block_of(3)]
        assert fdip.stats.get("candidates") == 1
        assert ftq.scan_index == 3

    def test_pop_head_decrements_cursor(self):
        ftq = FetchTargetQueue(4)
        push_blocks(ftq, 1, 2, 3)
        ftq.scan_index = 2
        ftq.pop_head()
        assert ftq.scan_index == 1
        ftq.pop_head()
        assert ftq.scan_index == 0
        ftq.pop_head()
        assert ftq.scan_index == 0

    def test_clear_zeroes_cursor(self):
        ftq = FetchTargetQueue(4)
        for seq in (1, 2, 3):
            ftq.push(entry(seq, start=0x40_0000 + 0x100 * seq,
                           wrong_path=True))
        ftq.scan_index = 3
        ftq.clear()
        assert ftq.scan_index == 0

    def test_push_leaves_cursor(self):
        ftq = FetchTargetQueue(4)
        push_blocks(ftq, 1, 2)
        ftq.scan_index = 2
        push_blocks(ftq, 3)
        assert ftq.scan_index == 2

    def test_entries_below_min_lookahead_never_scanned(self):
        ftq = FetchTargetQueue(6)
        fdip = scanning_fdip(min_lookahead=3)
        push_blocks(ftq, 1, 2, 3, 4)
        fdip.tick(1, ftq)
        assert list(fdip._piq) == [block_of(4)]
        assert ftq.scan_index == 4
        # Entries 2 and 3 sat at positions 1 and 2; popping the head
        # only moves them further down, so no later tick reaches them.
        for seq in (5, 6, 7):
            ftq.pop_head()
            push_blocks(ftq, seq)
            fdip.tick(1, ftq)
        assert list(fdip._piq) == [block_of(seq) for seq in (4, 5, 6, 7)]
        assert fdip.stats.get("candidates") == 4


class TestFtqEntry:
    def test_instruction_count(self):
        e = entry(1, n=6)
        assert e.n_instrs == 6

    def test_fetch_progress(self):
        e = entry(1, n=4)
        assert not e.fully_fetched
        assert e.next_fetch_pc == e.start
        e.fetch_offset = 16
        assert e.fully_fetched

    def test_repr_tags(self):
        assert "[W]" in repr(entry(1, wrong_path=True))
        e = entry(2)
        e.mispredict = True
        assert "[M]" in repr(e)
