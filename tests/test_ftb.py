"""Fetch target buffer."""

import pytest

from repro.errors import ConfigError
from repro.ftb import FetchTargetBuffer, FTBEntry
from repro.isa import InstrKind


def entry(start, n_instrs=4, target=0x40_8000,
          kind=InstrKind.BRANCH_COND) -> FTBEntry:
    return FTBEntry(start=start, fallthrough=start + 4 * n_instrs,
                    target=target, kind=kind)


class TestFTBEntry:
    def test_terminator_position(self):
        e = entry(0x40_0000, n_instrs=4)
        assert e.terminator_pc == 0x40_000C
        assert e.n_instrs == 4


class TestFetchTargetBuffer:
    def test_miss_then_hit(self):
        ftb = FetchTargetBuffer(sets=16, ways=2)
        assert ftb.lookup(0x40_0000) is None
        ftb.install(entry(0x40_0000))
        hit = ftb.lookup(0x40_0000)
        assert hit is not None
        assert hit.target == 0x40_8000

    def test_update_replaces_in_place(self):
        ftb = FetchTargetBuffer(sets=16, ways=2)
        ftb.install(entry(0x40_0000, target=0x40_8000))
        ftb.install(entry(0x40_0000, target=0x40_9000))
        assert ftb.lookup(0x40_0000).target == 0x40_9000
        assert ftb.resident_entries() == 1

    def test_lru_eviction_order(self):
        ftb = FetchTargetBuffer(sets=1, ways=2)
        a, b, c = 0x40_0000, 0x40_0100, 0x40_0200
        ftb.install(entry(a))
        ftb.install(entry(b))
        ftb.lookup(a)               # refresh a -> b is LRU
        ftb.install(entry(c))       # evicts b
        assert ftb.lookup(a) is not None
        assert ftb.lookup(b) is None
        assert ftb.lookup(c) is not None

    def test_set_isolation(self):
        ftb = FetchTargetBuffer(sets=2, ways=1)
        even = 0x40_0000      # word index even -> set 0
        odd = 0x40_0004       # set 1
        ftb.install(entry(even))
        ftb.install(entry(odd))
        assert ftb.resident_entries() == 2

    def test_capacity(self):
        ftb = FetchTargetBuffer(sets=8, ways=4)
        assert ftb.capacity == 32

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            FetchTargetBuffer(sets=12, ways=2)
        with pytest.raises(ConfigError):
            FetchTargetBuffer(sets=16, ways=0)

    def test_rejects_empty_extent(self):
        ftb = FetchTargetBuffer(sets=16, ways=2)
        bad = FTBEntry(start=0x40_0000, fallthrough=0x40_0000,
                       target=0, kind=InstrKind.JUMP_DIRECT)
        with pytest.raises(ConfigError):
            ftb.install(bad)

    def test_stats(self):
        ftb = FetchTargetBuffer(sets=16, ways=2)
        ftb.lookup(0x40_0000)
        ftb.install(entry(0x40_0000))
        ftb.lookup(0x40_0000)
        assert ftb.stats.get("misses") == 1
        assert ftb.stats.get("hits") == 1
        assert ftb.stats.get("installs") == 1
