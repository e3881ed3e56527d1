"""Trace records, containers, IO, characterization, and caching."""

import gzip
import json
import struct

import pytest

from repro.errors import TraceError
from repro.isa import INSTRUCTION_BYTES, InstrKind
from repro.trace import (
    Trace,
    TraceCache,
    TraceRecord,
    characterize,
    read_trace,
    write_trace,
)


class TestTraceRecord:
    def test_redirects_iff_nonsequential(self):
        straight = TraceRecord(0x1000, InstrKind.ALU, False, 0x1004)
        assert not straight.redirects
        jumped = TraceRecord(0x1000, InstrKind.JUMP_DIRECT, True, 0x2000)
        assert jumped.redirects

    def test_not_taken_branch_does_not_redirect(self):
        record = TraceRecord(0x1000, InstrKind.BRANCH_COND, False, 0x1004)
        assert not record.redirects
        assert record.is_control

    def test_is_tuple(self):
        record = TraceRecord(0x1000, InstrKind.ALU, False, 0x1004)
        pc, kind, taken, next_pc = record
        assert (pc, kind, taken, next_pc) == (0x1000, InstrKind.ALU,
                                              False, 0x1004)


class TestTraceContainer:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace([])

    def test_indexing_and_iteration(self, tb):
        trace = tb.seq(5).build()
        assert len(trace) == 5
        assert trace[0].pc == 0x40_0000
        assert [r.pc for r in trace] == \
            [0x40_0000 + 4 * i for i in range(5)]

    def test_slice(self, tb):
        trace = tb.seq(10).build()
        part = trace.slice(2, 5)
        assert len(part) == 3
        assert part[0].pc == trace[2].pc

    def test_slice_bounds_checked(self, tb):
        trace = tb.seq(3).build()
        with pytest.raises(TraceError):
            trace.slice(2, 2)
        with pytest.raises(TraceError):
            trace.slice(0, 99)

    def test_from_program(self, small_program):
        trace = Trace.from_program(small_program, 100, seed=1)
        assert len(trace) == 100
        assert trace.name == small_program.name


class TestTraceIO:
    def test_roundtrip(self, tmp_path, small_trace):
        path = tmp_path / "t.trace.gz"
        write_trace(small_trace, path)
        loaded = read_trace(path)
        assert loaded.name == small_trace.name
        assert loaded.seed == small_trace.seed
        assert loaded.records == small_trace.records

    def test_kind_preserved_exactly(self, tmp_path, tb):
        trace = tb.seq(1).call(0x40_1000).ret(0x40_0008).build()
        path = tmp_path / "t.trace.gz"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert [r.kind for r in loaded] == [r.kind for r in trace]
        assert isinstance(loaded[1].kind, InstrKind)

    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.trace.gz"
        with gzip.open(path, "wb") as out:
            out.write(b'{"magic": "something-else"}\n')
        with pytest.raises(TraceError):
            read_trace(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.trace.gz"
        with gzip.open(path, "wb") as out:
            out.write(b"\xff\xfe not json\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_rejects_truncation(self, tmp_path, small_trace):
        path = tmp_path / "t.trace.gz"
        write_trace(small_trace, path)
        payload = gzip.decompress(path.read_bytes())
        with gzip.open(path, "wb") as out:
            out.write(payload[:len(payload) - 10])
        with pytest.raises(TraceError):
            read_trace(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            read_trace(tmp_path / "absent.trace.gz")

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        with gzip.open(path, "wb") as out:
            out.write(b'{"magic": "repro-trace", "version": 99, '
                      b'"name": "x", "seed": 0, "count": 0}\n')
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncation_error_reports_byte_offset(self, tmp_path,
                                                  small_trace):
        path = tmp_path / "t.trace.gz"
        write_trace(small_trace, path)
        payload = gzip.decompress(path.read_bytes())
        header_line, _, records = payload.partition(b"\n")
        # Keep 3 complete records plus half of a fourth.
        cut = len(header_line) + 1 + 3 * 18 + 9
        with gzip.open(path, "wb") as out:
            out.write(payload[:cut])
        with pytest.raises(TraceError) as info:
            read_trace(path)
        message = str(info.value)
        assert "only 3 are complete" in message
        assert f"record boundary at {len(header_line) + 1 + 3 * 18}" \
            in message

    def test_rejects_trailing_data(self, tmp_path, small_trace):
        path = tmp_path / "t.trace.gz"
        write_trace(small_trace, path)
        payload = gzip.decompress(path.read_bytes())
        with gzip.open(path, "wb") as out:
            out.write(payload + b"\x00" * 18)
        with pytest.raises(TraceError, match="trailing data"):
            read_trace(path)

    def test_rejects_invalid_count(self, tmp_path):
        path = tmp_path / "t.trace.gz"
        with gzip.open(path, "wb") as out:
            out.write(b'{"magic": "repro-trace", "version": 1, '
                      b'"name": "x", "seed": 0, "count": -3}\n')
        with pytest.raises(TraceError, match="count"):
            read_trace(path)

    def test_rejects_corrupt_record_payload(self, tmp_path, small_trace):
        path = tmp_path / "t.trace.gz"
        write_trace(small_trace, path)
        clean = gzip.decompress(path.read_bytes())
        kind_at = clean.index(b"\n") + 1 + 8
        # Overwrite the first record's kind byte with a non-kind value:
        # one past the last kind, an arbitrary one and the largest.
        for bad in (max(InstrKind) + 1, 0xEE, 0xFF):
            payload = bytearray(clean)
            payload[kind_at] = bad
            with gzip.open(path, "wb") as out:
                out.write(bytes(payload))
            with pytest.raises(TraceError, match="corrupt record payload"):
                read_trace(path)

    def test_reads_file_written_record_by_record(self, tmp_path,
                                                 small_trace):
        # Cache files already on disk were written with one gzip write
        # per record at compression level 9; they must stay readable.
        path = tmp_path / "t.trace.gz"
        header = {"magic": "repro-trace", "version": 1,
                  "name": small_trace.name, "seed": small_trace.seed,
                  "count": len(small_trace)}
        record = struct.Struct("<QBBQ")
        with gzip.open(path, "wb", compresslevel=9) as out:
            out.write(json.dumps(header).encode("utf-8"))
            out.write(b"\n")
            for r in small_trace:
                out.write(record.pack(r.pc, int(r.kind), int(r.taken),
                                      r.next_pc))
        loaded = read_trace(path)
        assert loaded.records == small_trace.records
        assert (loaded.name, loaded.seed) == (small_trace.name,
                                              small_trace.seed)


class TestCharacterize:
    def test_counts_and_fractions(self, tb):
        trace = (tb.seq(3)
                   .branch(0x40_0000, taken=True)
                   .seq(2)
                   .branch(0x40_1000, taken=False)
                   .build())
        stats = characterize(trace)
        assert stats.n_records == 7
        assert stats.control_fraction == pytest.approx(2 / 7)
        assert stats.taken_fraction == pytest.approx(1 / 2)

    def test_footprint(self, tb):
        trace = tb.seq(16).build()  # 64 bytes = 2 x 32B blocks
        stats = characterize(trace, block_bytes=32)
        assert stats.distinct_pcs == 16
        assert stats.footprint_bytes == 64
        assert stats.distinct_blocks == 2

    def test_offset_bits_histogram(self, tb):
        # Backward taken branch to itself-ish: distance 3 instrs back.
        trace = tb.seq(3).branch(0x40_0000, taken=True).seq(1).build()
        stats = characterize(trace)
        # distance = -3 instructions -> 2 bits
        assert dict(stats.offset_bits.items()) == {2: 1}

    def test_mix_fraction(self, tb):
        trace = tb.seq(2, InstrKind.LOAD).seq(2, InstrKind.ALU).build()
        stats = characterize(trace)
        assert stats.mix_fraction(InstrKind.LOAD) == pytest.approx(0.5)
        assert stats.mix_fraction(InstrKind.STORE) == 0.0

    def test_repeated_block_counted_once(self, tb):
        trace = (tb.seq(2).jump(0x40_0000).seq(2).jump(0x40_0000)
                 .seq(1).build())
        stats = characterize(trace)
        assert stats.distinct_pcs == 3


class TestTraceCache:
    def test_build_then_hit(self, tmp_path, tiny_trace):
        cache = TraceCache(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return tiny_trace

        first = cache.get_or_build("key1", builder)
        second = cache.get_or_build("key1", builder)
        assert len(calls) == 1
        assert first.records == second.records

    def test_different_keys_different_files(self, tmp_path, tiny_trace):
        cache = TraceCache(tmp_path)
        cache.get_or_build("a", lambda: tiny_trace)
        cache.get_or_build("b", lambda: tiny_trace)
        assert len(list(tmp_path.glob("*.trace.gz"))) == 2

    def test_corrupt_entry_rebuilt(self, tmp_path, tiny_trace):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", lambda: tiny_trace)
        victim = next(tmp_path.glob("*.trace.gz"))
        victim.write_bytes(b"garbage")
        rebuilt = cache.get_or_build("k", lambda: tiny_trace)
        assert rebuilt.records == tiny_trace.records

    def test_clear(self, tmp_path, tiny_trace):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", lambda: tiny_trace)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "env"))
        from repro.trace import default_cache_dir
        assert default_cache_dir() == tmp_path / "env"


def test_record_sizes_match_io_constant(tb):
    """Every InstrKind value must survive the u8 encoding."""
    assert max(int(k) for k in InstrKind) < 256
    assert INSTRUCTION_BYTES == 4
