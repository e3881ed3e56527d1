"""Binary trace file format.

Layout of a ``.trace.gz`` file (gzip-compressed):

- one UTF-8 JSON header line terminated by ``\\n`` with keys ``magic``,
  ``version``, ``name``, ``seed``, ``count``;
- ``count`` fixed-width records, each ``<QBBQ``: pc (u64), kind (u8),
  taken (u8), next_pc (u64), little endian.

Files are written in one piece at gzip level :data:`COMPRESS_LEVEL`; the
level is not part of the format, so files written at any level read back.

The format is deliberately simple: it round-trips exactly, detects
truncation, and rejects files written by other tools or other versions.
"""

from __future__ import annotations

import gzip
import json
import struct
from pathlib import Path

from repro.errors import TraceError
from repro.isa import InstrKind
from repro.trace.records import TraceRecord
from repro.trace.stream import Trace

__all__ = ["write_trace", "read_trace", "TRACE_MAGIC", "TRACE_VERSION"]

TRACE_MAGIC = "repro-trace"
TRACE_VERSION = 1

COMPRESS_LEVEL = 6
"""gzip level of written traces: files about 5% larger than at level 9
for a tenth of the compression time."""

_RECORD = struct.Struct("<QBBQ")
#: Kind byte -> InstrKind; a byte past the table is a corrupt record.
_KINDS = tuple(InstrKind)


def write_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` (parent directory must exist)."""
    header = {
        "magic": TRACE_MAGIC,
        "version": TRACE_VERSION,
        "name": trace.name,
        "seed": trace.seed,
        "count": len(trace),
    }
    pack = _RECORD.pack
    payload = b"".join([pack(pc, kind, taken, next_pc)
                        for pc, kind, taken, next_pc in trace])
    with gzip.open(path, "wb", compresslevel=COMPRESS_LEVEL) as out:
        out.write(json.dumps(header).encode("utf-8") + b"\n" + payload)


def read_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`write_trace`."""
    path = Path(path)
    try:
        with gzip.open(path, "rb") as inp:
            header_line = inp.readline()
            try:
                header = json.loads(header_line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TraceError(f"{path}: malformed trace header") from exc
            if header.get("magic") != TRACE_MAGIC:
                raise TraceError(f"{path}: not a repro trace file")
            if header.get("version") != TRACE_VERSION:
                raise TraceError(
                    f"{path}: unsupported trace version "
                    f"{header.get('version')!r}")
            count = header.get("count")
            if not isinstance(count, int) or count < 0:
                raise TraceError(
                    f"{path}: malformed trace header: 'count' must be a "
                    f"non-negative integer, got {count!r}")
            name = header.get("name")
            seed = header.get("seed")
            if not isinstance(name, str) or not isinstance(seed, int):
                raise TraceError(
                    f"{path}: malformed trace header: missing or invalid "
                    f"'name'/'seed'")
            payload = inp.read(count * _RECORD.size + 1)
    except OSError as exc:
        # Covers unreadable files and gzip-level corruption (BadGzipFile
        # is an OSError), including payloads truncated mid-member.
        raise TraceError(f"{path}: cannot read trace: {exc}") from exc

    if len(payload) < count * _RECORD.size:
        complete = len(payload) // _RECORD.size
        offset = len(header_line) + complete * _RECORD.size
        raise TraceError(
            f"{path}: truncated trace: header promises {count} records "
            f"but only {complete} are complete; data ends at "
            f"uncompressed byte offset {offset + len(payload) % _RECORD.size} "
            f"(record boundary at {offset})")
    if len(payload) > count * _RECORD.size:
        offset = len(header_line) + count * _RECORD.size
        raise TraceError(
            f"{path}: trailing data after the {count} promised records "
            f"(from uncompressed byte offset {offset})")

    # One record per distinct (pc, kind, taken, next_pc), shared by every
    # position that holds it, as the walker shares block bodies: a
    # 200,000-instruction gcc_like trace holds 8,881 distinct records.
    records: list[TraceRecord] = []
    append = records.append
    distinct: dict[tuple[int, int, int, int], TraceRecord] = {}
    lookup = distinct.get
    try:
        for fields in _RECORD.iter_unpack(payload):
            record = lookup(fields)
            if record is None:
                pc, kind, taken, next_pc = fields
                record = distinct[fields] = TraceRecord(
                    pc, _KINDS[kind], bool(taken), next_pc)
            append(record)
    except IndexError:
        raise TraceError(
            f"{path}: corrupt record payload: a kind byte is not a valid "
            f"InstrKind") from None
    return Trace(records, name=name, seed=seed)
