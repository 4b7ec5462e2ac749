"""TFRecord shard reader with mmap-backed contiguous range reads.

The EMLIO daemon's key access pattern (paper §4.3) is: mmap the shard, then
grab a contiguous block of ``B`` records in one slice — no per-record read
syscalls.  :meth:`TFRecordReader.read_range` implements exactly that; the
sequential :func:`scan_records` iterator and random-access
:func:`read_record_at` cover the baseline loaders and tooling.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from types import TracebackType
from typing import Iterator

from repro.tfrecord.crc32c import masked_crc32c, masked_crc32c_many
from repro.tfrecord.writer import FOOTER_BYTES, HEADER_BYTES

_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")


class TFRecordCorruption(ValueError):
    """Raised when a record's length or data CRC does not verify.

    ``offset`` is where the bad record starts in the walked buffer.
    """

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message)
        self.offset = offset


def walk_records(
    buf, count: int | None = None, verify: bool = True, start: int = 0
) -> tuple[list[int], list[int], int]:
    """Frame ``count`` records from ``start`` (or every record to the end).

    Returns ``(data_starts, data_lengths, next_offset)``.  A cheap framing
    pass checks each header — its length CRC inline, then the bounds —
    and then one :func:`masked_crc32c_many` pass checks every data CRC.
    Errors keep the order of a record-by-record walk: the first bad record
    is the one named, and a framing error after it waits for the data
    CRCs of the records before it.
    """
    end = len(buf)
    starts: list[int] = []
    lengths: list[int] = []
    stored: list[int] = []
    failure = None
    pos = start
    while (pos < end) if count is None else (len(starts) < count):
        if pos + HEADER_BYTES > end:
            failure = TFRecordCorruption(f"truncated header at offset {pos}", pos)
            break
        (length,) = _LEN.unpack_from(buf, pos)
        if verify and masked_crc32c(buf[pos : pos + 8]) != _CRC.unpack_from(buf, pos + 8)[0]:
            failure = TFRecordCorruption(f"length CRC mismatch at offset {pos}", pos)
            break
        data_start = pos + HEADER_BYTES
        data_end = data_start + length
        if data_end + FOOTER_BYTES > end:
            failure = TFRecordCorruption(f"truncated record body at offset {pos}", pos)
            break
        starts.append(data_start)
        lengths.append(length)
        if verify:
            stored.append(_CRC.unpack_from(buf, data_end)[0])
        pos = data_end + FOOTER_BYTES
    if stored:
        crcs = masked_crc32c_many(buf, starts, lengths).tolist()
        if crcs != stored:
            at = next(s for s, a, b in zip(starts, crcs, stored) if a != b) - HEADER_BYTES
            raise TFRecordCorruption(f"data CRC mismatch at offset {at}", at)
    if failure is not None:
        raise failure
    return starts, lengths, pos


def _parse_record(buf: memoryview, offset: int, verify: bool) -> tuple[bytes, int]:
    """Parse one record at ``offset``; return ``(data, next_offset)``."""
    (start,), (length,), next_offset = walk_records(buf, 1, verify, offset)
    return bytes(buf[start : start + length]), next_offset


class TFRecordReader:
    """mmap-backed random/sequential/range access to one shard file.

    ``verify`` controls CRC checking: ``True`` verifies each record on
    every read, ``False`` never does, and ``"open"`` walks the whole shard
    once at construction (fail-fast on corruption, while the open cost
    sits at attach time) and then serves reads without re-verification —
    the daemon's hot-path mode, where per-record CRC work would otherwise
    dominate the mmap-slice serve loop.
    """

    def __init__(self, path: str | Path, verify: bool | str = True) -> None:
        self.path = Path(path)
        self.verify = bool(verify) and verify != "open"
        self._fh = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # empty file cannot be mmap'ed
            self._mm = None
        self._view = memoryview(self._mm) if self._mm is not None else memoryview(b"")
        if verify == "open":
            try:
                walk_records(self._view)
            except TFRecordCorruption:
                self.close()
                raise

    @property
    def nbytes(self) -> int:
        """Size in bytes."""
        return len(self._view)

    def read_at(self, offset: int) -> bytes:
        """Read and verify the single record starting at ``offset``."""
        data, _next = _parse_record(self._view, offset, self.verify)
        return data

    def read_range(self, offset: int, count: int) -> list[bytes]:
        """Read ``count`` consecutive records starting at ``offset``.

        This is the daemon's one-slice batch read: a single contiguous
        traversal of the mapped region, no per-record syscalls.
        """
        return [bytes(view) for view in self.read_range_views(offset, count)]

    def read_range_views(self, offset: int, count: int) -> list[memoryview]:
        """Zero-copy :meth:`read_range`: record views over the mmap'ed shard.

        CRCs are still verified (against the views, no copies).  The views
        stay valid until :meth:`close`; the daemon keeps readers open for
        its lifetime, so batches sliced here can go straight to the wire.
        """
        starts, lengths, _end = walk_records(self._view, count, self.verify, offset)
        return [self._view[s : s + n] for s, n in zip(starts, lengths)]

    def raw_slice(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy view of ``nbytes`` of the mapped file (transfer path)."""
        if offset + nbytes > len(self._view):
            raise ValueError(
                f"slice [{offset}, {offset + nbytes}) beyond shard end {len(self._view)}"
            )
        return self._view[offset : offset + nbytes]

    def __iter__(self) -> Iterator[bytes]:
        pos = 0
        while pos < len(self._view):
            data, pos = _parse_record(self._view, pos, self.verify)
            yield data

    def close(self) -> None:
        """Release resources."""
        self._view.release()
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Record views from read_range_views are still exported
                # somewhere (e.g. an uncredited transport replay buffer).
                # Leave the map for the GC instead of crashing teardown.
                pass
        self._fh.close()

    def __enter__(self) -> "TFRecordReader":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def scan_records(path: str | Path, verify: bool = True) -> Iterator[bytes]:
    """Stream every record in a shard (sequential scan)."""
    with TFRecordReader(path, verify=verify) as reader:
        yield from reader


def read_record_at(path: str | Path, offset: int, verify: bool = True) -> bytes:
    """One-shot random record read (the small-read pattern EMLIO avoids)."""
    with TFRecordReader(path, verify=verify) as reader:
        return reader.read_at(offset)
