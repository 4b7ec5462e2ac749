"""CRC-32C (Castagnoli), TFRecord masking, and a batched numpy kernel.

TFRecord frames each length and data field with a *masked* CRC-32C:

    mask(crc) = ((crc >> 15) | (crc << 17)) + 0xa282ead8   (mod 2**32)

Two implementations share one table:

* :func:`crc32c_reference` — byte at a time.  It is the oracle the kernel
  is tested against, and what :func:`crc32c` runs below 1 KiB, where it
  is the cheaper of the two.
* :func:`crc32c_many` — the CRC of every span of a region in one numpy
  pass, with no per-byte Python loop.  It rests on two facts about the
  CRC register ``R(init, data)``: with a zero init it is linear in the
  data and leading zero bytes leave it unchanged, and the standard
  all-ones init equals a zero init after a fixed four-byte prefix.  So
  each span is copied, after that prefix, right-aligned into a
  zero-padded ``(rows, K·32)`` block.  Each 32-byte chunk's register is a
  column loop of 32 table gathers (``acc ^= POS[j].take(chunk[:, j])``).
  A tree then folds 16 adjacent chunks, then 16 groups, into one register
  per level, with one gather over that level's shift tables; the tables
  come from the one-byte shift by squaring and repeated application, in
  a few milliseconds at import.  Temporaries stay bounded: rows are
  grouped by length into blocks of at most 1 MiB, and a span longer than
  64 KiB is split into 64 KiB pieces chained with the same tables.
  :func:`crc32c` of a buffer of 1 KiB or more runs this kernel.

On a 2-vCPU x86 VM the kernel checks a 32 × 8 KiB batch at about
400 MB/s and a single 64 KiB buffer at about 280 MB/s.  The slicing-by-8
Python loop it replaced ran at about 11 MB/s on the same machine.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x82F63B78  # reflected CRC-32C polynomial
_MASK_DELTA = 0xA282EAD8
_CHUNK = 32  # bytes per chunk of the column loop
_FAN = 16  # chunks (then groups) folded into one register per tree level
_LEVELS = 3  # widths 32 B, 512 B, 8 KiB: enough for rows up to 128 KiB
_SEG = 1 << 16  # 64 KiB: longer spans are split into pieces and chained
_BLOCK_BYTES = 1 << 20  # padded block budget per kernel pass
_MIN_KERNEL = 1024  # below this many bytes the byte loop is cheaper


def _make_table() -> np.ndarray:
    crc = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        crc = (crc >> 1) ^ np.where(crc & 1, np.uint32(_POLY), np.uint32(0))
    return crc


_TABLE_NP = _make_table()
_TABLE = _TABLE_NP.tolist()


def _zero_byte(reg: np.ndarray) -> np.ndarray:
    """Advance zero-init CRC registers over one zero byte."""
    return _TABLE_NP.take(reg & 0xFF) ^ (reg >> 8)


def _shift(table: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Apply a 4×256 shift table: advance ``reg`` over its zero-byte width."""
    return (
        table[0].take(reg & 0xFF)
        ^ table[1].take((reg >> 8) & 0xFF)
        ^ table[2].take((reg >> 16) & 0xFF)
        ^ table[3].take(reg >> 24)
    )


def _make_pos() -> np.ndarray:
    """``POS[j][b]``: zero-init CRC of a chunk whose only nonzero byte is
    ``b`` at position ``j`` — byte ``b`` followed by ``_CHUNK-1-j`` zeros."""
    rows = [_TABLE_NP]
    for _ in range(_CHUNK - 1):
        rows.append(_zero_byte(rows[-1]))
    return np.stack(rows[::-1])


def _make_folds() -> list[np.ndarray]:
    """Per-level fold tables: ``FOLD[l][d, i, b]`` shifts ``b << 8i`` over
    ``d`` units of ``_CHUNK·_FAN**l`` zero bytes.

    The one-byte shift is squared up to ``_CHUNK`` bytes; each level's
    rows are successive powers of its unit shift, and the last row times
    one more unit is the next level's unit.
    """
    identity = np.arange(256, dtype=np.uint32) << (np.arange(4, dtype=np.uint32)[:, None] * 8)
    unit = _zero_byte(identity)
    for _ in range(_CHUNK.bit_length() - 1):
        unit = _shift(unit, unit)
    folds = []
    for _ in range(_LEVELS):
        rows = [identity]
        for _ in range(_FAN - 1):
            rows.append(_shift(unit, rows[-1]))
        folds.append(np.stack(rows))
        unit = _shift(unit, rows[-1])
    return folds


# The four bytes that take a zero register to all ones, so that
# R(0, _INIT_PREFIX + data) == R(0xFFFFFFFF, data): the standard init.
_INIT_PREFIX = np.frombuffer(bytes.fromhex("54641f64"), dtype=np.uint8)
_POS = _make_pos()
_FOLDS = _make_folds()
_SEG_SHIFT = _FOLDS[2][_SEG // (_CHUNK * _FAN * _FAN)]
# Flat fold-table offset of byte i of the register at group position g.
_FOLD_INDEX = (
    (_FAN - 1 - np.arange(_FAN))[:, None] * 1024 + np.arange(4) * 256
).reshape(-1)


def _crc_update_bytewise(data: bytes, crc: int) -> int:
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def crc32c_reference(data: bytes | bytearray | memoryview) -> int:
    """Byte-at-a-time CRC-32C: the oracle the kernel is tested against."""
    return _crc_update_bytewise(bytes(memoryview(data).cast("B")), 0xFFFFFFFF) ^ 0xFFFFFFFF


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C of ``data`` (unmasked)."""
    n = memoryview(data).nbytes
    if n < _MIN_KERNEL:
        return crc32c_reference(data)
    return int(crc32c_many(data, [0], [n])[0])


def _fold(table: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """One tree level: ``(n, k)`` registers → ``(n, ceil(k / _FAN))``."""
    n, k = regs.shape
    groups = -(-k // _FAN)
    padded = np.zeros((n, groups * _FAN), dtype="<u4")
    padded[:, groups * _FAN - k :] = regs  # leading zero units are free
    index = padded.view(np.uint8).reshape(n, groups, _FAN * 4) + _FOLD_INDEX
    return np.bitwise_xor.reduce(table.reshape(-1).take(index), axis=2)


def _registers(
    arr: np.ndarray, starts: np.ndarray, lengths: np.ndarray, prefixed: np.ndarray
) -> np.ndarray:
    """Zero-init CRC register of each span, after :data:`_INIT_PREFIX`
    where ``prefixed`` is set: one right-aligned row per span."""
    n = len(starts)
    width = -(-(int(lengths.max()) + len(_INIT_PREFIX)) // _CHUNK) * _CHUNK
    if n > 1 and n * width > _BLOCK_BYTES:
        # Halve by length until each padded block fits the budget.
        order = np.argsort(lengths, kind="stable")
        regs = np.empty(n, dtype=np.uint32)
        for part in (order[: n // 2], order[n // 2 :]):
            regs[part] = _registers(arr, starts[part], lengths[part], prefixed[part])
        return regs
    block = np.zeros((n, width), dtype=np.uint8)
    pads = width - lengths
    for row, (start, length, pad) in enumerate(
        zip(starts.tolist(), lengths.tolist(), pads.tolist())
    ):
        block[row, pad:] = arr[start : start + length]
    rows = np.flatnonzero(prefixed)
    at = rows * width + pads[rows] - len(_INIT_PREFIX)
    block.reshape(-1)[at[:, None] + np.arange(len(_INIT_PREFIX))] = _INIT_PREFIX
    chunks = block.reshape(-1, _CHUNK)
    acc = _POS[0].take(chunks[:, 0])
    for j in range(1, _CHUNK):
        acc ^= _POS[j].take(chunks[:, j])
    regs = acc.reshape(n, -1)
    for table in _FOLDS:
        if regs.shape[1] == 1:
            break
        regs = _fold(table, regs)
    return regs[:, 0]


def crc32c_many(buf, starts, lengths) -> np.ndarray:
    """CRC-32C of every span ``buf[starts[i] : starts[i] + lengths[i]]``.

    ``buf`` is any contiguous buffer (``bytes``, ``bytearray``, an mmap
    ``memoryview``); returns a ``uint32`` array, one CRC per span, equal
    to :func:`crc32c` of each span.  See the module docstring for the
    kernel; spans may overlap, repeat or be empty.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if starts.shape != lengths.shape:
        raise ValueError(f"{len(starts)} starts but {len(lengths)} lengths")
    if len(starts) and (
        starts.min() < 0 or lengths.min() < 0 or (starts + lengths).max() > len(arr)
    ):
        raise ValueError(f"span outside the {len(arr)}-byte buffer")
    if int(lengths.sum()) < _MIN_KERNEL:
        return np.array(
            [
                crc32c_reference(arr[start : start + length])
                for start, length in zip(starts.tolist(), lengths.tolist())
            ],
            dtype=np.uint32,
        )
    tails = np.maximum(lengths - 1, 0) // _SEG
    if not tails.any():
        crcs = _registers(arr, starts, lengths, np.ones(len(starts), dtype=bool))
        return crcs ^ np.uint32(0xFFFFFFFF)
    # A span longer than _SEG: a prefixed head of 1.._SEG bytes, then
    # ``tails`` whole _SEG pieces, each its own row, chained by shifting.
    pieces = tails + 1
    first = np.cumsum(pieces) - pieces
    owner = np.repeat(np.arange(len(starts)), pieces)
    index = np.arange(len(owner)) - first[owner]
    head = (lengths - tails * _SEG)[owner]
    regs = _registers(
        arr,
        starts[owner] + np.where(index == 0, 0, head + (index - 1) * _SEG),
        np.where(index == 0, head, _SEG),
        index == 0,
    )
    crcs = regs[first]
    for j in range(1, int(tails.max()) + 1):
        chained = np.flatnonzero(tails >= j)
        crcs[chained] = _shift(_SEG_SHIFT, crcs[chained]) ^ regs[first[chained] + j]
    return crcs ^ np.uint32(0xFFFFFFFF)


def _mask(crc):
    return ((crc >> 15) | (crc << 17)) + _MASK_DELTA


def masked_crc32c(data: bytes | bytearray | memoryview) -> int:
    """TFRecord's masked CRC: rotate right 15 and add the mask delta."""
    return _mask(crc32c(data)) & 0xFFFFFFFF


def masked_crc32c_many(buf, starts, lengths) -> np.ndarray:
    """:func:`masked_crc32c` of every span — :func:`crc32c_many`, masked."""
    return _mask(crc32c_many(buf, starts, lengths))


def unmask_crc32c(masked: int) -> int:
    """Inverse of the TFRecord mask (used by validation tooling)."""
    rot = (masked - _MASK_DELTA) & 0xFFFFFFFF
    return ((rot << 15) | (rot >> 17)) & 0xFFFFFFFF
