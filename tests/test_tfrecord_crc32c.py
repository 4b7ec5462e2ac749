"""Tests for CRC-32C: known vectors, the batched kernel vs reference, masking."""

import mmap
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfrecord.crc32c import (
    crc32c,
    crc32c_many,
    crc32c_reference,
    masked_crc32c,
    masked_crc32c_many,
    unmask_crc32c,
)

# Known CRC-32C vectors (RFC 3720 / common test suite values).
KNOWN = [
    (b"", 0x00000000),
    (b"a", 0xC1D04330),
    (b"abc", 0x364B3FB7),
    (b"123456789", 0xE3069283),
    (b"\x00" * 32, 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
]


@pytest.mark.parametrize("data,expected", KNOWN)
def test_known_vectors(data, expected):
    assert crc32c(data) == expected
    assert crc32c_reference(data) == expected


def test_known_vectors_through_the_batch_api():
    # The 2 KiB filler span puts the batch over the byte-loop threshold,
    # so the short vectors go through the kernel too.
    filler = bytes(range(256)) * 8
    vectors = KNOWN + [(filler, crc32c_reference(filler))]
    region = b"".join(data for data, _ in vectors)
    lengths = [len(data) for data, _ in vectors]
    starts = np.cumsum([0] + lengths[:-1])
    got = crc32c_many(region, starts, lengths)
    assert got.dtype == np.uint32
    assert got.tolist() == [expected for _, expected in vectors]


def test_fast_path_matches_reference_across_sizes():
    # Cover the byte loop (<1024), the threshold, and the kernel at several
    # chunk remainders.
    data = bytes((i * 131 + 17) % 256 for i in range(5000))
    for n in [0, 1, 7, 8, 9, 1023, 1024, 1025, 4096, 4097, 4999, 5000]:
        assert crc32c(data[:n]) == crc32c_reference(data[:n]), n


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_property_fast_equals_reference(data):
    assert crc32c(data) == crc32c_reference(data)


_SPANS = st.lists(
    st.tuples(st.integers(0, 600), st.sampled_from([0, 1, 2, 3, 4, 5, 31, 33, 200, 1500])),
    max_size=12,
)


def _spans(data, spans):
    starts = [min(start, len(data)) for start, _ in spans]
    lengths = [min(length, len(data) - start) for start, (_, length) in zip(starts, spans)]
    return starts, lengths


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=2500), _SPANS)
def test_property_batch_equals_reference_per_span(data, spans):
    starts, lengths = _spans(data, spans)
    expected = [crc32c_reference(data[s : s + n]) for s, n in zip(starts, lengths)]
    assert crc32c_many(data, starts, lengths).tolist() == expected
    masked = [masked_crc32c(data[s : s + n]) for s, n in zip(starts, lengths)]
    assert masked_crc32c_many(data, starts, lengths).tolist() == masked


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=2500), _SPANS)
def test_property_batch_over_an_mmap_view(data, spans):
    starts, lengths = _spans(data, spans)
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.flush()
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            view = memoryview(mm)
            got = crc32c_many(view, starts, lengths).tolist()
            view.release()
    assert got == [crc32c_reference(data[s : s + n]) for s, n in zip(starts, lengths)]


def test_batch_splits_long_spans_and_bounds_blocks():
    # Spans around the 64 KiB piece size (split and chained), one spanning
    # several pieces, and enough rows to need more than one padded block.
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
    lengths = [65535, 65536, 65539, 65540, 65541, 200_003, 4] + [40_000] * 30
    starts = [int(s) for s in rng.integers(0, len(data) - 200_003, len(lengths))]
    expected = [crc32c_reference(data[s : s + n]) for s, n in zip(starts, lengths)]
    assert crc32c_many(data, starts, lengths).tolist() == expected


def test_batch_rejects_spans_outside_the_buffer():
    with pytest.raises(ValueError, match="outside"):
        crc32c_many(b"abcd", [2], [3])
    with pytest.raises(ValueError, match="outside"):
        crc32c_many(b"abcd", [-1], [1])
    with pytest.raises(ValueError, match="lengths"):
        crc32c_many(b"abcd", [0, 1], [1])


def test_crc_detects_single_bit_flip():
    data = bytearray(b"The quick brown fox jumps over the lazy dog" * 50)
    original = crc32c(bytes(data))
    data[100] ^= 0x01
    assert crc32c(bytes(data)) != original


def test_masking_roundtrip():
    for data, _ in KNOWN:
        masked = masked_crc32c(data)
        assert unmask_crc32c(masked) == crc32c(data)


def test_mask_values_are_32bit():
    assert 0 <= masked_crc32c(b"x" * 100) <= 0xFFFFFFFF


def test_known_tfrecord_masked_crc():
    # masked crc of an 8-byte little-endian length field for length 3.
    import struct

    length_bytes = struct.pack("<Q", 3)
    crc = crc32c(length_bytes)
    expected_mask = (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & 0xFFFFFFFF
    assert masked_crc32c(length_bytes) == expected_mask


def test_memoryview_and_bytearray_inputs():
    data = b"hello world" * 200
    assert crc32c(memoryview(data)) == crc32c(data)
    assert crc32c(bytearray(data)) == crc32c(data)
