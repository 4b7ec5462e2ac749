"""TFRecord storage format, implemented from scratch.

The paper stores datasets as large TFRecord shards and assembles batches
from contiguous byte ranges (§2 technique (i), §4.3).  This package provides
a byte-compatible implementation of the TFRecord wire format:

    uint64  length          (little-endian)
    uint32  masked_crc32c(length bytes)
    bytes   data[length]
    uint32  masked_crc32c(data)

plus the surrounding machinery EMLIO's planner needs:

* :mod:`~repro.tfrecord.crc32c` — CRC-32C (Castagnoli): ``crc32c_many``,
  a numpy kernel that checks every record of a batch region in one pass
  (about 400 MB/s on a 32 × 8 KiB batch), plus the byte-wise reference.
* :mod:`~repro.tfrecord.writer` / :mod:`~repro.tfrecord.reader` — shard IO,
  including the mmap-backed contiguous range reads the daemon performs.
* :mod:`~repro.tfrecord.index` — ``mapping_shard_*.json`` offset/size/label
  index files (Algorithm 2 line 1).
* :mod:`~repro.tfrecord.sharder` — convert a raw dataset into TFRecord shards
  and their index files.
"""

from repro.tfrecord.crc32c import crc32c, masked_crc32c
from repro.tfrecord.index import RecordEntry, ShardIndex, load_shard_indexes
from repro.tfrecord.reader import TFRecordReader, read_record_at, scan_records
from repro.tfrecord.sharder import ShardedDataset, write_shards
from repro.tfrecord.writer import TFRecordWriter, frame_record

__all__ = [
    "crc32c",
    "masked_crc32c",
    "RecordEntry",
    "ShardIndex",
    "load_shard_indexes",
    "TFRecordReader",
    "read_record_at",
    "scan_records",
    "ShardedDataset",
    "write_shards",
    "TFRecordWriter",
    "frame_record",
]
