"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import SyntheticImageNet, SyntheticRecords
from repro.tfrecord.sharder import pack_example, write_shards
from repro.tfrecord.writer import frame_record


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long-running end-to-end chaos scenarios (kill/drop/restart); "
        'deselect with -m "not slow"',
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_imagenet(tmp_path):
    """A tiny sharded ImageNet-like dataset: 24 samples, 8 per shard."""
    gen = SyntheticImageNet(24, seed=7, image_hw=(32, 32), num_classes=10)
    return write_shards(iter(gen), tmp_path / "imagenet", records_per_shard=8)


@pytest.fixture
def small_synthetic(tmp_path):
    """A tiny RAW-record dataset: 12 samples of 4 KiB, 4 per shard."""
    gen = SyntheticRecords(12, sample_bytes=4096, seed=3)
    return write_shards(iter(gen), tmp_path / "synthetic", records_per_shard=4)


@pytest.fixture
def eight_record_region() -> tuple[bytes, list[int]]:
    """Eight framed ``pack_example`` records of unequal sizes, and where
    each one starts in the region."""
    records = [
        frame_record(pack_example(bytes([i]) * (300 + 250 * i), i)) for i in range(8)
    ]
    starts = np.cumsum([0] + [len(r) for r in records[:-1]]).tolist()
    return b"".join(records), starts
