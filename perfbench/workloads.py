"""The benchmark's workloads: seeded datasets, deployment specs, output checks.

Every workload runs one consumer, ``streams_per_node = 2``,
``daemon_threads = 1`` and ``workers = 1``.  The dataset is generated from
the run's seed before anything is deployed and handed to
``EMLIO.deploy(spec, dataset=...)``, so the program sees only built shards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.api import (
    ClusterSpec,
    EnergySpec,
    NetworkSpec,
    PipelineSpec,
    ReceiverSpec,
    StorageSpec,
)
from repro.data.datasets import build_dataset
from repro.data.text import SyntheticTokenDataset, tokens_decode
from repro.tfrecord.reader import TFRecordReader
from repro.tfrecord.sharder import ShardedDataset, unpack_example, write_shards

CONTEXT_LEN = 2048  # tokens per record: 8 KB of uint32 ids
# A wait this long for one batch, when batches take well under a second,
# is a stall: the epoch fails instead of hanging the run.
STALL_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    """One input set: dataset geometry and deployment shape."""

    name: str
    kind: str  # "image" or "tokens"
    samples: int
    records_per_shard: int
    batch_size: int
    network: NetworkSpec
    storage: StorageSpec = StorageSpec()
    output_hw: tuple[int, int] = (64, 64)  # image workloads only
    image_hw: tuple[int, int] = (0, 0)
    num_classes: int = 0

    def spec(self, seed: int) -> ClusterSpec:
        return ClusterSpec(
            name=f"perfbench-{self.name}",
            pipeline=PipelineSpec(
                batch_size=self.batch_size,
                output_hw=self.output_hw,
                codec="tokens" if self.kind == "tokens" else "auto",
                streams_per_node=2,
                daemon_threads=1,
                workers=1,
                seed=seed,
            ),
            storage=self.storage,
            network=self.network,
            receivers=ReceiverSpec(num_nodes=1, stall_timeout_s=STALL_TIMEOUT_S),
            energy=EnergySpec(enabled=True),
        )

    def build(self, root: Path, seed: int) -> ShardedDataset:
        if self.kind == "tokens":
            gen = SyntheticTokenDataset(self.samples, context_len=CONTEXT_LEN, seed=seed)
            return write_shards(iter(gen), root, records_per_shard=self.records_per_shard)
        return build_dataset(
            "imagenet", self.samples, root, seed=seed,
            records_per_shard=self.records_per_shard,
            image_hw=self.image_hw, num_classes=self.num_classes,
        )


IMAGE_LAN = Workload(
    name="image-lan",
    kind="image",
    samples=384,
    records_per_shard=64,
    batch_size=16,
    network=NetworkSpec(rtt_ms=0.05, transport="tcp"),
    output_hw=(112, 112),
    image_hw=(128, 128),
    num_classes=100,
)
TOKENS_WAN = Workload(
    name="tokens-wan",
    kind="tokens",
    samples=2048,
    records_per_shard=128,
    batch_size=32,
    network=NetworkSpec(profile="wan-30ms", transport="tcp"),
)
OBJSTORE_SHM = Workload(
    name="objstore-shm",
    kind="image",
    samples=1024,
    records_per_shard=64,
    batch_size=8,
    network=NetworkSpec(transport="auto"),
    storage=StorageSpec(backend="objectstore", latency_ms=2.0, cache_bytes=1 << 20),
    output_hw=(32, 32),
    image_hw=(32, 32),
    num_classes=10,
)
WORKLOADS = {
    w.name: w
    for w in (
        IMAGE_LAN,
        TOKENS_WAN,
        OBJSTORE_SHM,
        # The two TCP workloads over the shared-memory ring: same data and
        # pipeline, no TCP receive path (README, "The receive-buffer defect").
        replace(IMAGE_LAN, name="image-shm", network=NetworkSpec(transport="shm")),
        replace(TOKENS_WAN, name="tokens-shm", network=NetworkSpec(transport="shm")),
    )
}


def _row_digest(row) -> int:
    # The built-in hash never releases the GIL, unlike hashlib on large
    # buffers: a per-row GIL hand-off would make the consumer's check part
    # of the daemon threads' scheduling.
    return hash(row.tobytes())


class Expected:
    """What one epoch must deliver, read straight from the built shards."""

    def __init__(self, workload: Workload, dataset: ShardedDataset) -> None:
        self.workload = workload
        self.labels = Counter(
            label for labels in dataset.labels().values() for label in labels
        )
        self.rows: Counter | None = None
        if workload.kind == "tokens":
            self.rows = Counter()
            for ix in dataset.indexes:
                with TFRecordReader(dataset.shard_path(ix.shard)) as reader:
                    for record in reader:
                        sample, _label = unpack_example(record)
                        tokens = tokens_decode(sample).astype(np.int64)
                        self.rows[_row_digest(tokens)] += 1

    def epoch(self) -> "EpochCheck":
        """A fresh check for one epoch."""
        return EpochCheck(self)


class EpochCheck:
    """Checks one epoch's batches against :class:`Expected`.

    A batch fails when its shape, dtype or values are wrong, or when it
    carries a label (or token row) the epoch has already delivered as
    often as the dataset holds it.  :meth:`missing_samples` counts what never came.
    """

    def __init__(self, expected: Expected) -> None:
        self.workload = expected.workload
        self.labels = expected.labels.copy()
        self.rows = expected.rows.copy() if expected.rows is not None else None
        self.ok = 0
        self.wrong = 0

    def _take(self, remaining: Counter, items) -> bool:
        fine = True
        for item in items:
            if remaining[item] <= 0:
                fine = False
            remaining[item] -= 1
        return fine

    def batch(self, tensors: np.ndarray, labels: np.ndarray) -> bool:
        w = self.workload
        n = len(labels)
        fine = labels.dtype == np.int64 and 1 <= n <= w.batch_size
        if w.kind == "tokens":
            fine = fine and tensors.dtype == np.int64 and tensors.shape == (n, CONTEXT_LEN)
            if fine:
                fine = self._take(self.rows, (_row_digest(row) for row in tensors))
        else:
            fine = (
                fine
                and tensors.dtype == np.float32
                and tensors.shape == (n, 3, *w.output_hw)
                and bool(np.isfinite(tensors).all())
            )
        fine = self._take(self.labels, labels.tolist()) and fine
        if fine:
            self.ok += 1
        else:
            self.wrong += 1
        return fine

    def missing_samples(self) -> int:
        """Samples the epoch still owes (a positive count per label left)."""
        return sum(c for c in self.labels.values() if c > 0)
