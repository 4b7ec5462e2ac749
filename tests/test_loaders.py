"""Tests for the PyTorch-style and DALI-style baseline loaders."""

import numpy as np
import pytest

from repro.loaders.base import epoch_sample_order
from repro.loaders.dali_loader import DALIStyleLoader
from repro.loaders.pytorch_loader import PyTorchStyleLoader
from repro.storage.backend import LocalFSBackend
from repro.storage.nfs import NFSMount
from repro.storage.server import StorageServer


@pytest.fixture
def local_storage(small_imagenet):
    return LocalFSBackend(small_imagenet.root)


def expected_labels(ds):
    return sorted(l for labels in ds.labels().values() for l in labels)


# -- sample order -----------------------------------------------------------------


def test_epoch_sample_order_is_permutation(small_imagenet):
    order = epoch_sample_order(small_imagenet, 0, seed=1)
    assert len(order) == small_imagenet.num_samples
    assert len({(ix.shard, r) for ix, r in order}) == small_imagenet.num_samples


def test_epoch_sample_order_varies_by_epoch(small_imagenet):
    o0 = [(ix.shard, r) for ix, r in epoch_sample_order(small_imagenet, 0, seed=1)]
    o1 = [(ix.shard, r) for ix, r in epoch_sample_order(small_imagenet, 1, seed=1)]
    assert o0 != o1


# -- PyTorch-style -----------------------------------------------------------------


def test_pytorch_loader_full_epoch(small_imagenet, local_storage):
    loader = PyTorchStyleLoader(
        small_imagenet, local_storage, batch_size=4, num_workers=2, output_hw=(16, 16)
    )
    batches = list(loader.epoch())
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples
    got = sorted(int(l) for _t, labels in batches for l in labels)
    assert got == expected_labels(small_imagenet)
    for tensors, _l in batches:
        assert tensors.shape[1:] == (3, 16, 16)


def test_pytorch_loader_per_sample_reads(small_imagenet, local_storage):
    """The defining baseline property: one read op per sample."""
    loader = PyTorchStyleLoader(
        small_imagenet, local_storage, batch_size=4, num_workers=2, output_hw=(16, 16)
    )
    list(loader.epoch())
    assert loader.stats.read_ops == small_imagenet.num_samples


def test_pytorch_loader_drop_last(small_imagenet, local_storage):
    loader = PyTorchStyleLoader(
        small_imagenet, local_storage, batch_size=5, num_workers=2,
        output_hw=(16, 16), drop_last=True,
    )
    batches = list(loader.epoch())
    assert all(len(l) == 5 for _t, l in batches)
    assert sum(len(l) for _t, l in batches) == (small_imagenet.num_samples // 5) * 5


def test_pytorch_loader_deterministic_order(small_imagenet, local_storage):
    def labels_of(run):
        return [tuple(l.tolist()) for _t, l in run]

    l1 = PyTorchStyleLoader(small_imagenet, local_storage, batch_size=4, num_workers=3, output_hw=(16, 16), seed=5)
    l2 = PyTorchStyleLoader(small_imagenet, local_storage, batch_size=4, num_workers=1, output_hw=(16, 16), seed=5)
    assert labels_of(l1.epoch()) == labels_of(l2.epoch())


def test_pytorch_loader_over_nfs(small_imagenet):
    srv = StorageServer(str(small_imagenet.root))
    mount = NFSMount("127.0.0.1", srv.port, pool_size=4)
    loader = PyTorchStyleLoader(small_imagenet, mount, batch_size=4, num_workers=4, output_hw=(16, 16))
    batches = list(loader.epoch())
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples
    assert mount.stats.snapshot()["reads"] == small_imagenet.num_samples
    mount.close()
    srv.close()


def test_pytorch_loader_validation(small_imagenet, local_storage):
    with pytest.raises(ValueError):
        PyTorchStyleLoader(small_imagenet, local_storage, batch_size=0)
    with pytest.raises(ValueError):
        PyTorchStyleLoader(small_imagenet, local_storage, num_workers=0)


# -- DALI-style --------------------------------------------------------------------


def test_dali_loader_full_epoch(small_imagenet, local_storage):
    loader = DALIStyleLoader(
        small_imagenet, local_storage, batch_size=4, read_threads=2, output_hw=(16, 16)
    )
    batches = list(loader.epoch())
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples
    got = sorted(int(l) for _t, labels in batches for l in labels)
    assert got == expected_labels(small_imagenet)


def test_dali_loader_batched_reads(small_imagenet, local_storage):
    """DALI reads per batch (contiguous run), not per sample."""
    loader = DALIStyleLoader(
        small_imagenet, local_storage, batch_size=4, read_threads=1, output_hw=(16, 16)
    )
    list(loader.epoch())
    expected_batches = sum(-(-ix.num_records // 4) for ix in small_imagenet.indexes)
    assert loader.stats.read_ops == expected_batches
    assert loader.stats.read_ops < small_imagenet.num_samples


def test_dali_loader_gpu_offload_accounted(small_imagenet, local_storage):
    loader = DALIStyleLoader(small_imagenet, local_storage, batch_size=4, output_hw=(16, 16))
    list(loader.epoch())
    snap = loader.gpu.snapshot()
    assert snap["kernels_run"] > 0
    assert snap["busy_s"] > 0


def test_dali_loader_over_nfs(small_imagenet):
    srv = StorageServer(str(small_imagenet.root))
    mount = NFSMount("127.0.0.1", srv.port, pool_size=2)
    loader = DALIStyleLoader(small_imagenet, mount, batch_size=4, read_threads=2, output_hw=(16, 16))
    batches = list(loader.epoch())
    assert sum(len(l) for _t, l in batches) == small_imagenet.num_samples
    mount.close()
    srv.close()


def test_dali_loader_epoch_shuffles_shards(tmp_path):
    # Enough shards (16) that two epochs sharing a permutation is ~1/16!.
    from repro.tfrecord.sharder import write_shards

    samples = [(bytes([i % 251]) * 40, i % 5) for i in range(32)]
    ds = write_shards(samples, tmp_path, records_per_shard=2)
    loader = DALIStyleLoader(ds, LocalFSBackend(ds.root), batch_size=2, output_hw=(16, 16))
    p0 = [(p, o) for p, o, _n, _l in loader._plan_batches(0)]
    p1 = [(p, o) for p, o, _n, _l in loader._plan_batches(1)]
    assert p0 != p1


def test_dali_loader_validation(small_imagenet, local_storage):
    with pytest.raises(ValueError):
        DALIStyleLoader(small_imagenet, local_storage, batch_size=0)
    with pytest.raises(ValueError):
        DALIStyleLoader(small_imagenet, local_storage, read_threads=0)


def test_loaders_and_emlio_agree_on_samples(small_imagenet, local_storage):
    """All three pipelines deliver the same sample multiset."""
    from repro.core.config import EMLIOConfig
    from repro.core.service import EMLIOService

    pt = PyTorchStyleLoader(small_imagenet, local_storage, batch_size=4, output_hw=(16, 16))
    da = DALIStyleLoader(small_imagenet, local_storage, batch_size=4, output_hw=(16, 16))
    pt_labels = sorted(int(l) for _t, ls in pt.epoch() for l in ls)
    da_labels = sorted(int(l) for _t, ls in da.epoch() for l in ls)
    with EMLIOService(EMLIOConfig(batch_size=4, output_hw=(16, 16)), small_imagenet) as svc:
        em_labels = sorted(int(l) for _t, ls in svc.epoch(0) for l in ls)
    assert pt_labels == da_labels == em_labels == expected_labels(small_imagenet)
