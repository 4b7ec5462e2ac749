"""Mixed-version payload interop and the deploy-level columnar knobs.

Daemons always emit the v3 columnar schema; the receiver's decode accepts
every compatible version.  These tests pin both halves: a live epoch
reaches the receiver as v3 frames only, and frames in the older v2 row
layout (produced here by patching the daemon's encoder) are consumed next
to v3 frames in the same epoch.
"""

from collections import Counter

import pytest

import repro.core.daemon as daemon_mod
import repro.core.receiver as receiver_mod
from repro.api import (
    ClusterSpec,
    DatasetSpec,
    EMLIO,
    PipelineSpec,
    ReceiverSpec,
)
from repro.core.config import EMLIOConfig
from repro.core.service import EMLIOService
from repro.net.buffers import ColumnarSamples, LeasedSamples


def _collect_epoch(service, epoch=0):
    return [(t, l) for t, l in service.epoch(epoch)]


def _expected_labels(dataset):
    return sorted(l for labels in dataset.labels().values() for l in labels)


@pytest.fixture
def decoded_layouts(monkeypatch):
    """Counts the sample carrier of every frame the receiver decodes:
    :class:`ColumnarSamples` for v3 frames, :class:`LeasedSamples` for
    the v1/v2 row layout."""
    layouts = Counter()
    real = receiver_mod.decode_batch

    def spy(*args, **kwargs):
        payload = real(*args, **kwargs)
        layouts[type(payload.samples)] += 1
        return payload

    monkeypatch.setattr(receiver_mod, "decode_batch", spy)
    return layouts


def test_service_emits_v3_and_delivers_all_samples(small_imagenet, decoded_layouts):
    cfg = EMLIOConfig(batch_size=4, hwm=8, output_hw=(16, 16))
    with EMLIOService(cfg, small_imagenet) as svc:
        got = sorted(int(l) for _t, ls in _collect_epoch(svc) for l in ls)
    assert got == _expected_labels(small_imagenet)
    assert set(decoded_layouts) == {ColumnarSamples}


def test_mixed_version_daemons_feed_one_receiver(
    small_imagenet, monkeypatch, decoded_layouts
):
    """A v2 daemon and a v3 daemon serving halves of the same epoch: the
    receiver decodes both wire layouts into one coherent batch stream."""
    cfg = EMLIOConfig(batch_size=4, hwm=8, output_hw=(16, 16))
    shards = [ix.shard for ix in small_imagenet.indexes]
    v2_shards = set(shards[: len(shards) // 2])
    split = {
        str(small_imagenet.root): v2_shards,
        str(small_imagenet.root) + "/.": set(shards[len(shards) // 2 :]),
    }
    # The first daemon's shards go out in the row layout — a sender still
    # on v2 next to a v3 one, the mid-rollout cluster.
    real_encode = daemon_mod.encode_batch_parts
    emitted = Counter()

    def mixed_encode(payload, *args, **kwargs):
        version = 2 if payload.shard in v2_shards else 3
        emitted[version] += 1
        return real_encode(payload, *args, version=version, **kwargs)

    monkeypatch.setattr(daemon_mod, "encode_batch_parts", mixed_encode)
    with EMLIOService(cfg, small_imagenet, storage_shards=split) as svc:
        assert len(svc.daemons) == 2
        got = sorted(int(l) for _t, ls in _collect_epoch(svc) for l in ls)
        sent = [d.stats.snapshot()["batches_sent"] for d in svc.daemons]
    assert set(emitted) == {2, 3}
    assert all(s > 0 for s in sent)  # both daemons actually hit the wire
    # ...and the receiver consumed both layouts in the one epoch.
    assert decoded_layouts[LeasedSamples] > 0
    assert decoded_layouts[ColumnarSamples] > 0
    assert got == _expected_labels(small_imagenet)


def _spec(**pipeline_overrides) -> ClusterSpec:
    pipeline = dict(batch_size=4, output_hw=(16, 16))
    pipeline.update(pipeline_overrides)
    return ClusterSpec(
        name="interop",
        dataset=DatasetSpec(kind="existing", root="ignored"),
        pipeline=PipelineSpec(**pipeline),
        receivers=ReceiverSpec(stall_timeout_s=20.0),
    )


def test_worker_pool_deployment_reports_stage_timing(small_imagenet):
    """The workers knob reaches the receiver pipeline, and per-stage
    timing (decode / preprocess / starved ns per batch) surfaces through
    Deployment.status()["pipeline"]["stages"]."""
    with EMLIO.deploy(_spec(workers=3), dataset=small_imagenet) as dep:
        got = sorted(int(l) for _t, ls in dep.epoch(0) for l in ls)
        stages = dep.status()["pipeline"]["stages"]
    assert got == _expected_labels(small_imagenet)
    assert stages["workers"] == 3
    assert stages["batches"] == len(got) // 4
    assert stages["decode_ns"] > 0 and stages["preprocess_ns"] > 0
    assert "starved_ns" in stages
    node0 = stages["nodes"]["0"]
    assert node0["batches"] == stages["batches"]
    assert node0["decode_ns"] > 0
