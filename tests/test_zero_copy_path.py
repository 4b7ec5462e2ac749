"""End-to-end tests for the zero-copy hot path (paper §4.1).

The chain under test: ``encode_batch_parts`` (scatter-gather msgpack over
the sample bytes) → ``send_frame_parts`` (one ``sendmsg`` frame) →
``recv_frame_into`` (reused receive buffer) → ``decode_batch(...,
zero_copy=True)`` (samples as memoryviews over the buffer).  Includes the
tracemalloc check that steady-state per-batch allocations actually drop
versus the copying path — the tentpole claim, measured.
"""

import socket
import threading
import time
import tracemalloc
from dataclasses import replace

from repro.core.config import EMLIOConfig
from repro.core.planner import Planner
from repro.core.receiver import EMLIOReceiver
from repro.net.buffers import release_samples
from repro.net.framing import (
    recv_frame,
    recv_frame_into,
    send_frame,
    send_frame_parts,
)
from repro.net.mq import PushSocket
from repro.serialize.payload import (
    BatchPayload,
    decode_batch,
    encode_batch,
    encode_batch_parts,
)


def _payload(nsamples: int = 8, sample_bytes: int = 4096) -> BatchPayload:
    return BatchPayload(
        epoch=0,
        batch_index=3,
        shard="shard_00000",
        samples=[bytes([i % 256]) * sample_bytes for i in range(nsamples)],
        labels=list(range(nsamples)),
        node_id=1,
        meta={"origin": "test"},
    )


def test_scatter_gather_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = _payload()
        parts = encode_batch_parts(payload)
        assert len(parts) > 1  # the 4 KiB samples spilled into own segments
        sender = threading.Thread(target=send_frame_parts, args=(a, parts))
        sender.start()
        buf = bytearray()
        view = recv_frame_into(b, buf)
        sender.join()
        # Wire bytes are identical to the copying encoder's.
        assert bytes(view) == encode_batch(payload)
        decoded = decode_batch(view, zero_copy=True)
        assert all(isinstance(s, memoryview) for s in decoded.samples)
        assert decoded.samples == payload.samples  # content equality
        assert list(decoded.labels) == payload.labels  # packed i64 vector under v3
        assert decoded.seq == payload.seq and decoded.shard == payload.shard
    finally:
        a.close()
        b.close()


def test_zero_copy_decode_release_reaches_the_lease():
    payload = _payload(nsamples=2, sample_bytes=600)
    data = b"".join(bytes(p) for p in encode_batch_parts(payload))
    calls = []
    decoded = decode_batch(data, zero_copy=True, release=lambda: calls.append(1))
    assert decoded.samples == payload.samples
    decoded.samples.release()
    decoded.samples.release()
    assert calls == [1]


def test_zero_copy_path_allocates_less_than_legacy():
    """Steady-state peak allocations per batch on the zero-copy path must be
    a fraction of the copying path's (which materializes the payload at the
    encoder, the frame receive, and the decoder)."""
    payload = _payload(nsamples=8, sample_bytes=4096)

    def legacy_round(a, b):
        send_frame(a, encode_batch(payload))
        decode_batch(recv_frame(b))

    recv_buf = bytearray(128 * 1024)

    def zero_copy_round(a, b):
        send_frame_parts(a, encode_batch_parts(payload))
        decode_batch(recv_frame_into(b, recv_buf), zero_copy=True)

    def peak_bytes(round_fn) -> int:
        a, b = socket.socketpair()
        try:
            for _ in range(3):  # warm up: grow buffers, prime caches
                round_fn(a, b)
            tracemalloc.start()
            for _ in range(5):
                round_fn(a, b)
            _current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak
        finally:
            a.close()
            b.close()

    legacy_peak = peak_bytes(legacy_round)
    zero_copy_peak = peak_bytes(zero_copy_round)
    assert zero_copy_peak < legacy_peak / 2, (zero_copy_peak, legacy_peak)


def test_receiver_lets_a_released_buffer_grow(small_imagenet):
    """After the hand-off the receive thread holds no view of the pooled
    buffer: once the consumer releases it, a larger frame can grow it."""
    cfg = EMLIOConfig(batch_size=4)
    plan = Planner(small_imagenet, num_nodes=1, config=cfg).plan()
    receiver = EMLIOReceiver(node_id=0, plan=plan, config=cfg)
    pushers = []
    try:
        small = replace(_payload(nsamples=4, sample_bytes=1024), node_id=0)
        pushers.append(PushSocket([receiver.address], hwm=4))
        pushers[-1].send(encode_batch(small))
        got = receiver._payload_q.get(timeout=5)
        release_samples(got.samples)
        del got
        time.sleep(0.05)  # let the receive thread finish its hand-off
        # A new channel's read loop leases the buffer just released and
        # must grow it past the pool's initial 64 KiB.
        large = replace(_payload(nsamples=4, sample_bytes=32 * 1024), node_id=0)
        pushers.append(PushSocket([receiver.address], hwm=4))
        pushers[-1].send(encode_batch(large))
        got = receiver._payload_q.get(timeout=5)
        assert got.samples == large.samples
        release_samples(got.samples)
    finally:
        for push in pushers:
            push.close(timeout=5)
        receiver.close()
