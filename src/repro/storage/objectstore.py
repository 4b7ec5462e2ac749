"""Emulated object store: range-GET semantics with per-request latency.

Object stores (S3-style) serve ``GET Range:`` requests over HTTP — every
read pays a request round trip regardless of size, and there is no mmap,
no readahead, no kernel page cache on the client side.  This tier
emulates exactly that cost model over a local directory, using the same
latency hooks as the network emulation layer: each request sleeps the
store's flat request latency plus, when a :class:`NetworkProfile` is
given, its RTT and size-dependent transfer time.

That makes it the proving ground for the tiered read path: a daemon
reading batch ranges directly from this tier is request-latency-bound
(the paper's remote-storage baseline), while the same daemon with a
plan-fed :class:`~repro.storage.cache.CachedBackend` in front prefetches
the ranges it will serve and hides the latency entirely —
``benchmarks/bench_storage_tiers.py`` gates that ratio.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.net.emulation import NetworkProfile
from repro.storage.backend import LocalFSBackend, RemoteShardHandle, StorageBackend


class ObjectStoreBackend(StorageBackend):
    """Local-dir-emulated object store with configurable request latency.

    Parameters
    ----------
    root:
        Directory holding the "bucket" (shard files are the objects).
    request_latency_s:
        Flat latency charged to every request (GET/HEAD/LIST alike).
    profile:
        Optional :class:`NetworkProfile`; adds its RTT plus the
        size-dependent transfer time on top of ``request_latency_s``.
    verify:
        CRC policy for fetched ranges (``"open"`` degrades to per-fetch
        verification — there is no whole-shard open on a remote tier).
    """

    tier = "objectstore"

    def __init__(
        self,
        root: str | Path,
        request_latency_s: float = 0.0,
        profile: NetworkProfile | None = None,
        verify: bool | str = True,
    ) -> None:
        if request_latency_s < 0:
            raise ValueError(
                f"request_latency_s must be >= 0, got {request_latency_s}"
            )
        self._store = LocalFSBackend(root)
        self.request_latency_s = request_latency_s
        self.profile = profile
        self.verify = verify
        self.stats = self._store.stats
        self.requests = 0

    def _request(self, nbytes: int = 0) -> None:
        self.requests += 1
        delay = self.request_latency_s
        if self.profile is not None:
            delay += self.profile.rtt_s + self.profile.transfer_time(nbytes)
        if delay > 0:
            time.sleep(delay)

    def open_shard(self, shard_path: str) -> RemoteShardHandle:
        return RemoteShardHandle(self, shard_path, bool(self.verify))

    def read_bytes(self, shard_path: str, offset: int, nbytes: int) -> bytes:
        """One emulated ``GET Range: bytes=offset-`` request."""
        self._request(nbytes)
        return self._store.read_bytes(shard_path, offset, nbytes)

    def stat(self, shard_path: str) -> int:
        self._request()
        return self._store.stat(shard_path)

    def listdir(self, relpath: str = ".") -> list[str]:
        self._request()
        return self._store.listdir(relpath)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["requests"] = self.requests
        snap["request_latency_ms"] = self.request_latency_s * 1e3
        return snap


__all__ = ["ObjectStoreBackend"]
