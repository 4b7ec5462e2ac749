"""Plan-informed hot-set cache: block-granular, bounded bytes, Belady eviction.

The planner already knows *exactly* which byte ranges a daemon will serve,
in which order (every :class:`~repro.core.planner.BatchAssignment` carries
``(shard_path, offset, nbytes, count)``).  That turns caching from a
heuristic into a lookahead problem:

* **Blocks are planned ranges.**  The cache key is
  ``(shard_path, offset, nbytes)`` — one batch's contiguous slice.  No
  partial blocks, no alignment games: the serve path reads whole planned
  ranges, so the cache stores whole planned ranges.
* **Admission and prefetch come from the plan.**  At ``warm()``/epoch
  start the daemon hands the cache the ordered list of ranges it will
  serve; a background worker fetches them through the underlying tier
  ahead of the serve loop.
* **Eviction is ordered by next planned use** (Belady's algorithm, which
  is realizable here because the future is literally known): under
  pressure the block whose next use is farthest away — or that will never
  be used again — goes first, and a block is never admitted by evicting
  blocks that are needed *sooner* than it.

Correctness across tiers: a fetched block is CRC-parsed **before**
admission (corrupt bytes never enter the cache), cache hits re-verify
per read when the tier's policy is strict ``True`` (``"open"`` verifies
at admission only — the cached copy is immutable, the same trust model
as verify-on-open mmap), and an evicted block is simply re-fetched from
the tier on next use — stale bytes cannot be served because blocks are
immutable copies keyed by exact range.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from typing import Iterable, NamedTuple

from repro.storage.backend import (
    RemoteShardHandle,
    StorageBackend,
    parse_record_block,
)

BlockKey = tuple[str, int, int]  # (shard_path, offset, nbytes)


class PlanRange(NamedTuple):
    """One planned batch range: what to fetch and how to verify it."""

    shard_path: str
    offset: int
    nbytes: int
    count: int

    @property
    def key(self) -> BlockKey:
        return (self.shard_path, self.offset, self.nbytes)


class CacheStats:
    """Thread-safe hot-set cache counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.prefetched = 0
        self.evictions = 0

    def record(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def snapshot(self) -> dict[str, int]:
        """Counters behind ``emlio_storage_tier_cache_hits_total`` /
        ``_cache_misses`` / ``_prefetched`` / ``_evictions`` in the
        metrics registry (:mod:`repro.obs.metrics`)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "prefetched": self.prefetched,
                "evictions": self.evictions,
            }


class HotSetCache:
    """Bounded byte budget of immutable blocks with next-planned-use eviction."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._blocks: dict[BlockKey, bytes] = {}
        self._bytes = 0
        # key -> positions (ascending) at which the plan will read it next.
        self._schedule: dict[BlockKey, deque[int]] = {}

    def plan(self, keys: Iterable[BlockKey]) -> None:
        """Replace the lookahead: ``keys`` in the order they will be read."""
        schedule: dict[BlockKey, deque[int]] = {}
        for pos, key in enumerate(keys):
            schedule.setdefault(key, deque()).append(pos)
        with self._lock:
            self._schedule = schedule

    def _next_use(self, key: BlockKey) -> float:
        uses = self._schedule.get(key)
        return uses[0] if uses else math.inf

    def __contains__(self, key: BlockKey) -> bool:
        with self._lock:
            return key in self._blocks

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def get(self, key: BlockKey) -> bytes | None:
        """Look up a block, consuming this position from the lookahead."""
        with self._lock:
            uses = self._schedule.get(key)
            if uses:
                uses.popleft()
            block = self._blocks.get(key)
        if block is None:
            self.stats.record("misses")
        else:
            self.stats.record("hits")
        return block

    def put(self, key: BlockKey, data: bytes, prefetched: bool = False) -> bool:
        """Admit a block, evicting strictly-later-needed blocks if required.

        Returns ``False`` (and caches nothing) when admission would
        require evicting a block needed sooner than ``key`` — by the
        plan, that trade always loses.
        """
        data = bytes(data)
        nbytes = len(data)
        evicted = 0
        with self._lock:
            if key in self._blocks:
                return True
            if nbytes > self.capacity_bytes:
                return False
            if self._bytes + nbytes > self.capacity_bytes:
                mine = self._next_use(key)
                victims = sorted(
                    self._blocks, key=lambda k: self._next_use(k), reverse=True
                )
                chosen: list[BlockKey] = []
                freed = 0
                for victim in victims:
                    if self._bytes - freed + nbytes <= self.capacity_bytes:
                        break
                    if self._next_use(victim) <= mine:
                        break
                    chosen.append(victim)
                    freed += len(self._blocks[victim])
                if self._bytes - freed + nbytes > self.capacity_bytes:
                    return False
                for victim in chosen:
                    self._bytes -= len(self._blocks.pop(victim))
                    evicted += 1
            self._blocks[key] = data
            self._bytes += nbytes
        if evicted:
            self.stats.record("evictions", evicted)
        if prefetched:
            self.stats.record("prefetched")
        return True

    def hot_shards(self) -> set[str]:
        with self._lock:
            return {key[0] for key in self._blocks}


class CachedShardHandle:
    """Serve planned ranges from the hot set, falling through to the tier."""

    def __init__(self, backend: "CachedBackend", shard_path: str) -> None:
        self._backend = backend
        self.shard_path = shard_path
        self._inner: RemoteShardHandle | None = None

    def _inner_handle(self):
        if self._inner is None:
            self._inner = self._backend.inner.open_shard(self.shard_path)
        return self._inner

    @property
    def nbytes(self) -> int:
        return self._inner_handle().nbytes

    def read_range_views(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[memoryview]:
        if nbytes is None:
            # No plan hint means no block identity — bypass the cache.
            return self._inner_handle().read_range_views(offset, count)
        backend = self._backend
        key: BlockKey = (self.shard_path, offset, nbytes)
        block = backend.cache.get(key)
        if block is not None:
            return parse_record_block(
                block,
                count,
                backend.verify_hit,
                shard_path=self.shard_path,
                offset=offset,
            )
        block = backend.fetch_block(PlanRange(self.shard_path, offset, nbytes, count))
        return parse_record_block(
            block, count, False, shard_path=self.shard_path, offset=offset
        )

    def read_range(
        self, offset: int, count: int, nbytes: int | None = None
    ) -> list[bytes]:
        return [bytes(v) for v in self.read_range_views(offset, count, nbytes)]

    def read_region(
        self, offset: int, count: int, nbytes: int
    ) -> tuple[bytes, bool]:
        """Planned range as raw framed bytes (cache-aware, unparsed).

        Hits return the admitted block with the hit-verify policy; misses
        come back pre-verified by :meth:`CachedBackend.fetch_block`, so
        the caller need not re-check them.
        """
        backend = self._backend
        key: BlockKey = (self.shard_path, offset, nbytes)
        block = backend.cache.get(key)
        if block is not None:
            return block, backend.verify_hit
        block = backend.fetch_block(PlanRange(self.shard_path, offset, nbytes, count))
        return block, False

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
            self._inner = None


class CachedBackend(StorageBackend):
    """Hot-set cache in front of any :class:`StorageBackend` tier.

    ``tier``/``stats`` pass through to the wrapped tier, so tier counters
    keep meaning "requests that actually hit the tier" — the gap between
    planned reads and tier reads *is* the cache's contribution.
    """

    def __init__(self, inner: StorageBackend, capacity_bytes: int) -> None:
        self.inner = inner
        self.tier = inner.tier
        self.stats = inner.stats
        self.cache = HotSetCache(capacity_bytes)
        verify = getattr(inner, "verify", True)
        # Fetches are always verified unless the tier trusts storage
        # outright; hits re-verify only under strict ``True`` ("open"
        # trusts the immutable admitted copy, like verify-on-open mmap).
        self.verify_fetch = bool(verify)
        self.verify_hit = verify is True
        self._queue: queue.Queue[PlanRange | None] = queue.Queue()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._worker: threading.Thread | None = None
        self._closed = False
        self.prefetch_errors: list[str] = []

    # ---- serve path ----

    def open_shard(self, shard_path: str) -> CachedShardHandle:
        return CachedShardHandle(self, shard_path)

    def fetch_block(self, rng: PlanRange, prefetched: bool = False) -> bytes:
        """Fetch one planned range from the tier, verify, admit, return it.

        The one fetch path for serve-time misses and background prefetch:
        corrupt bytes raise here, before admission, so they never enter
        the cache.
        """
        block = self.inner.read_bytes(rng.shard_path, rng.offset, rng.nbytes)
        if self.verify_fetch:
            parse_record_block(
                block,
                rng.count,
                True,
                shard_path=rng.shard_path,
                offset=rng.offset,
            )
        self.cache.put(rng.key, block, prefetched=prefetched)
        return block

    def stat(self, shard_path: str) -> int:
        return self.inner.stat(shard_path)

    def listdir(self, relpath: str = ".") -> list[str]:
        return self.inner.listdir(relpath)

    # ---- prefetch ----

    def schedule_prefetch(self, ranges: Iterable[tuple]) -> int:
        """Feed the plan: set the eviction lookahead, queue background fetches."""
        plan = [PlanRange(*r) for r in ranges]
        self.cache.plan(r.key for r in plan)
        queued = 0
        for rng in plan:
            if rng.key in self.cache:
                continue
            with self._inflight_lock:
                self._inflight += 1
            self._queue.put(rng)
            queued += 1
        if queued and self._worker is None and not self._closed:
            self._worker = threading.Thread(
                target=self._prefetch_loop, name="storage-prefetch", daemon=True
            )
            self._worker.start()
        return queued

    def _prefetch_loop(self) -> None:
        while True:
            rng = self._queue.get()
            if rng is None:
                return
            try:
                if rng.key not in self.cache:
                    self.fetch_block(rng, prefetched=True)
            except Exception as err:  # noqa: BLE001 — serve path re-raises loudly
                # Never cache a failed fetch; the serve-path re-fetch
                # surfaces the real error on the batch that needs it.
                self.prefetch_errors.append(f"{rng.shard_path}@{rng.offset}: {err}")
            finally:
                with self._inflight_lock:
                    self._inflight -= 1

    @property
    def prefetch_depth(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def wait_prefetch(self, timeout: float | None = None) -> bool:
        """Block until the prefetch queue drains (bench/test helper)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.prefetch_depth > 0:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    # ---- observability ----

    def hot_shards(self) -> set[str]:
        return self.cache.hot_shards()

    def cache_counters(self) -> tuple[int, int, int]:
        snap = self.cache.stats.snapshot()
        return (snap["hits"], snap["misses"], self.prefetch_depth)

    def snapshot(self) -> dict:
        """Inner-tier stats plus the cache sub-dict; the cache counters
        feed ``emlio_storage_tier_*_total{tier=...}`` at scrape time."""
        snap = self.inner.snapshot()
        snap["cache"] = {
            **self.cache.stats.snapshot(),
            "capacity_bytes": self.cache.capacity_bytes,
            "cached_bytes": self.cache.nbytes,
            "cached_blocks": len(self.cache),
            "prefetch_depth": self.prefetch_depth,
        }
        return snap

    def close(self) -> None:
        self._closed = True
        if self._worker is not None:
            self._queue.put(None)
            self._worker.join(timeout=5.0)
            self._worker = None
        self.inner.close()


__all__ = [
    "BlockKey",
    "CacheStats",
    "CachedBackend",
    "CachedShardHandle",
    "HotSetCache",
    "PlanRange",
]
