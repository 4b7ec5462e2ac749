"""Outside-in layer tracing: spans around calls into each layer's functions.

:class:`LayerTracer` replaces the names the program actually calls (names
imported into ``repro.core.daemon``, ``repro.core.receiver`` and
``repro.gpu.pipeline``, the ``repro.gpu.ops`` kernels, the ``tokens``
codec registry entry, and the socket, shard-handle and backend methods)
with wrappers that record one span per call, and puts the originals back
on exit.  Nothing under ``src/`` is edited: install before
``EMLIO.deploy``, remove after the deployment is closed.

A span is ``(id, name, start_ns, end_ns, thread, parent, value, cpu_ns)``.
``parent`` is the innermost traced call open on the same thread, so a
span's self time is its duration minus its direct children's; ``value``
is a per-call number a few spans note (bytes, or a send's success);
``cpu_ns`` is the CPU time the calling thread spent inside the call.
Wall time includes waits for the interpreter lock, CPU time does not.
Spans are kept in memory and written out by :meth:`LayerTracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import repro.core.daemon as daemon_mod
import repro.core.receiver as receiver_mod
import repro.gpu.ops as ops_mod
import repro.gpu.pipeline as pipeline_mod
from repro.api.registry import CODECS
from repro.core.provider import BatchProvider
from repro.net.mq import PullSocket, PushSocket
from repro.net.shm import ShmPushSocket
from repro.storage.backend import LocalFSHandle, RemoteShardHandle
from repro.storage.cache import CachedShardHandle
from repro.storage.objectstore import ObjectStoreBackend

# Spans that measure a thread waiting for work, not doing it.
WAIT_SPANS = ("net.PullSocket.recv_frame", "core.BatchProvider.__call__")
TOKENS_SPAN = "codec.tokens.batch_preprocess"
_SEND_SPANS = (
    "net.PushSocket.send_parts",
    "net.PushSocket.try_send_parts",
    "net.ShmPushSocket.send_parts",
    "net.ShmPushSocket.try_send_parts",
)


def _nbytes(parts) -> int:
    return sum(len(p) for p in parts)


def _sent_bytes(ok, args) -> int:
    """A send's value: bytes handed over, 0 when refused at HWM."""
    return _nbytes(args[1]) if ok is not False else 0


class LayerTracer:
    """Installs span-recording wrappers; a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._tokens_codec = None

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(result, args)`` -> value."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            result = None
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                cpu = time.thread_time_ns() - c0
                stack.pop()
                value = note(result, args) if note is not None else None
                spans.append(
                    (sid, name, t0, t1, threading.get_ident(), parent, value, cpu)
                )

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr: str, name: str, note=None) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def install(self) -> "LayerTracer":
        # gpu / codec: one wrapper serves both names of preprocess_batch
        # (the pipeline's import and the receiver's warm-up lookup).
        for attr, name in (
            ("sjpg_decode_batch", "codec.sjpg_decode_batch"),
            ("resize_bilinear_batch", "gpu.resize_bilinear_batch"),
            ("normalize_batch", "gpu.normalize_batch"),
        ):
            self._patch(ops_mod, attr, name)
        self._patch(ops_mod, "preprocess_batch", "gpu.preprocess_batch")
        self._set(pipeline_mod, "preprocess_batch", ops_mod.preprocess_batch)
        # The tokens entry's batch_preprocess closes over decode_tokens_batch
        # at import, so the entry itself is the call to time.
        self._tokens_codec = CODECS.get("tokens")
        CODECS.register(
            "tokens",
            dataclasses.replace(
                self._tokens_codec,
                batch_preprocess=self.wrap(TOKENS_SPAN, self._tokens_codec.batch_preprocess),
            ),
            replace=True,
        )
        # tfrecord / serialize: the names the daemon and receiver imported.
        self._patch(daemon_mod, "scan_example_spans", "tfrecord.scan_example_spans",
                    note=lambda _r, args: len(args[0]))
        self._patch(daemon_mod, "encode_batch_parts", "serialize.encode_batch_parts",
                    note=lambda parts, _a: _nbytes(parts) if parts is not None else 0)
        self._patch(receiver_mod, "decode_batch", "serialize.decode_batch",
                    note=lambda _r, args: len(args[0]))
        # storage: shard-handle reads and the object store's range GETs.
        for cls in (LocalFSHandle, RemoteShardHandle, CachedShardHandle):
            for attr in ("read_region", "read_range_views"):
                self._patch(cls, attr, f"storage.{cls.__name__}.{attr}")
        self._patch(ObjectStoreBackend, "read_bytes", "storage.ObjectStoreBackend.read_bytes")
        # net: the daemon's sends and the receiver's frame pops.
        for cls in (PushSocket, ShmPushSocket):
            for attr in ("send_parts", "try_send_parts"):
                self._patch(cls, attr, f"net.{cls.__name__}.{attr}", note=_sent_bytes)
        self._patch(PullSocket, "recv_frame", "net.PullSocket.recv_frame")
        # core: the pipeline's external source.
        self._patch(BatchProvider, "__call__", "core.BatchProvider.__call__")
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        if self._tokens_codec is not None:
            CODECS.register("tokens", self._tokens_codec, replace=True)
            self._tokens_codec = None

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path, window: tuple[int, int]) -> Path:
        """Write every span as one JSON line; ``phase`` marks the spans that
        started before the measured window as set-up."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, t0, t1, tid, parent, value, cpu in self.spans:
                phase = "setup" if t0 < window[0] else "measure" if t0 < window[1] else "close"
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                    "thread": tid, "parent": parent, "value": value, "cpu_ns": cpu,
                    "phase": phase,
                }) + "\n")
        return path


@dataclasses.dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    cpu_ns: int = 0
    self_cpu_ns: int = 0
    value: float = 0.0


def window_totals(spans: list[tuple], window: tuple[int, int]) -> dict[str, SpanTotals]:
    """Per-name totals over the spans that started inside ``window``."""
    child_ns: dict[int, int] = defaultdict(int)
    child_cpu: dict[int, int] = defaultdict(int)
    for _sid, _name, t0, t1, _tid, parent, _value, cpu in spans:
        if parent:
            child_ns[parent] += t1 - t0
            child_cpu[parent] += cpu
    out: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for sid, name, t0, t1, _tid, _parent, value, cpu in spans:
        if not window[0] <= t0 < window[1]:
            continue
        tot = out[name]
        tot.calls += 1
        tot.total_ns += t1 - t0
        tot.self_ns += t1 - t0 - child_ns[sid]
        tot.cpu_ns += cpu
        tot.self_cpu_ns += cpu - child_cpu[sid]
        if value is not None:
            tot.value += value
    return out


def send_stats(spans: list[tuple], window: tuple[int, int]) -> tuple[int, int]:
    """``(refused_calls, blocked_ns)`` of the sends inside ``window``.

    A send is refused when the socket is at its HWM.  Blocked time runs,
    per thread, from the first refused ``try_send_parts`` to the end of
    the call that got through.
    """
    refused = blocked = 0
    since: dict[int, int] = {}
    for _sid, name, t0, t1, tid, _parent, value, _cpu in sorted(spans, key=lambda s: s[2]):
        if name not in _SEND_SPANS or not window[0] <= t0 < window[1]:
            continue
        if value == 0:
            refused += 1
            since.setdefault(tid, t0)
        elif tid in since:
            blocked += t1 - since.pop(tid)
    return refused, blocked


def layer_metrics(spans, window, batches: int, delta: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the measured window.

    Returns ``(metrics, report)``, each ``name -> (value, unit)``.
    ``metrics`` holds what every workload measures (``delta`` supplies the
    counter differences across the window); ``report`` holds the times of
    layers that only some workloads run, ``None`` where the layer did not.
    """
    totals = window_totals(spans, window)
    b = batches

    def total_ms(*names):
        return sum(totals[n].total_ns for n in names if n in totals) / 1e6

    def cpu_ms(*names):
        return sum(totals[n].cpu_ns for n in names if n in totals) / 1e6

    def calls(*names):
        return sum(totals[n].calls for n in names if n in totals)

    scan = "tfrecord.scan_example_spans"
    encode = "serialize.encode_batch_parts"
    gets = "storage.ObjectStoreBackend.read_bytes"
    reads = [n for n in totals if n.startswith("storage.") and ".read_r" in n]
    sends = [n for n in totals if n in _SEND_SPANS]
    refused, blocked_ns = send_stats(spans, window)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics = {
        "gpu.batch_preprocess_ms_per_batch":
            (total_ms("gpu.preprocess_batch", TOKENS_SPAN) / b, "ms"),
        "gpu.batch_preprocess_cpu_ms_per_batch":
            (cpu_ms("gpu.preprocess_batch", TOKENS_SPAN) / b, "ms"),
        "tfrecord.scan_calls": (calls(scan), "count"),
        "tfrecord.scan_ms_per_batch": (total_ms(scan) / b, "ms"),
        "tfrecord.scan_cpu_ms_per_batch": (cpu_ms(scan) / b, "ms"),
        "tfrecord.scan_mb_per_s":
            (totals[scan].value / 1e3 / total_ms(scan) if calls(scan) else 0.0, "MB/s"),
        "storage.read_calls": (calls(*reads), "count"),
        "storage.read_ms_total": (total_ms(*reads), "ms"),
        "storage.remote_get_calls": (calls(gets), "count"),
        "storage.cache_hit_ratio":
            (delta["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "storage.prefetched_blocks": (delta["prefetched"], "count"),
        "storage.evictions": (delta["evictions"], "count"),
        "serialize.encode_ms_per_batch": (total_ms(encode) / b, "ms"),
        "serialize.decode_ms_per_batch": (total_ms("serialize.decode_batch") / b, "ms"),
        "serialize.frame_bytes_per_batch":
            (totals[encode].value / calls(encode) if calls(encode) else 0.0, "B"),
        "net.send_calls": (calls(*sends), "count"),
        "net.send_refused_calls": (refused, "count"),
        "net.recv_wait_ms_total": (total_ms("net.PullSocket.recv_frame"), "ms"),
        "net.bytes_sent": (sum(totals[n].value for n in sends), "B"),
        "core.provider_wait_ms_per_batch":
            (total_ms("core.BatchProvider.__call__") / b, "ms"),
        "core.batches_served": (delta["batches_served"], "count"),
        "core.dedup_drops": (delta["dedup_drops"], "count"),
    }
    def per_batch(span):
        return total_ms(span) / b if calls(span) else None

    pre = totals.get("gpu.preprocess_batch")
    report = {
        "gpu.preprocess_ms_per_batch": (pre.self_ns / 1e6 / b if pre else None, "ms"),
        "codec.sjpg_decode_ms_per_batch": (per_batch("codec.sjpg_decode_batch"), "ms"),
        "gpu.resize_ms_per_batch": (per_batch("gpu.resize_bilinear_batch"), "ms"),
        "gpu.normalize_ms_per_batch": (per_batch("gpu.normalize_batch"), "ms"),
        "gpu.tokens_decode_ms_per_batch": (per_batch(TOKENS_SPAN), "ms"),
        "storage.remote_get_ms_total": (total_ms(gets) if calls(gets) else None, "ms"),
        "net.send_blocked_ms_total": (blocked_ns / 1e6, "ms"),
    }
    for layer, (wall, cpu) in layer_busy_ms(totals, b).items():
        report[f"busy.{layer}_ms_per_batch"] = (wall, "ms")
        report[f"busy.{layer}_cpu_ms_per_batch"] = (cpu, "ms")
    return metrics, report


def layer_busy_ms(totals: dict[str, SpanTotals], batches: int) -> dict[str, tuple]:
    """``layer -> (wall, cpu)`` self time per batch in ms; the layer is the
    span name's first component, and the spans that measure waiting are
    left out.  Sorted by CPU time, largest first."""
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    for name, tot in totals.items():
        if name not in WAIT_SPANS:
            layer = name.split(".", 1)[0]
            wall[layer] += tot.self_ns / 1e6 / batches
            cpu[layer] += tot.self_cpu_ns / 1e6 / batches
    return {layer: (wall[layer], cpu[layer]) for layer in sorted(cpu, key=lambda k: -cpu[k])}
