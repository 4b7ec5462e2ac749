#!/usr/bin/env python3
"""The repository's benchmark: EMLIO deployments, consumed in a closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload image-shm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it measures the workload once
untraced, then again with :class:`layertrace.LayerTracer` installed, and
reports the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any missing, duplicated
or wrong batch, or a stalled epoch, ends the run with exit code 1.
See ``perfbench/README.md`` for the metric definitions and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
DEPLOYMENTS = 4  # an untraced run measures this many deployments in turn
MIN_WAITS = 200  # batch waits a run must hold, so ten lie beyond p95
MEASURE_CAP_S = 60.0  # a measured window never runs longer than this


@dataclass
class Tally:
    """Planned batches attempted and failed, across every deployment."""

    attempted: int = 0
    failed: int = 0


class RunFailed(Exception):
    """A batch was missing, duplicated or wrong, or an epoch stalled."""


@dataclass
class Epoch:
    start_s: float  # epoch requested -> first batch received
    waits: list[float]  # consumer blocked per batch, first batch excluded
    samples: int
    batches: int


@dataclass
class Window:
    epochs: list[Epoch] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_t0: float = 0.0  # time.time() bounds, for the energy query
    wall_t1: float = 0.0
    ns: tuple[int, int] = (0, 0)  # perf_counter_ns bounds, for the spans

    @property
    def samples(self) -> int:
        return sum(e.samples for e in self.epochs)

    @property
    def batches(self) -> int:
        return sum(e.batches for e in self.epochs)

    @property
    def waits(self) -> list[float]:
        return [w for e in self.epochs for w in e.waits]


class Session:
    """One deployment of a workload and its closed-loop consumer."""

    def __init__(self, workload, seed: int, dataset, expected, tally: Tally) -> None:
        from repro.api import EMLIO

        self.workload = workload
        self.expected = expected
        self.tally = tally
        self.t_deploy = time.perf_counter()
        self.dep = EMLIO.deploy(workload.spec(seed), dataset=dataset)
        self.planned = len(self.dep.service.plan.keys(epoch=0))
        self.setup_s: float | None = None

    def epoch(self) -> Epoch:
        """Consume one epoch, checking each batch before taking the next."""
        check = self.expected.epoch()
        self.tally.attempted += self.planned
        waits: list[float] = []
        start_s = None
        samples = 0
        t_req = time.perf_counter()
        batches = iter(self.dep.epoch(0))
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    tensors, labels = next(batches)
                except StopIteration:
                    break
                t1 = time.perf_counter()
                if start_s is None:
                    start_s = t1 - t_req
                    if self.setup_s is None:
                        self.setup_s = t1 - self.t_deploy
                else:
                    waits.append(t1 - t0)
                check.batch(tensors, labels)
                samples += len(labels)
        except Exception:  # noqa: BLE001 - a stall or dead receiver is a result
            traceback.print_exc()
            self.dep.close()
            self.tally.failed += self.planned - check.ok
            raise RunFailed(
                f"epoch ended after {check.ok + check.wrong}/{self.planned} batches"
            ) from None
        delivered = check.ok + check.wrong
        owed = math.ceil(check.missing_samples() / self.workload.batch_size)
        failed = min(self.planned, check.wrong + max(self.planned - delivered, owed))
        if failed:
            self.dep.close()
            self.tally.failed += failed
            raise RunFailed(f"{failed}/{self.planned} batches missing, duplicated or wrong")
        return Epoch(start_s, waits, samples, delivered)

    def measure(self, seconds: float, min_waits: float = MIN_WAITS) -> Window:
        """Whole epochs until ``seconds`` have passed and ``min_waits``
        batch waits are held."""
        win = Window()
        cpu0 = time.process_time()
        win.wall_t0 = time.time()
        ns0 = time.perf_counter_ns()
        while True:
            win.epochs.append(self.epoch())
            elapsed = (time.perf_counter_ns() - ns0) / 1e9
            if elapsed >= seconds and len(win.waits) >= min_waits:
                break
            if elapsed >= MEASURE_CAP_S:
                print(f"warning: only {len(win.waits)} batch waits in {elapsed:.0f} s",
                      file=sys.stderr)
                break
        win.ns = (ns0, time.perf_counter_ns())
        win.wall_s = (win.ns[1] - ns0) / 1e9
        win.cpu_s = time.process_time() - cpu0
        win.wall_t1 = time.time()
        return win

    def counters(self) -> dict:
        """The program's own counters the traced run reports deltas of."""
        stats = self.dep.stats()
        tiers = self.dep.status()["storage"]["tiers"]
        return {
            "batches_served": sum(d["batches_sent"] for d in stats["daemons"]),
            "dedup_drops": stats["duplicates_dropped"],
            **{k: sum(t[k] for t in tiers.values())
               for k in ("cache_hits", "cache_misses", "prefetched", "evictions")},
        }

    def close(self) -> None:
        self.dep.close()

    def energy(self, win: Window):
        """Joules over ``win``; the monitor writes its samples on close."""
        return self.dep.monitor.query(win.wall_t0, win.wall_t1)


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_untraced(workload, seed, dataset, expected, seconds, tally) -> dict:
    """``DEPLOYMENTS`` deployments in turn, each set up, warmed up with one
    epoch and measured for its share of ``seconds``; metrics pool them."""
    epochs: list[Epoch] = []
    setups, rates, wall_s, cpu_s, energy_j = [], [], 0.0, 0.0, 0.0
    for _ in range(DEPLOYMENTS):
        session = Session(workload, seed, dataset, expected, tally)
        session.epoch()  # warm-up; its first batch ends set-up
        setups.append(session.setup_s)
        win = session.measure(seconds / DEPLOYMENTS, MIN_WAITS / DEPLOYMENTS)
        session.close()
        energy_j += session.energy(win).total_j
        rates.append(round(win.samples / win.wall_s, 1))
        epochs += win.epochs
        wall_s += win.wall_s
        cpu_s += win.cpu_s
    pooled = Window(epochs=epochs, wall_s=wall_s, cpu_s=cpu_s)
    waits = pooled.waits
    print(f"measured: {DEPLOYMENTS} deployments, {len(epochs)} epochs, "
          f"{pooled.batches} batches, {pooled.samples} samples, {len(waits)} batch waits, "
          f"{wall_s:.2f} s; samples/s per deployment {rates}; "
          f"set-up samples {[round(s, 4) for s in setups]}")
    ms = 1e3
    return {
        "throughput_sps": (pooled.samples / wall_s, "samples/s"),
        "batch_wait_ms_p50": (statistics.median(waits) * ms, "ms"),
        "batch_wait_ms_p95": (_quantile(waits, 0.95) * ms, "ms"),
        "epoch_start_ms": (statistics.median(e.start_s for e in epochs) * ms, "ms"),
        "cpu_ms_per_sample": (cpu_s * ms / pooled.samples, "ms"),
        "energy_j_per_sample": (energy_j / pooled.samples, "J"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def run_traced(workload, seed, dataset, expected, seconds, tally, spans_path) -> dict:
    from layertrace import LayerTracer, layer_metrics

    plain = Session(workload, seed, dataset, expected, tally)
    plain.epoch()
    base = plain.measure(seconds)
    plain.close()
    energy = plain.energy(base)

    with LayerTracer() as tracer:
        session = Session(workload, seed, dataset, expected, tally)
        session.epoch()  # warm-up: its calls, and deploy's, count as set-up
        before = session.counters()
        win = session.measure(seconds)
        after = session.counters()
        transports = session.dep.stats()["transports"]
        session.close()
    tracer.dump(spans_path, win.ns)
    base_sps = base.samples / base.wall_s
    traced_sps = win.samples / win.wall_s
    print(f"traced: {len(win.epochs)} epochs, {win.batches} batches, {win.samples} samples, "
          f"transports {transports}; untraced {base_sps:.1f} samples/s, "
          f"traced {traced_sps:.1f} samples/s; spans in {spans_path.relative_to(ROOT)}")
    metrics, report = layer_metrics(
        tracer.spans, win.ns, win.batches, {k: after[k] - before[k] for k in before}
    )
    metrics.update({
        "energy.cpu_j_per_sample": (energy.cpu_j / base.samples, "J"),
        "energy.dram_j_per_sample": (energy.dram_j / base.samples, "J"),
        "energy.gpu_j_per_sample": (energy.gpu_j / base.samples, "J"),
        "trace.overhead_pct": ((base_sps - traced_sps) / base_sps * 100, "%"),
    })
    print("per-layer metrics that only some workloads exercise:")
    for name, (value, unit) in report.items():
        print(f"  {name} = " + (f"{value:.4f} {unit}" if value is not None
                                 else "n/a (the layer did not run)"))
    return metrics


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for the shm ring's
    segments, and wait until it has ended.

    Left alone, it exits only after it reads end-of-file once this process
    is gone, so for a moment it outlives the run.
    """
    gc.collect()  # segment finalizers first, while the tracker still listens
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_resource_tracker()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Expected

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-data-", dir=ROOT) as tmp:
        dataset = workload.build(Path(tmp) / "dataset", args.seed)
        expected = Expected(workload, dataset)
        print(f"workload {workload.name}, seed {args.seed}: {dataset.num_samples} samples, "
              f"{dataset.nbytes / dataset.num_samples / 1024:.1f} KiB/sample, "
              f"{dataset.num_shards} shards")
        try:
            if args.trace:
                spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
                metrics = run_traced(workload, args.seed, dataset, expected,
                                     args.seconds, tally, spans)
            else:
                metrics = run_untraced(workload, args.seed, dataset, expected,
                                       args.seconds, tally)
        except RunFailed as err:
            print(f"FAILED: {err}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": tally.attempted,
                              "failed": tally.failed, "metrics": {}}))
            return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
