"""Drive ``repro serve`` over HTTP and report end-to-end and per-layer
metrics.

Usage (from the repository root)::

    python -m benchmarks.e2e --workload warm-mix --seed 1 --trace 0
    python -m benchmarks.e2e --seed 1 --out report.json   # every workload, both passes

Two passes per workload, each against freshly booted daemons:

``--trace 0`` (untraced)
    boots the daemon ``SETUP_BOOTS`` times, half before the measured
    window and half after it (``setup_s`` is the median
    spawn-to-first-``/healthz`` time; the last boot before the window
    serves the run), warms it with a fixed number of requests per
    connection, then drives it for ``--seconds`` from closed-loop
    callers, one per keep-alive connection (two on ``tenants``, one
    elsewhere).  Reports the end-to-end metrics.
``--trace 1`` (traced)
    half the window on a plain daemon and half on one started with
    ``--trace-log``; the client's own latency per request is joined to
    the daemon's span tree by ``trace_id``.  Reports the per-layer
    metrics, the stage table and the in-process microbenchmarks.

Every response is checked by :mod:`benchmarks.e2e.oracle`.  Each metric
is printed as ``name value unit``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.telemetry import histogram_stats, percentile_from_counts

from benchmarks.e2e import micro
from benchmarks.e2e.daemon import (
    Client,
    Daemon,
    TransportError,
    boot_times,
    scrape,
)
from benchmarks.e2e.oracle import check_response
from benchmarks.e2e.stats import (
    coverage,
    format_table,
    hd_percentile,
    join,
    load_traces,
    median_when_run,
    served_ns_per_step,
    stage_table,
)
from benchmarks.e2e.workloads import RECORDED, WORKLOADS, Request, Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Daemon logs and trace logs (ignored by git).
OUT = Path(__file__).resolve().parent / "out"
#: Daemon boots per untraced run, half before the measured window and
#: half after it; ``setup_s`` is their median.
SETUP_BOOTS = 10
#: Pause between boots.  The host's speed changes from one second to
#: the next, so boots spread out in time give a steadier median than
#: boots back to back.
BOOT_GAP_S = 0.3
#: The measured window, seconds (BENCHMARK.json ``run_seconds``).
DEFAULT_SECONDS = 25

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Sample:
    """One request as the client saw it."""

    stream: str
    latency: float
    error: Optional[str]
    trace_id: Optional[str]
    steps: Optional[int]
    batch: bool


def _send(client: Client, request: Request) -> Sample:
    start = time.perf_counter()
    try:
        http, body = client.post(request.payload)
    except TransportError as err:
        latency = time.perf_counter() - start
        return Sample(request.stream, latency, str(err), None, None, request.is_batch)
    latency = time.perf_counter() - start
    error = check_response(request.expect, http, body)
    trace_id = steps = None
    if isinstance(body, dict):
        trace_id = body.get("trace_id")
        steps = body.get("stats", {}).get("steps")
    return Sample(request.stream, latency, error, trace_id, steps, request.is_batch)


class Load:
    """Closed-loop callers, one thread and one keep-alive connection
    per request stream: each waits for its reply before sending the
    next request."""

    def __init__(self, daemon: Daemon, streams: List[Iterator[Request]]) -> None:
        self.streams = streams
        self.clients = [Client(daemon.host, daemon.port) for _ in streams]

    def _on_each(self, body: Callable[[int], List[Sample]]) -> List[Sample]:
        results: List[Any] = [None] * len(self.streams)

        def target(i: int) -> None:
            try:
                results[i] = body(i)
            except BaseException as err:  # surfaced on the main thread
                results[i] = err

        threads = [
            threading.Thread(target=target, args=(i,), daemon=True)
            for i in range(len(self.streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        samples: List[Sample] = []
        for result in results:
            if isinstance(result, BaseException):
                raise result
            samples.extend(result)
        return samples

    def warmup(self, requests: int) -> List[Sample]:
        """A fixed number of requests per connection."""
        return self._on_each(
            lambda i: [
                _send(self.clients[i], next(self.streams[i]))
                for _ in range(requests)
            ]
        )

    def window(self, seconds: float) -> Tuple[List[Sample], float]:
        """Send until ``seconds`` have passed; returns the samples and
        the window's actual length (the last reply may overrun it)."""
        start = time.perf_counter()
        deadline = start + seconds

        def loop(i: int) -> List[Sample]:
            samples = []
            while time.perf_counter() < deadline:
                samples.append(_send(self.clients[i], next(self.streams[i])))
            return samples

        samples = self._on_each(loop)
        return samples, time.perf_counter() - start

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _served(samples: List[Sample], stream: str) -> List[float]:
    return [s.latency for s in samples if s.stream == stream and s.error is None]


@dataclass
class PassResult:
    metrics: Metrics
    samples: List[Sample]
    notes: List[str]
    report: Dict[str, Any]


def untraced_pass(workload: Workload, seed: int, seconds: float) -> PassResult:
    """The end-to-end metrics: set-up time, throughput, latency, RSS."""
    streams = workload.streams(seed)
    logs = [OUT / f"{workload.name}-boot{i}.log" for i in range(SETUP_BOOTS)]
    half = SETUP_BOOTS // 2
    setups, daemon = boot_times(workload.flags, SRC, logs[:half], BOOT_GAP_S)
    with daemon:
        load = Load(daemon, streams)
        warm = load.warmup(workload.warmup)
        samples, elapsed = load.window(seconds)
        load.close()
        rss = daemon.peak_rss_mb()
    after, last = boot_times(workload.flags, SRC, logs[half:], BOOT_GAP_S)
    last.stop()
    setups += after
    served = [x * 1e3 for x in _served(samples, workload.measured)]
    metrics: Metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(served) / elapsed, "req/s"),
        "p50_ms": (hd_percentile(served, 0.50), "ms"),
        "p95_ms": (hd_percentile(served, 0.95), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    # A p99 needs 1000 samples to have ten beyond it; the workloads
    # complete fewer in the window, so it is printed, not recorded.
    notes = [
        f"samples {len(served)} count ({workload.measured} stream, window {elapsed:.3f} s)",
        f"p99_ms {hd_percentile(served, 0.99)} ms (n={len(served)}, not recorded)",
    ]
    for stream in sorted({s.stream for s in samples} - {workload.measured}):
        rate = len(_served(samples, stream)) / elapsed
        notes.append(f"batch_throughput_rps {rate} req/s ({stream} stream)")
    every = warm + samples
    failed = sum(1 for s in every if s.error is not None)
    notes.append(f"error_rate {failed / len(every)} fraction")
    report = {"setup_runs_s": setups, "samples": len(served), "window_s": elapsed}
    return PassResult(metrics, every, notes, report)


def _health_delta(before: dict, after: dict) -> Dict[str, float]:
    cache_b, cache_a = before["cache"], after["cache"]
    return {
        "hits": cache_a["hits"] - cache_b["hits"],
        "misses": cache_a["misses"] - cache_b["misses"],
        "evictions": cache_a["evictions"] - cache_b["evictions"],
        "slices": after["scheduler"]["slices"] - before["scheduler"]["slices"],
        "requests": after["requests_total"] - before["requests_total"],
    }


def traced_pass(workload: Workload, seed: int, seconds: float) -> PassResult:
    """The per-layer metrics: stage self times from the daemon's span
    trees, counters from ``/healthz``, and the microbenchmarks."""
    calib_start = micro.calibrate()
    half = seconds / 2
    with Daemon(workload.flags, SRC, OUT / f"{workload.name}-untraced.log") as daemon:
        daemon.start()
        load = Load(daemon, workload.streams(seed))
        plain = load.warmup(workload.warmup)
        plain_window, plain_elapsed = load.window(half)
        load.close()
    trace_log = OUT / f"{workload.name}-trace.jsonl"
    flags = workload.flags + ("--trace-log", str(trace_log))
    with Daemon(flags, SRC, OUT / f"{workload.name}-traced.log") as daemon:
        daemon.start()
        load = Load(daemon, workload.streams(seed))
        warm = load.warmup(workload.warmup)
        before = daemon.get_json("/healthz")
        samples, elapsed = load.window(half)
        after = daemon.get_json("/healthz")
        families = scrape(daemon)
        load.close()
    # The log is complete once the daemon has exited.
    rows = join(
        (
            (s.trace_id, s.latency, s.steps)
            for s in samples
            if s.stream == workload.measured and s.error is None and not s.batch
        ),
        load_traces(trace_log),
    )
    if not rows:
        raise RuntimeError(f"no client request matched a trace in {trace_log}")
    table = stage_table(rows)
    delta = _health_delta(before, after)
    lookups = delta["hits"] + delta["misses"]
    plain_rps = len(_served(plain_window, workload.measured)) / plain_elapsed
    traced_rps = len(_served(samples, workload.measured)) / elapsed
    batch_rps = sum(
        len(_served(samples, s)) for s in {x.stream for x in samples} - {workload.measured}
    ) / elapsed

    def ms(stage: str) -> Tuple[float, str]:
        return (median_when_run(rows, stage) * 1e3, "ms")

    metrics: Metrics = {
        "http.self_ms": ms("http.self"),
        "service.admission_ms": ms("service.admission"),
        "service.breaker_ms": ms("service.breaker"),
        "service.render_ms": ms("service.render"),
        "service.unattributed_ms": ms("service.unattributed"),
        "cache.lookup_ms": ms("cache.lookup"),
        "types.typecheck_ms": ms("types.typecheck"),
        "attempt.self_ms": ms("attempt.self"),
        "snapshot.fork_ms": ms("snapshot.fork"),
        "machine.run_ms": ms("machine.run"),
        "machine.served_ns_per_step": (served_ns_per_step(rows), "ns/step"),
        "stages.coverage": (coverage(rows, table), "ratio"),
        "obs.trace_overhead_pct": ((plain_rps - traced_rps) / plain_rps * 100, "%"),
        "cache.hit_ratio": (delta["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.evictions": (delta["evictions"], "count"),
        "sched.slices_per_req": (
            delta["slices"] / delta["requests"] if delta["requests"] else 0.0,
            "count",
        ),
        "sched.batch_rps": (batch_rps, "req/s"),
    }
    metrics.update(micro.run_all(seed))
    calib_end = micro.calibrate()
    metrics["calib.ns_per_iter"] = (statistics.median([calib_start, calib_end]), "ns")

    notes = [format_table(rows, table)]
    first_slice = histogram_stats(families, "repro_first_slice_seconds")
    if first_slice and first_slice["count"]:
        p50 = percentile_from_counts(first_slice["bounds"], first_slice["counts"], 0.5)
        notes.append(f"sched.first_slice_ms {p50 * 1e3} ms (p50 since boot)")
        notes.append(f"sched.preemptions {after['scheduler']['preemptions']} count")
        notes.append(f"sched.starvation_s {after['scheduler']['starvation_seconds']} s")
    notes.append(f"calib.ns_per_iter start {calib_start} end {calib_end}")
    report = {"stage_table": table, "traced_requests": len(rows)}
    return PassResult(metrics, plain + plain_window + warm + samples, notes, report)


def _print_metrics(metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")


def _failures(samples: List[Sample]) -> None:
    failed = [s for s in samples if s.error is not None]
    for s in failed[:5]:
        print(f"FAILED ({s.stream}): {s.error}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end HTTP benchmark for repro serve.",
    )
    parser.add_argument(
        "--workload",
        default="all",
        choices=["all"] + sorted(WORKLOADS),
        help="one workload, or 'all' recorded workloads (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: end-to-end pass only, 1: traced pass only (default: both)",
    )
    parser.add_argument("--out", help="also write the full report here as JSON")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so every ``with Daemon`` stops its daemon;
    # the callers are daemon threads and do not hold up the exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = RECORDED if args.workload == "all" else (args.workload,)
    passes = [args.trace] if args.trace is not None else [0, 1]
    metrics: Metrics = {}
    samples: List[Sample] = []
    report: Dict[str, Any] = {}
    for name in names:
        # One workload reports bare metric names; several are prefixed.
        prefix = "" if len(names) == 1 else f"{name}/"
        for traced in passes:
            print(f"== {name} ({'traced' if traced else 'end-to-end'}, seed {args.seed})")
            run = traced_pass if traced else untraced_pass
            result = run(WORKLOADS[name], args.seed, args.seconds)
            _print_metrics(result.metrics)
            for note in result.notes:
                print(note)
            _failures(result.samples)
            samples += result.samples
            metrics.update({prefix + m: v for m, v in result.metrics.items()})
            report.setdefault(name, {})["traced" if traced else "end_to_end"] = {
                "metrics": {m: v for m, (v, _u) in result.metrics.items()},
                **result.report,
            }
    failed = sum(1 for s in samples if s.error is not None)
    summary = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "workloads": report}, indent=2))
    print(json.dumps(summary))
    return 0
