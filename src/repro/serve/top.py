"""``repro top``: a live terminal dashboard for a running daemon.

Polls ``GET /healthz`` (structured counters) and ``GET /metrics``
(Prometheus exposition, parsed with
:func:`repro.obs.telemetry.parse_exposition`) and renders a compact
top-style screen: request rate, in-flight, breaker state, cache hit
ratio, governor trips and latency percentiles re-derived client-side
from the histogram bucket counts.

The renderer is a pure function of two consecutive samples —
``render_dashboard(health, families, previous)`` — so the tests drive
it with canned payloads and the polling loop is a thin shell around
injectable fetchers (no live socket needed anywhere in the suite).
"""

from __future__ import annotations

import json
import math
import sys
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.telemetry import parse_exposition, percentile_from_counts

__all__ = ["fetch_endpoints", "render_dashboard", "run_top"]

#: ANSI "clear screen + home" — what ``top`` itself does per frame.
CLEAR = "\x1b[2J\x1b[H"


def fetch_endpoints(
    base_url: str, timeout: float = 5.0
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One polling round: ``(health, parsed exposition families)``."""
    with urllib.request.urlopen(
        base_url + "/healthz", timeout=timeout
    ) as response:
        health = json.loads(response.read())
    with urllib.request.urlopen(
        base_url + "/metrics", timeout=timeout
    ) as response:
        families = parse_exposition(response.read().decode("utf-8"))
    return health, families


def _histogram_series(
    families: Dict[str, Any], name: str
) -> Dict[str, Tuple[List[float], List[int]]]:
    """De-accumulated ``(bounds, counts)`` per label value (the empty
    string for an unlabelled histogram)."""
    family = families.get(name)
    if family is None:
        return {}
    grouped: Dict[str, Tuple[List[float], List[float]]] = {}
    for sample_name, labels, value in family["samples"]:
        if sample_name != name + "_bucket" or "le" not in labels:
            continue
        key = next(
            (v for k, v in sorted(labels.items()) if k != "le"), ""
        )
        bound = (
            math.inf if labels["le"] == "+Inf" else float(labels["le"])
        )
        bounds, cumulative = grouped.setdefault(key, ([], []))
        bounds.append(bound)
        cumulative.append(value)
    series = {}
    for key, (bounds, cumulative) in grouped.items():
        counts = [
            int(c - (cumulative[i - 1] if i else 0))
            for i, c in enumerate(cumulative)
        ]
        series[key] = (bounds, counts)
    return series


def _fmt_ms(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_counts(counts: Dict[str, Any]) -> str:
    if not counts:
        return "—"
    return " · ".join(f"{k} {v}" for k, v in sorted(counts.items()))


def render_dashboard(
    health: Dict[str, Any],
    families: Dict[str, Any],
    previous: Optional[Tuple[float, Dict[str, Any]]] = None,
    now: Optional[float] = None,
    url: str = "",
) -> str:
    """One frame.  ``previous`` is ``(timestamp, health)`` from the
    last poll — when present, the requests line carries a rate."""
    total = health.get("requests_total", 0)
    rate = ""
    if previous is not None and now is not None:
        then, old_health = previous
        elapsed = now - then
        if elapsed > 0:
            delta = total - old_health.get("requests_total", 0)
            rate = f" ({delta / elapsed:+.1f}/s)"

    breaker = health.get("breaker") or {}
    cache = health.get("cache") or {}
    batches = health.get("batches") or {}
    telemetry = health.get("telemetry") or {}
    lines = [
        f"repro top — {url or 'service'}"
        f" · backend={health.get('backend', '?')}"
        f" · up {health.get('uptime_seconds', 0):.1f}s",
        f"requests   total {total}{rate}"
        f"   in-flight {health.get('in_flight', 0)}",
        f"statuses   {_fmt_counts(health.get('requests', {}))}",
    ]

    request_series = _histogram_series(families, "repro_request_seconds")
    if "" in request_series:
        bounds, counts = request_series[""]
        observed = sum(counts)
        percentiles = " · ".join(
            f"{label} {_fmt_ms(percentile_from_counts(bounds, counts, q))}"
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
        )
        lines.append(f"latency    {percentiles}  ({observed} obs)")

    stage_series = _histogram_series(families, "repro_stage_seconds")
    if stage_series:
        stages = " · ".join(
            f"{stage} {_fmt_ms(percentile_from_counts(b, c, 0.5))}"
            for stage, (b, c) in sorted(stage_series.items())
        )
        lines.append(f"stages p50 {stages}")

    lines.append(
        f"breaker    {breaker.get('state', '?')}"
        f"   retries {health.get('retries_performed', 0)}"
        f"   faults {health.get('faults_injected', 0)}"
    )
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    looked = hits + misses
    ratio = f" ({hits / looked:.1%} hit)" if looked else ""
    lines.append(
        f"cache      hits {hits} / misses {misses}{ratio}"
        f"   batches {batches.get('total', 0)}"
        f" (programs {batches.get('programs', 0)})"
    )
    lines.append(
        f"governor   {_fmt_counts(health.get('governor_trips', {}))}"
    )
    sched = health.get("scheduler") or {}
    if sched.get("mode") == "cooperative":
        slice_rate = ""
        if previous is not None and now is not None:
            then, old_health = previous
            elapsed = now - then
            old_slices = (old_health.get("scheduler") or {}).get(
                "slices", 0
            )
            if elapsed > 0:
                delta = sched.get("slices", 0) - old_slices
                slice_rate = f" ({delta / elapsed:+.1f}/s)"
        lines.append(
            f"scheduler  cooperative · {sched.get('workers', 0)}w ×"
            f" {sched.get('slice_steps', 0)} steps"
            f"   queue {sched.get('run_queue_depth', 0)}"
            f"   tenants {sched.get('active_tenants', 0)}"
        )
        lines.append(
            f"slices     {sched.get('slices', 0)}{slice_rate}"
            f"   preemptions {sched.get('preemptions', 0)}"
            f"   starvation "
            f"{sched.get('starvation_seconds', 0.0):.3f}s"
        )
    elif sched:
        lines.append(
            f"scheduler  threads ·"
            f" {sched.get('workers', 0)} max concurrent"
        )
    lines.append(
        f"traces     recorded {telemetry.get('traces_recorded', 0)}"
        f" · ring {telemetry.get('traces_retained', 0)}"
        f"/{telemetry.get('trace_ring', 0)}"
        + ("" if telemetry.get("enabled", True) else " · telemetry OFF")
    )
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    fetch: Callable[
        [str], Tuple[Dict[str, Any], Dict[str, Any]]
    ] = fetch_endpoints,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    out=None,
) -> int:
    """The polling loop.  ``iterations=None`` runs until interrupted;
    tests pass a bounded count and injected fetch/clock/sleep/out."""
    out = out if out is not None else sys.stdout
    previous: Optional[Tuple[float, Dict[str, Any]]] = None
    remaining = iterations
    while remaining is None or remaining > 0:
        try:
            health, families = fetch(url)
        except OSError as err:
            print(f"repro top: {url} unreachable: {err}", file=out)
            return 1
        now = clock()
        frame = render_dashboard(
            health, families, previous, now=now, url=url
        )
        if clear:
            out.write(CLEAR)
        out.write(frame + "\n")
        out.flush()
        previous = (now, health)
        if remaining is not None:
            remaining -= 1
            if remaining == 0:
                break
        try:
            sleep(interval)
        except KeyboardInterrupt:
            break
    return 0
