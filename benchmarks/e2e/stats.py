"""Percentiles, span self times and the "where a request's time goes"
stage table.

A daemon trace (one ``--trace-log`` JSONL line per request) holds a
span tree with durations only.  The children of a span run one after
another on the request's behalf, so a span's *self time* is its
duration minus the sum of its children's durations, and the self times
of a tree add up to the root ``request`` span exactly.  The client's
own latency minus that root is the HTTP layer's share
(``http.self``): socket, header and JSON handling on both sides, plus
any time the bytes sat in the kernel.  Per request, the stages below
therefore partition the client latency.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Daemon span name -> stage name.  ``attempt`` self time is what the
#: attempt does outside its fork and machine-run children: ``super``
#: codegen (on a cache miss) and attaching the sink and governor.
STAGES: Dict[str, str] = {
    "request": "service.unattributed",
    "admission": "service.admission",
    "breaker": "service.breaker",
    "cache-lookup": "cache.lookup",
    "typecheck": "types.typecheck",
    "attempt": "attempt.self",
    "fork": "snapshot.fork",
    "machine-run": "machine.run",
    "render": "service.render",
}
HTTP_STAGE = "http.self"
#: Stage order for the table: the path a request takes.
STAGE_ORDER: Tuple[str, ...] = (HTTP_STAGE,) + tuple(STAGES.values())


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between the
    two nearest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def hd_percentile(values: Sequence[float], q: float) -> float:
    """The Harrell–Davis estimate of the ``q``-quantile: a weighted mean
    of every order statistic, weighted by the ``Beta(q(n+1),
    (1-q)(n+1))`` density (here its normal approximation, fine from a
    few hundred samples up).

    The recorded latency percentiles use it because, unlike a single
    order statistic, it moves smoothly when latencies cluster on a few
    values — as they do when delayed ACKs round every reply up to the
    kernel's 4 ms timer tick."""
    ordered = sorted(values)
    n = len(ordered)
    sd = math.sqrt(q * (1 - q) / (n + 2))
    if n < 2 or sd == 0:
        return percentile(ordered, q)

    def cdf(x: float) -> float:
        return 0.5 * (1 + math.erf((x - q) / (sd * math.sqrt(2))))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def self_times(span: dict) -> Dict[str, float]:
    """Seconds of self time per stage in one span tree (a stage seen
    twice, e.g. a retried attempt, is summed).  Unknown span names keep
    their own stage, ``other.<name>``, so no time is hidden."""
    out: Dict[str, float] = {}
    stack = [span]
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        own = node["duration_seconds"] - sum(c["duration_seconds"] for c in children)
        stage = STAGES.get(node["name"], "other." + node["name"])
        out[stage] = out.get(stage, 0.0) + own
        stack.extend(children)
    return out


def load_traces(path: Path) -> Dict[str, dict]:
    """``trace_id -> root span`` for every top-level request in a
    ``--trace-log`` file.  Batch envelopes and their per-program child
    traces are skipped: one HTTP request cannot be split among them."""
    traces: Dict[str, dict] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("event") != "trace" or "parent" in record:
            continue
        if "children" in record["spans"].get("attrs", {}):
            continue  # a batch envelope
        traces[record["trace_id"]] = record["spans"]
    return traces


#: Row keys that are not stages.
_META = {"latency", "steps"}


def join(
    client: Iterable[Tuple[str, float, int]], traces: Dict[str, dict]
) -> List[Dict[str, float]]:
    """Per-request stage seconds for each ``(trace_id, latency,
    steps)`` the client recorded whose trace the daemon logged; each
    row also carries the client ``latency`` and the body's ``steps``."""
    rows = []
    for trace_id, latency, steps in client:
        root = traces.get(trace_id)
        if root is None:
            continue
        row = self_times(root)
        row[HTTP_STAGE] = latency - root["duration_seconds"]
        row["latency"] = latency
        row["steps"] = steps
        rows.append(row)
    return rows


def near_p50(rows: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """The requests whose client latency ranks in the middle fifth (the
    40th to 60th percentile): the requests the client p50 describes."""
    ordered = sorted(rows, key=lambda r: r["latency"])
    lo = int(0.4 * len(ordered))
    return ordered[lo : max(lo + 1, math.ceil(0.6 * len(ordered)))]


def stage_table(rows: List[Dict[str, float]]) -> List[dict]:
    """One row per stage: how often it runs, its median self time when
    it runs, and its median over the requests near the client p50 (0
    where it did not run) — the column that must add up to the p50.

    Summing each stage's median over *all* requests would not: when a
    costly stage runs for a minority (cold-mix typechecks a quarter of
    its requests), it lifts the p50 while its own median stays 0."""
    stages = [s for s in STAGE_ORDER if any(s in r for r in rows)]
    stages += sorted({k for r in rows for k in r} - set(stages) - _META)
    band = near_p50(rows)
    table = []
    for stage in stages:
        present = [r[stage] for r in rows if stage in r]
        table.append(
            {
                "stage": stage,
                "share": len(present) / len(rows),
                "median_when_run": statistics.median(present),
                "median_near_p50": statistics.median(r.get(stage, 0.0) for r in band),
            }
        )
    return table


def coverage(rows: List[Dict[str, float]], table: List[dict]) -> float:
    """Sum of the per-stage medians near the p50 over the client p50:
    1.0 when the stages account for a typical request exactly."""
    return sum(t["median_near_p50"] for t in table) / statistics.median(
        r["latency"] for r in rows
    )


def format_table(rows: List[Dict[str, float]], table: List[dict]) -> str:
    p50 = statistics.median(r["latency"] for r in rows)
    lines = [
        f"Where a request's time goes ({len(rows)} traced requests, "
        f"client p50 {p50 * 1e3:.3f} ms)",
        f"  {'stage':<22} {'runs in':>8} {'median when run':>16} "
        f"{'median near p50':>16} {'of p50':>7}",
    ]
    for t in table:
        lines.append(
            f"  {t['stage']:<22} {t['share']:>7.0%} "
            f"{t['median_when_run'] * 1e3:>13.3f} ms "
            f"{t['median_near_p50'] * 1e3:>13.3f} ms {t['median_near_p50'] / p50:>7.1%}"
        )
    total = sum(t["median_near_p50"] for t in table)
    lines.append(
        f"  {'sum of medians':<22} {'':>8} {'':>16} "
        f"{total * 1e3:>13.3f} ms {total / p50:>7.1%}"
    )
    return "\n".join(lines)


def median_when_run(rows: List[Dict[str, float]], stage: str) -> float:
    """Median self time of ``stage`` over the requests that ran it (0
    when none did)."""
    values = [r[stage] for r in rows if stage in r]
    return statistics.median(values) if values else 0.0


def served_ns_per_step(rows: List[Dict[str, float]]) -> float:
    """Median ``machine-run`` nanoseconds per machine step, over the
    requests that ran the machine for at least one step."""
    values = [
        r["machine.run"] / r["steps"] * 1e9
        for r in rows
        if r["steps"] and "machine.run" in r
    ]
    return statistics.median(values) if values else 0.0
