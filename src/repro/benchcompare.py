"""``repro bench`` — re-run the claim benchmarks and gate on drift.

The benchmark suite regenerates the paper's *claims* (E1, E1b, E2,
E13) and records each measured row into ``BENCH_<experiment>.json``
(see ``benchmarks/conftest.py``).  This module closes the loop: run
the suite into a fresh directory, diff the fresh records against the
checked-in seeds (``benchmarks/records/``), print a delta table, and
fail — exit status 1 — when any *deterministic* metric regressed by
more than :data:`REGRESSION_THRESHOLD_PCT` percent (or, for the
:data:`EXACT_METRICS`, grew at all).

Wall-clock-derived fields (``*_seconds``, ``speedup*``) are reported
but never gated: they vary with the host, and the repo's performance
claims are counter-based (machine steps, allocations, thunks forced —
all exactly reproducible).  Every excluded field is listed in the
table as ``(not gated)`` rather than silently dropped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Experiment -> the benchmark file that regenerates it.
EXPERIMENT_SOURCES: Dict[str, str] = {
    "E1": "benchmarks/bench_no_cost.py",
    "E1b": "benchmarks/bench_trace_overhead.py",
    "E2": "benchmarks/bench_explicit_encoding.py",
    "E13": "benchmarks/bench_compiled.py",
    "E16": "benchmarks/bench_warm_serve.py",
    "E18": "benchmarks/bench_superop.py",
    "E19": "benchmarks/bench_telemetry.py",
    "E20": "benchmarks/bench_scheduler.py",
}

#: Where the seed records live (checked in, regenerated with
#: ``repro bench --update``).
DEFAULT_SEED_DIR = "benchmarks/records"

#: A deterministic metric may grow this much (percent) before the
#: gate fails.  Counters are exactly reproducible, so any drift at all
#: is a real behaviour change; the slack exists so a deliberate small
#: change (a few extra steps from a new feature) needs only a seed
#: refresh review, not an emergency.
REGRESSION_THRESHOLD_PCT = 20.0

#: Deterministic metrics gated with no slack: any growth fails.  These
#: are costs a change is expected to hold or lower, never trade away.
EXACT_METRICS = frozenset(
    {
        "served_slow_ticks",
        "fused_compiles_first_pass",
        "fused_compiles_second_pass",
        "prelude_env_builds",
    }
)


def _is_wallclock(name: str) -> bool:
    """Fields derived from wall-clock timing — reported, never gated.
    Covers ``*seconds*`` and ``speedup*`` plus the fairness fields E20
    derives from throughput measurements (``jain*``, ``*_ratio``) and
    the generic ``*_wall`` suffix for counts that depend on how much
    wall-clock a measurement window happened to contain."""
    return (
        "seconds" in name
        or name.startswith("speedup")
        or name.startswith("jain")
        or name.endswith("_ratio")
        or name.endswith("_wall")
    )


def _row_key(row: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Identify a row by its string-valued fields (workload, axis, ...)."""
    return tuple(
        sorted((k, v) for k, v in row.items() if isinstance(v, str))
    )


def load_records(directory: str) -> Dict[str, List[dict]]:
    """Load every ``BENCH_*.json`` in ``directory`` -> experiment rows."""
    records: Dict[str, List[dict]] = {}
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            data = json.load(fh)
        records[data["experiment"]] = data["rows"]
    return records


@dataclass
class Delta:
    """One compared metric of one row."""

    experiment: str
    row: str  # human row label, e.g. "workload=fib axis=steps"
    metric: str
    seed: Any
    fresh: Any
    pct: Optional[float]  # None when not numeric / seed missing
    gated: bool

    @property
    def regressed(self) -> bool:
        if not self.gated or self.pct is None:
            return False
        if self.metric in EXACT_METRICS:
            return self.pct > 0
        return self.pct > REGRESSION_THRESHOLD_PCT


@dataclass
class BenchComparison:
    """The full diff between seed records and a fresh run."""

    deltas: List[Delta] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.problems

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "threshold_pct": REGRESSION_THRESHOLD_PCT,
            "problems": list(self.problems),
            "regressions": [
                {
                    "experiment": d.experiment,
                    "row": d.row,
                    "metric": d.metric,
                    "seed": d.seed,
                    "fresh": d.fresh,
                    "pct": d.pct,
                }
                for d in self.regressions
            ],
            "deltas": [
                {
                    "experiment": d.experiment,
                    "row": d.row,
                    "metric": d.metric,
                    "seed": d.seed,
                    "fresh": d.fresh,
                    "pct": d.pct,
                    "gated": d.gated,
                }
                for d in self.deltas
            ],
        }

    def table(self) -> str:
        lines = [
            f"bench: {len(self.deltas)} metrics compared, "
            f"{len(self.regressions)} regression(s), gate >"
            f"{REGRESSION_THRESHOLD_PCT:g}%"
        ]
        header = ("experiment", "row", "metric", "seed", "fresh", "delta")
        rows = [header]
        for d in self.deltas:
            if d.pct is None:
                delta = "-"
            else:
                delta = f"{d.pct:+.1f}%"
            if not d.gated:
                delta += " (not gated)"
            elif d.regressed:
                delta += "  << REGRESSION"
            rows.append(
                (
                    d.experiment,
                    d.row,
                    d.metric,
                    str(d.seed),
                    str(d.fresh),
                    delta,
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        for problem in self.problems:
            lines.append(f"PROBLEM: {problem}")
        return "\n".join(lines)


def _label(key: Tuple[Tuple[str, str], ...]) -> str:
    return " ".join(f"{k}={v}" for k, v in key) or "<row>"


def compare_records(
    seed: Dict[str, List[dict]], fresh: Dict[str, List[dict]]
) -> BenchComparison:
    """Diff fresh benchmark records against the seeds."""
    comparison = BenchComparison()
    for experiment, seed_rows in sorted(seed.items()):
        fresh_rows = fresh.get(experiment)
        if fresh_rows is None:
            comparison.problems.append(
                f"{experiment}: no fresh records (benchmark did not run?)"
            )
            continue
        fresh_by_key = {_row_key(r): r for r in fresh_rows}
        for seed_row in seed_rows:
            key = _row_key(seed_row)
            fresh_row = fresh_by_key.get(key)
            if fresh_row is None:
                comparison.problems.append(
                    f"{experiment}: row {_label(key)} missing from the "
                    "fresh run"
                )
                continue
            for metric, seed_val in seed_row.items():
                if isinstance(seed_val, str):
                    continue
                fresh_val = fresh_row.get(metric)
                gated = not _is_wallclock(metric)
                pct: Optional[float] = None
                if isinstance(fresh_val, (int, float)) and isinstance(
                    seed_val, (int, float)
                ):
                    if seed_val != 0:
                        pct = 100.0 * (fresh_val - seed_val) / abs(seed_val)
                    elif fresh_val == 0:
                        pct = 0.0
                    else:
                        # A metric whose seed is exactly 0 (e.g. the
                        # E1b overhead) turning nonzero is an infinite
                        # relative regression.
                        pct = float("inf") if fresh_val > 0 else 0.0
                elif gated:
                    comparison.problems.append(
                        f"{experiment}: row {_label(key)} metric "
                        f"{metric} is not comparable "
                        f"({seed_val!r} vs {fresh_val!r})"
                    )
                comparison.deltas.append(
                    Delta(
                        experiment=experiment,
                        row=_label(key),
                        metric=metric,
                        seed=seed_val,
                        fresh=fresh_val,
                        pct=pct,
                        gated=gated,
                    )
                )
    for experiment in sorted(set(fresh) - set(seed)):
        comparison.problems.append(
            f"{experiment}: fresh records have no checked-in seed "
            "(run `repro bench --update`)"
        )
    return comparison


def _pytest_command(files: List[str]) -> List[str]:
    return [
        sys.executable,
        "-m",
        "pytest",
        "--benchmark-disable",
        "-q",
        "-p",
        "no:cacheprovider",
        *files,
    ]


def run_benchmarks(
    out_dir: str,
    experiments: Optional[List[str]] = None,
    repo_root: str = ".",
    jobs: int = 1,
) -> int:
    """Run the claim benchmarks, recording into ``out_dir``.

    Timing plugins are disabled (``--benchmark-disable``): the gate is
    about the claim-shape assertions and the deterministic counters,
    exactly as the CI perf-smoke job runs them.  Returns pytest's exit
    status (the worst one, when running in parallel).

    ``jobs`` > 1 runs up to that many experiments concurrently, one
    pytest subprocess per benchmark file (``jobs=0`` means one worker
    per experiment).  This is safe because each file records a
    distinct ``BENCH_<experiment>.json`` into the shared ``out_dir``,
    and correct because the counters being recorded are deterministic
    per process — a parallel run must produce byte-identical records
    to a serial one.  Worker output is buffered and replayed in
    experiment order, so the console transcript is deterministic too.
    """
    chosen = experiments or sorted(EXPERIMENT_SOURCES)
    unknown = [e for e in chosen if e not in EXPERIMENT_SOURCES]
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {unknown}; "
            f"choose from {sorted(EXPERIMENT_SOURCES)}"
        )
    env = dict(os.environ)
    env["REPRO_BENCH_DIR"] = os.path.abspath(out_dir)

    if jobs == 0:
        jobs = len(chosen)
    if jobs <= 1 or len(chosen) <= 1:
        completed = subprocess.run(
            _pytest_command([EXPERIMENT_SOURCES[e] for e in chosen]),
            cwd=repo_root,
            env=env,
        )
        return completed.returncode

    from concurrent.futures import ThreadPoolExecutor

    def run_one(experiment: str) -> "subprocess.CompletedProcess[bytes]":
        return subprocess.run(
            _pytest_command([EXPERIMENT_SOURCES[experiment]]),
            cwd=repo_root,
            env=env,
            capture_output=True,
        )

    with ThreadPoolExecutor(max_workers=min(jobs, len(chosen))) as pool:
        completed_runs = list(pool.map(run_one, chosen))

    status = 0
    for experiment, completed in zip(chosen, completed_runs):
        sys.stdout.write(f"[{experiment}] ")
        sys.stdout.flush()
        sys.stdout.buffer.write(completed.stdout)
        sys.stdout.flush()
        if completed.returncode != 0:
            sys.stderr.buffer.write(completed.stderr)
            sys.stderr.flush()
            status = max(status, completed.returncode)
    return status
