"""Self-tests for the end-to-end benchmark: its generators, oracle and
statistics, plus a short run against a real daemon."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.oracle import (
    Raises,
    Value,
    check_response,
    denoted_raises,
    reference,
)
from benchmarks.e2e.stats import (
    coverage,
    hd_percentile,
    join,
    load_traces,
    percentile,
    self_times,
    stage_table,
)
from benchmarks.e2e.workloads import RECORDED, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _payloads(name, seed, n=30):
    return [
        [r.payload for r in itertools.islice(stream, n)]
        for stream in WORKLOADS[name].streams(seed)
    ]


@pytest.mark.parametrize("name", RECORDED)
def test_generators_are_deterministic_per_seed(name):
    assert _payloads(name, 1) == _payloads(name, 1)
    assert _payloads(name, 1) != _payloads(name, 2)


def _body(status, **fields):
    base = {"attempts": 1, "stats": {"steps": 1}, "request_id": 1, "trace_id": "1"}
    return {"status": status, **base, **fields}


def test_oracle_rejects_a_planted_wrong_value():
    expect = reference("1 + 2 * 3 - 4")
    assert expect == Value("3")
    assert check_response(expect, 200, _body("value", value="3")) is None
    assert check_response(expect, 200, _body("value", value="4")) is not None
    # A value outside its schema (an unknown field) is a failure too.
    assert check_response(expect, 200, _body("value", value="3", x=1)) is not None
    assert check_response(expect, 500, {"status": "error"}) is not None


def test_oracle_accepts_any_member_of_the_denoted_set_and_nothing_else():
    src = '(1 `div` 0) + error "Urk"'
    expect = reference(src)
    assert expect == denoted_raises(src)
    assert expect.names == {"DivideByZero", "UserError"}
    for member in ("DivideByZero", "UserError"):
        body = _body("exceptional", exc=member, synchronous=True)
        assert check_response(expect, 200, body) is None
    planted = _body("exceptional", exc="Overflow", synchronous=True)
    assert check_response(expect, 200, planted) is not None
    assert check_response(Raises(frozenset({"UserError"})), 200, planted) is not None


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 0.5) == 2.5
    assert percentile([1, 2, 3, 4], 0.0) == 1
    assert percentile([1, 2, 3, 4], 1.0) == 4
    assert percentile([1, 2, 3, 4, 5], 0.95) == pytest.approx(4.8)
    assert percentile([7.0], 0.99) == 7.0


def test_harrell_davis_percentile_moves_smoothly_between_clustered_values():
    assert hd_percentile([5.0] * 40, 0.95) == pytest.approx(5.0)
    assert hd_percentile(list(range(1, 102)), 0.5) == pytest.approx(51, abs=0.01)
    # Latencies on two values: the plain median jumps from one to the
    # other as the split passes 50%; the estimate moves gradually.
    low = hd_percentile([44.0] * 260 + [48.0] * 240, 0.5)
    high = hd_percentile([44.0] * 240 + [48.0] * 260, 0.5)
    assert 44 < low < 46 < high < 48


def _span(name, ms, *children):
    span = {"name": name, "duration_seconds": ms / 1e3}
    if children:
        span["children"] = list(children)
    return span


TREE = _span(
    "request",
    10,
    _span("admission", 1),
    _span("cache-lookup", 2),
    _span("attempt", 5, _span("fork", 1), _span("machine-run", 3)),
    _span("render", 1),
)


def test_self_times_of_a_hand_built_span_tree():
    own = {k: round(v * 1e3, 9) for k, v in self_times(TREE).items()}
    assert own == {
        "service.unattributed": 1,
        "service.admission": 1,
        "cache.lookup": 2,
        "attempt.self": 1,
        "snapshot.fork": 1,
        "machine.run": 3,
        "service.render": 1,
    }
    assert sum(own.values()) == 10


def test_join_stage_table_and_coverage(tmp_path):
    log = tmp_path / "trace.jsonl"
    records = [
        {"event": "trace", "trace_id": "a", "spans": TREE},
        {"event": "trace", "trace_id": "b", "spans": _span("request", 4, _span("typecheck", 3))},
        # A batch envelope and one of its programs: not joinable.
        {"event": "trace", "trace_id": "c", "spans": {**_span("request", 9), "attrs": {"children": ["d"]}}},
        {"event": "trace", "trace_id": "d", "parent": "c", "spans": _span("request", 8)},
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    traces = load_traces(log)
    assert sorted(traces) == ["a", "b"]
    rows = join([("a", 0.012, 100), ("b", 0.005, 0), ("c", 0.011, 0)], traces)
    assert len(rows) == 2
    assert rows[0]["http.self"] == pytest.approx(0.002)
    assert rows[1]["http.self"] == pytest.approx(0.001)
    table = {t["stage"]: t for t in stage_table(rows)}
    assert table["types.typecheck"]["share"] == 0.5
    assert table["types.typecheck"]["median_when_run"] == pytest.approx(0.003)
    assert table["types.typecheck"]["median_near_p50"] == pytest.approx(0.0015)
    assert table["machine.run"]["median_near_p50"] == pytest.approx(0.0015)
    # Each row's stages add up to its latency; two rows -> medians are means.
    assert coverage(rows, list(table.values())) == pytest.approx(1.0)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )


def test_smoke_run_reports_every_benchmark_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = _run(["--workload", "warm-mix", "--seed", "1", "--seconds", "2"], ROOT)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert names == set(result["metrics"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    run = _run(["--workload", "warm-mix", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert run.returncode != 0
    assert run.stdout.strip() == ""
