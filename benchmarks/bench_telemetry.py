"""E19 — service telemetry is free when off (and cheap when on).

The serving layer's telemetry (docs/OBSERVABILITY.md, "Service
telemetry") makes the same pay-as-you-go promise the observability
sinks made in E1b: with ``--no-telemetry`` the service carries a
:class:`~repro.obs.telemetry.NullRegistry` and the null trace builder,
neither of which ever reaches the machine — so the machine executes
the *identical* step/allocation sequence, on every backend.  The
acceptance bar is 0% machine-step overhead, asserted as exact
equality workload by workload.

Stronger still: because request and trace ids are minted from the
service's own deterministic sequence counter (not the clock, not the
registry), the **entire response body** is byte-identical between a
telemetry-on and a telemetry-off service fed the same requests.  The
instruments observe the request from outside; they never steer it.

Wall-clock per-request medians for both configurations are recorded
(``*_seconds`` — reported, never gated) so the on-path cost stays
visible in the BENCH_E19 rows.

The served tick has a deterministic cost counter too:
``served_slow_ticks`` is how many times one served ``fib 15`` request
enters ``Machine._tick_slow``.  The step watermark sends a tick down
the slow path only at the steps a consumer asked for — for the
default governor, every ``DEADLINE_STRIDE``-th step — so the count is
at most ⌈steps / 64⌉ plus one per trip, instead of one per step.
``repro bench`` gates it exactly (any growth fails).

Regenerates: the BENCH_E19 rows.
"""

import json
import math
import statistics
import time

import pytest

from benchmarks.conftest import bench_record
from repro.machine import BACKENDS, Machine
from repro.obs.telemetry import NullRegistry, histogram_stats, parse_exposition
from repro.serve import EvalService, ServiceConfig
from repro.serve.governor import DEADLINE_STRIDE

#: One setup-light and one eval-heavy workload per backend: the former
#: maximises the relative weight of any hidden telemetry cost, the
#: latter shows the machine-dominated case.
E19_WORKLOADS = {
    "arith": "1 + 2 * 3 - 4",
    "sumsq": "sum (map (\\x -> x * x) (enumFromTo 1 50))",
}

_REQUESTS = 9


def _service(backend: str, telemetry: bool) -> EvalService:
    return EvalService(
        ServiceConfig(backend=backend, warm=True, telemetry=telemetry)
    )


def _drive(service: EvalService, source: str):
    """Send the workload ``_REQUESTS`` times; return (bodies, p50)."""
    bodies = []
    times = []
    for _ in range(_REQUESTS):
        start = time.perf_counter()
        status, body, _retry = service.handle({"expr": source})
        times.append(time.perf_counter() - start)
        assert status == 200, body
        bodies.append(body)
    return bodies, statistics.median(times)


class TestTelemetryIsFreeWhenOff:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(E19_WORKLOADS))
    def test_step_parity_and_body_parity(self, backend, name):
        """Telemetry off vs on: identical machine counters (0% step
        overhead) and byte-identical response bodies."""
        source = E19_WORKLOADS[name]
        off_bodies, off_p50 = _drive(_service(backend, False), source)
        on_bodies, on_p50 = _drive(_service(backend, True), source)
        off_steps = sum(b["stats"]["steps"] for b in off_bodies)
        on_steps = sum(b["stats"]["steps"] for b in on_bodies)
        bench_record(
            "E19",
            workload=name,
            backend=backend,
            requests=_REQUESTS,
            off_steps=off_steps,
            on_steps=on_steps,
            overhead_pct=round(
                100.0 * (on_steps - off_steps) / off_steps, 4
            ),
            off_p50_seconds=round(off_p50, 6),
            on_p50_seconds=round(on_p50, 6),
        )
        assert on_steps == off_steps
        assert json.dumps(on_bodies, sort_keys=True) == json.dumps(
            off_bodies, sort_keys=True
        )

    def test_off_means_null_registry_and_empty_exposition(self):
        service = _service("ast", telemetry=False)
        assert isinstance(service.registry, NullRegistry)
        assert service.tracer is None
        service.handle({"expr": "1 + 2"})
        assert service.metrics_text() == ""
        assert service.get_trace("0000000000000001") is None


FIB15 = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 15"
)


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_slow_ticks(backend, monkeypatch):
    """One served request takes the slow tick at the governor's
    deadline stride (plus once per trip), not at every step."""
    service = _service(backend, telemetry=True)
    service.handle({"expr": FIB15})  # warm the program cache
    entries = []
    slow = Machine._tick_slow

    def counted(machine):
        entries.append(machine.stats.steps)
        slow(machine)

    monkeypatch.setattr(Machine, "_tick_slow", counted)
    status, body, _retry = service.handle({"expr": FIB15})
    assert status == 200 and body["value"] == "610", body
    steps = body["stats"]["steps"]
    trips = 1 if "trip" in body else 0
    bench_record(
        "E19",
        workload="served-fib15",
        backend=backend,
        steps=steps,
        served_slow_ticks=len(entries),
    )
    assert len(entries) <= math.ceil(steps / DEADLINE_STRIDE) + trips


class TestTelemetryOnAccounting:
    """The on-path must earn its keep: the request histogram's count
    equals ``requests_total`` exactly, on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_histogram_count_matches_requests_total(self, backend):
        service = _service(backend, telemetry=True)
        for source in ("1 + 2", "head []", "(", "3 * 3"):
            service.handle({"expr": source})
        families = parse_exposition(service.metrics_text())
        stats = histogram_stats(families, "repro_request_seconds")
        assert stats is not None
        assert stats["count"] == service.health()["requests_total"] == 4


@pytest.mark.benchmark(group="E19-telemetry-overhead")
@pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
def test_bench_request(benchmark, telemetry):
    service = _service("ast", telemetry)
    source = E19_WORKLOADS["sumsq"]
    service.handle({"expr": source})  # warm the cache first
    benchmark(lambda: service.handle({"expr": source}))
