"""The fault-driven soak: the ISSUE's acceptance gate for the service.

Hundreds of concurrent requests with chaos-mode fault injection on —
the service must survive with zero hung requests, zero unhandled
Python exceptions, every response inside the documented schema, and
the circuit breaker must be seen opening *and* closing.  The clock and
sleeps are injected, so the whole thing is deterministic-modulo-thread-
interleaving and runs in seconds.
"""

import threading

import pytest

from repro.machine import BACKENDS
from repro.serve import EvalService, ServiceConfig
from tests.serve.test_service import FakeClock, assert_in_schema

LOOP = "let { loop = \\x -> loop x } in loop 1"
FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 10"
)

#: The mixed workload, cycled by request index: mostly values, some
#: exceptional outcomes, some recoveries, a sprinkle of step-limit
#: trips and client errors.
WORKLOAD = [
    FIB,
    "1 + 2 * 3",
    "1 `div` 0",
    'putStr "soak"',
    "head []",
    "catchIO (getException (1 `div` 0)) (\\r -> returnIO 0)",
    "sum [1, 2, 3, 4, 5]",
    "let { xs = 1 : xs } in head xs",
    "length [1, 2, 3]",
    LOOP,
]

TOTAL_REQUESTS = 520
WORKERS = 8


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_driven_soak(backend):
    clock = FakeClock()
    config = ServiceConfig(
        backend=backend,
        max_steps=50_000,
        max_allocations=200_000,
        deadline_seconds=None,  # the fake clock never advances
        max_concurrency=WORKERS,
        queue_depth=TOTAL_REQUESTS,  # admission never rejects the soak
        retries=1,
        breaker_threshold=5,
        breaker_reset_seconds=2.0,
        fault_seed=2026,
        # Interrupt steps are drawn from [1, horizon]; keeping the
        # horizon above max_steps means a divergent request sometimes
        # trips the step governor first and sometimes takes the
        # injected interrupt — both paths get soaked.
        fault_horizon=100_000,
    )
    service = EvalService(config, clock=clock, sleep=lambda s: None)

    results = []
    errors = []
    lock = threading.Lock()
    indices = iter(range(TOTAL_REQUESTS))
    index_lock = threading.Lock()

    def worker():
        while True:
            with index_lock:
                index = next(indices, None)
            if index is None:
                return
            try:
                status, body, retry_after = service.handle(
                    {"expr": WORKLOAD[index % len(WORKLOAD)]}
                )
            except Exception as err:  # the gate: nothing may escape
                with lock:
                    errors.append((index, repr(err)))
                return
            with lock:
                results.append((index, status, body))

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    # Zero hung requests: every worker came home, every request has a
    # recorded response.
    assert all(not t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == TOTAL_REQUESTS

    # Every response is inside the documented schema.
    statuses = {}
    for _index, http_status, body in results:
        assert http_status in (200, 400, 429, 503)
        assert_in_schema(body)
        statuses[body["status"]] = statuses.get(body["status"], 0) + 1

    # The workload's variety actually showed up.
    assert statuses.get("value", 0) > 0
    assert statuses.get("exceptional", 0) > 0
    assert statuses.get("resource-exhausted", 0) > 0
    assert service.faults_injected > 0

    # Health is coherent after the storm.
    health = service.health()
    assert health["in_flight"] == 0
    assert sum(health["requests"].values()) == TOTAL_REQUESTS
    assert health["governor_trips"].get("steps", 0) > 0

    # -- breaker opens AND closes, deterministically ---------------------
    # Settle any state the soak left behind: let a probe through and
    # close the breaker with known-good requests.
    clock.advance(config.breaker_reset_seconds + 0.5)
    for _ in range(2):
        service.handle({"expr": "1 + 1"})
    assert service.breaker.state == "closed"

    # Hammer with failing requests until the breaker opens: an
    # ill-typed program the machine gets stuck on is a 500
    # internal-error, a breaker failure (a divergent program's step
    # trip is not).  With chaos mode on, an individual attempt may
    # take an injected interrupt first, so this is a bounded loop, not
    # exactly ``threshold`` requests — but the seeds are deterministic,
    # so the run is replayable.
    for _ in range(100):
        service.handle({"expr": "1 + True"})
        if service.breaker.state == "open":
            break
    assert service.breaker.state == "open"

    status, body, retry_after = service.handle({"expr": "1 + 1"})
    assert status == 503
    assert body["reason"] == "circuit-open"
    assert retry_after > 0

    clock.advance(config.breaker_reset_seconds + 0.5)
    status, body, _ = service.handle({"expr": "1 + 1"})
    assert status == 200
    assert body["status"] in ("value", "exceptional")
    assert service.breaker.state == "closed"

    states = [s for s, _ in service.breaker.transitions]
    assert "open" in states
    assert "closed" in states
    assert states[-1] == "closed"
