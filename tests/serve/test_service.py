"""EvalService behaviour: response schemas, admission control, the
circuit breaker's full open/probe/close cycle, and retry exhaustion —
all deterministic (injected clocks, no real sleeping)."""

import pytest

from repro.machine import BACKENDS
from repro.machine.snapshot import warm_machine
from repro.serve import EvalService, ServiceConfig
from repro.serve.schema import RESPONSE_SCHEMAS, schema_sets

LOOP = "let { loop = \\x -> loop x } in loop 1"
#: Ill-typed: the machine gets stuck, a 500 ``internal-error`` — a
#: failure the breaker counts, unlike a deterministic step trip.
STUCK = "1 + True"
FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 10"
)


def assert_in_schema(body):
    """Every produced body must stay inside ``required | optional`` of
    its status — with the field sets read from repro.serve.schema, the
    same source of truth that renders docs/ROBUSTNESS.md and --help."""
    status = body.get("status")
    assert status in RESPONSE_SCHEMAS, f"unknown status {status!r}"
    required, optional = schema_sets(status)
    keys = set(body)
    missing = required - keys
    extra = keys - required - optional
    assert not missing, f"{status}: missing {missing}"
    assert not extra, f"{status}: unexpected {extra}"
    if status == "batch":
        for item in body["results"]:
            assert_in_schema(item)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SteppingClock:
    def __init__(self, per_read: float = 0.001) -> None:
        self.now = 0.0
        self.per_read = per_read

    def __call__(self) -> float:
        self.now += self.per_read
        return self.now


def _service(clock=None, **overrides):
    config = ServiceConfig(**overrides)
    return EvalService(
        config,
        clock=clock if clock is not None else FakeClock(),
        sleep=lambda s: None,
    )


class TestSchemas:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_value(self, backend):
        service = _service(backend=backend)
        status, body, _ = service.handle({"expr": "1 + 2 * 3"})
        assert status == 200
        assert body["status"] == "value"
        assert body["value"] == "7"
        assert body["attempts"] == 1
        assert body["stats"]["steps"] > 0
        assert_in_schema(body)

    def test_io_value_carries_stdout(self):
        service = _service()
        status, body, _ = service.handle({"expr": 'putStr "hi"'})
        assert status == 200
        assert body["status"] == "value"
        assert body["stdout"] == "hi"
        assert_in_schema(body)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptional(self, backend):
        service = _service(backend=backend)
        status, body, _ = service.handle({"expr": "1 `div` 0"})
        assert status == 200
        assert body["status"] == "exceptional"
        assert body["exc"] == "DivideByZero"
        assert body["synchronous"] is True
        assert_in_schema(body)

    def test_resource_exhausted_steps(self):
        service = _service(max_steps=1_000, deadline_seconds=None)
        status, body, _ = service.handle({"expr": LOOP})
        assert status == 200
        assert body["status"] == "resource-exhausted"
        assert body["reason"] == "steps"
        assert body["exc"] == "Timeout"
        assert body["trip"]["reason"] == "steps"
        assert_in_schema(body)

    def test_resource_exhausted_allocations(self):
        service = _service(
            max_allocations=100, deadline_seconds=None, max_steps=None
        )
        status, body, _ = service.handle({"expr": LOOP})
        assert status == 200
        assert body["reason"] == "allocations"
        assert body["exc"] == "HeapOverflow"
        assert_in_schema(body)

    def test_parse_error_is_a_400(self):
        service = _service()
        status, body, _ = service.handle({"expr": "let { = "})
        assert status == 400
        assert body["status"] == "error"
        assert body["reason"] == "parse-error"
        assert_in_schema(body)

    def test_malformed_payload_is_a_400(self):
        service = _service()
        for payload in (None, [], {}, {"expr": 42}):
            status, body, _ = service.handle(payload)
            assert status == 400
            assert body["reason"] == "bad-request"
            assert_in_schema(body)

    def test_events_ride_along_when_collected(self):
        service = _service(collect_events=True)
        _, body, _ = service.handle({"expr": FIB})
        assert body["events"]["step"] == body["stats"]["steps"]

    def test_events_absent_when_disabled(self):
        service = _service(collect_events=False)
        _, body, _ = service.handle({"expr": FIB})
        assert "events" not in body


class TestIsolation:
    def test_requests_do_not_share_machine_state(self):
        service = _service()
        _, first, _ = service.handle({"expr": FIB})
        _, second, _ = service.handle({"expr": FIB})
        assert first["stats"] == second["stats"]
        assert first["value"] == second["value"]

    def test_exceptional_request_does_not_poison_the_next(self):
        service = _service()
        service.handle({"expr": "1 `div` 0"})
        _, body, _ = service.handle({"expr": "2 + 2"})
        assert body["status"] == "value"
        assert body["value"] == "4"


class TestAdmission:
    def test_queue_full_rejects_with_429(self):
        service = _service(max_concurrency=1, queue_depth=0)
        # Fill every admission slot (concurrency + queue) by hand —
        # equivalent to a request occupying the machine.
        assert service._admission.acquire(blocking=False)
        status, body, retry_after = service.handle({"expr": "1 + 1"})
        assert status == 429
        assert body["status"] == "rejected"
        assert body["reason"] == "queue-full"
        assert retry_after > 0
        assert_in_schema(body)
        service._admission.release()
        # Capacity restored: the next request evaluates.
        status, body, _ = service.handle({"expr": "1 + 1"})
        assert status == 200
        assert body["value"] == "2"

    def test_rejections_are_counted(self):
        service = _service(max_concurrency=1, queue_depth=0)
        assert service._admission.acquire(blocking=False)
        service.handle({"expr": "1"})
        service._admission.release()
        assert service.requests_by_status["rejected"] == 1


class TestCircuitBreaker:
    def test_full_open_probe_close_cycle(self):
        clock = FakeClock()
        service = _service(
            clock=clock,
            max_steps=1_000,
            deadline_seconds=None,
            breaker_threshold=2,
            breaker_reset_seconds=5.0,
        )
        # Two internal errors open it.
        for _ in range(2):
            status, body, _ = service.handle({"expr": STUCK})
            assert status == 500
            assert body["reason"] == "internal-error"
        assert service.breaker.state == "open"

        # Open: fast rejection with Retry-After.
        status, body, retry_after = service.handle({"expr": "1 + 1"})
        assert status == 503
        assert body["reason"] == "circuit-open"
        assert retry_after == pytest.approx(5.0)
        assert_in_schema(body)

        # After the reset window a probe is admitted; success closes.
        clock.advance(5.5)
        status, body, _ = service.handle({"expr": "1 + 1"})
        assert status == 200
        assert body["value"] == "2"
        assert service.breaker.state == "closed"
        states = [s for s, _ in service.breaker.transitions]
        assert states == ["open", "half-open", "closed"]

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        service = _service(
            clock=clock,
            max_steps=1_000,
            deadline_seconds=None,
            breaker_threshold=1,
            breaker_reset_seconds=5.0,
        )
        service.handle({"expr": STUCK})
        assert service.breaker.state == "open"
        clock.advance(5.5)
        service.handle({"expr": STUCK})  # the probe also fails
        assert service.breaker.state == "open"

    def test_transient_failures_open_the_breaker(self):
        # A deadline trip is environmental: it counts against the
        # breaker, while a step trip (a property of the program) does
        # not.
        service = _service(max_steps=1_000, deadline_seconds=None,
                           breaker_threshold=1)
        status, body, _ = service.handle({"expr": LOOP})
        assert body["reason"] == "steps"
        assert service.breaker.state == "closed"
        service = _service(
            clock=SteppingClock(per_read=0.01),
            deadline_seconds=0.05,
            max_steps=None,
            max_allocations=None,
            breaker_threshold=1,
        )
        status, body, _ = service.handle({"expr": LOOP})
        assert body["reason"] == "deadline"
        assert service.breaker.state == "open"

    def test_exceptional_outcomes_do_not_open_the_breaker(self):
        service = _service(breaker_threshold=1)
        for _ in range(3):
            status, body, _ = service.handle({"expr": "1 `div` 0"})
            assert status == 200
            assert body["status"] == "exceptional"
        assert service.breaker.state == "closed"

    def test_parse_errors_do_not_open_the_breaker(self):
        service = _service(breaker_threshold=1)
        for _ in range(3):
            service.handle({"expr": "let { = "})
        assert service.breaker.state == "closed"


class TestRetries:
    def test_deadline_trips_are_retried_to_exhaustion(self):
        # Every read of the clock creeps forward, so each attempt blows
        # its deadline deterministically; the policy retries the
        # transient failure until the budget runs out and the service
        # reports a structured failure with the attempt count.
        service = _service(
            clock=SteppingClock(per_read=0.01),
            deadline_seconds=0.05,
            max_steps=None,
            max_allocations=None,
            retries=2,
        )
        status, body, retry_after = service.handle({"expr": LOOP})
        assert status == 200
        assert body["status"] == "resource-exhausted"
        assert body["reason"] == "deadline"
        assert body["attempts"] == 3
        assert body["retry_after"] > 0
        assert retry_after == body["retry_after"]
        assert_in_schema(body)
        assert service.retries_performed == 2

    def test_deterministic_outcomes_are_never_retried(self):
        service = _service(
            max_steps=1_000, deadline_seconds=None, retries=3
        )
        _, body, _ = service.handle({"expr": LOOP})
        assert body["reason"] == "steps"
        assert body["attempts"] == 1
        _, body, _ = service.handle({"expr": "1 `div` 0"})
        assert body["attempts"] == 1


class TestChaosMode:
    def test_seeded_faults_are_injected_and_reported(self):
        # Injected faults are transient failures: keep the breaker out
        # of the way so every request is evaluated.
        service = _service(
            fault_seed=1234,
            fault_horizon=500,
            retries=0,
            breaker_threshold=1_000_000,
        )
        saw_injection = False
        for n in range(12):
            status, body, _ = service.handle({"expr": FIB})
            assert status == 200
            assert_in_schema(body)
            if body.get("faults_injected"):
                saw_injection = True
        assert saw_injection
        assert service.faults_injected > 0

    def test_same_seed_same_faults(self):
        bodies = []
        for _ in range(2):
            service = _service(fault_seed=99, fault_horizon=500)
            _, body, _ = service.handle({"expr": FIB})
            bodies.append(body)
        assert bodies[0] == bodies[1]


class TestBatch:
    def test_batch_of_sources_evaluates_in_order(self):
        service = _service()
        status, body, retry_after = service.handle(
            {"programs": ["1 + 1", "1 `div` 0", "head Nil"]}
        )
        assert status == 200
        assert retry_after is None
        assert body["status"] == "batch"
        assert body["count"] == 3
        assert [r["status"] for r in body["results"]] == [
            "value",
            "exceptional",
            "exceptional",
        ]
        assert body["results"][0]["value"] == "2"
        assert_in_schema(body)

    def test_batch_items_may_be_request_objects(self):
        service = _service()
        _, body, _ = service.handle(
            {
                "programs": [
                    {"expr": 'putStr "a"', "stdin": ""},
                    {"expr": '1 + "x"', "typecheck": True},
                ]
            }
        )
        assert body["results"][0]["stdout"] == "a"
        assert body["results"][1]["reason"] == "type-error"
        assert_in_schema(body)

    def test_each_program_gets_its_own_governor(self):
        """A resource-exhausted program must not poison the rest of
        its batch — limits are per program, not per batch."""
        service = _service(max_steps=1_000, deadline_seconds=None)
        _, body, _ = service.handle({"programs": [LOOP, "2 + 2", LOOP]})
        assert [r["status"] for r in body["results"]] == [
            "resource-exhausted",
            "value",
            "resource-exhausted",
        ]
        assert body["results"][1]["value"] == "4"

    def test_oversized_batch_is_rejected(self):
        service = _service(max_batch=2)
        status, body, _ = service.handle({"programs": ["1", "2", "3"]})
        assert status == 400
        assert body["reason"] == "batch-too-large"
        assert_in_schema(body)

    def test_malformed_batches_are_400s(self):
        service = _service()
        for programs in ([], "1 + 1", [42], [{"expr": 7}]):
            status, body, _ = service.handle({"programs": programs})
            assert status == 400
            assert body["reason"] == "bad-request"
            assert_in_schema(body)

    def test_batch_counters(self):
        service = _service()
        service.handle({"programs": ["1", "2"]})
        service.handle({"programs": ["3"]})
        health = service.health()
        assert health["batches"] == {"total": 2, "programs": 3}

    def test_open_breaker_rejects_whole_batch(self):
        service = _service(
            max_steps=1_000, deadline_seconds=None, breaker_threshold=1
        )
        service.handle({"expr": STUCK})
        assert service.breaker.state == "open"
        status, body, _ = service.handle({"programs": ["1 + 1"]})
        assert status == 503
        assert body["reason"] == "circuit-open"


class _RebuildingService(EvalService):
    """The served path with one change: every attempt's machine is
    rebuilt from scratch by ``warm_machine`` instead of forked from
    the snapshot, and runs the parsed program in its own prelude."""

    def _machine(self, entry, builder):
        machine, env = warm_machine(
            backend=self.config.backend, fuel=self.config.backstop_fuel()
        )
        return machine, entry.expr, env


class TestWarmPath:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_and_cold_responses_are_byte_identical(self, backend):
        """The parity contract at the service level: a forked machine
        answers exactly as a rebuilt one (docs/SERVING.md's soundness
        argument), bodies and ids included."""
        served = _service(backend=backend)
        reference = _RebuildingService(
            ServiceConfig(backend=backend),
            clock=FakeClock(),
            sleep=lambda s: None,
        )
        for expr in (
            "sum (map (\\x -> x * x) (enumFromTo 1 10))",
            "1 `div` 0",
            "(1 `div` 0) + head Nil",
            'putStr "hello"',
        ):
            status, body, _ = served.handle({"expr": expr})
            ref_status, ref_body, _ = reference.handle({"expr": expr})
            assert status == ref_status
            assert body == ref_body, expr
            trace_id = body["trace_id"]
            assert served.get_trace(trace_id).find("fork") is not None
            assert reference.get_trace(trace_id).find("fork") is None

    def test_repeat_programs_hit_the_cache(self):
        service = _service()
        for _ in range(5):
            service.handle({"expr": FIB})
        cache = service.health()["cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 4
        assert cache["entries"] == 1

    def test_typecheck_gate_accepts_well_typed_programs(self):
        service = _service()
        status, body, _ = service.handle(
            {"expr": "1 + 2", "typecheck": True}
        )
        assert status == 200
        assert body["status"] == "value"

    def test_typecheck_gate_rejects_ill_typed_programs(self):
        service = _service()
        status, body, _ = service.handle(
            {"expr": '1 + "two"', "typecheck": True}
        )
        assert status == 400
        assert body["reason"] == "type-error"
        assert body["message"]
        assert_in_schema(body)
        assert service.breaker.state == "closed"


class TestHealth:
    def test_health_reports_counters_and_limits(self):
        service = _service(max_steps=1_000, deadline_seconds=None)
        service.handle({"expr": "1 + 1"})
        service.handle({"expr": "1 `div` 0"})
        service.handle({"expr": LOOP})
        health = service.health()
        assert health["status"] == "ok"
        assert health["requests_total"] == 3
        assert health["requests"] == {
            "exceptional": 1,
            "resource-exhausted": 1,
            "value": 1,
        }
        assert health["governor_trips"] == {"steps": 1}
        assert health["in_flight"] == 0
        assert health["events"]["step"] > 0
        assert health["limits"]["max_steps"] == 1_000
        assert "breaker" in health
