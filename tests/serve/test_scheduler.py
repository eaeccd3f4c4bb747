"""The multi-tenant scheduler (`repro.serve.scheduler`).

Three layers: the bare scheduler (DRR fairness, priority order,
shutdown semantics) driven by evaluations on their own threads; the
service integration where the contract is byte-identical response
bodies between the `cooperative` and `threads` presets, plus the
tenant-quota admission and mid-slice §5.1 preemption paths; and the
telemetry surface (healthz scheduler block, tenant-labelled counters
with bounded cardinality).
"""

import threading
import time

import pytest

from repro.api import compile_expr
from repro.core.excset import CONTROL_C
from repro.machine import Exceptional, Machine, Normal, observe
from repro.prelude.loader import machine_env
from repro.serve.scheduler import CooperativeScheduler, Task
from repro.serve.service import EvalService, ServiceConfig

#: A few hundred steps of list work.
WORK = "sum (map (\\x -> x * x) (enumFromTo 1 12))"
#: Never terminates — the starvation/preemption antagonist.
SPIN = "let { w = \\u -> w u } in w ()"


class Evaluation:
    """One evaluation run the way the service runs an attempt: on its
    own thread, which submits the task, evaluates with the task as the
    machine's slice gate, and finishes it."""

    def __init__(self, sched, tenant, priority, source, *, fuel=2_000_000):
        self.task = Task(tenant, priority)
        self.outcome = None
        self._sched = sched
        self._source = source
        self._fuel = fuel
        self.thread = threading.Thread(target=self._run)
        self.thread.start()

    def _run(self):
        machine = Machine(backend="ast", fuel=self._fuel)
        env = machine_env(machine)
        expr = compile_expr(self._source)
        self._sched.submit(self.task)
        try:
            machine.attach_slice_gate(self.task)
            self.outcome = observe(expr, env=env, machine=machine)
        finally:
            self._sched.finish(self.task)

    def wait(self, timeout):
        self.thread.join(timeout)
        return not self.thread.is_alive()


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def coop_config(**overrides):
    base = dict(
        scheduler="cooperative",
        workers=2,
        slice_steps=500,
        max_concurrency=64,
        queue_depth=64,
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestSchedulerCore:
    def test_completes_tasks_and_counts(self):
        sched = CooperativeScheduler(workers=2, slice_steps=100)
        try:
            runs = [
                Evaluation(sched, "alice", "normal", WORK) for _ in range(4)
            ]
            for run in runs:
                assert run.wait(timeout=30.0)
                assert isinstance(run.outcome, Normal)
            snap = sched.snapshot()
            assert snap["submitted"] == 4
            assert snap["completed"] == 4
            assert snap["slices"] >= 4
            assert snap["run_queue_depth"] == 0
        finally:
            sched.close()

    def test_light_tenant_not_starved_by_spinner(self):
        # One run slot, a hot tenant spinning forever: DRR must still
        # cycle the rotation and run the light tenant's work.
        sched = CooperativeScheduler(workers=1, slice_steps=200)
        hot = Evaluation(sched, "hog", "normal", SPIN, fuel=50_000_000)
        try:
            light = [
                Evaluation(sched, "light", "normal", WORK) for _ in range(3)
            ]
            for run in light:
                assert run.wait(timeout=30.0), (
                    "light tenant starved behind a spinning tenant"
                )
            assert not hot.wait(timeout=0.0)
        finally:
            sched.close()
        assert hot.wait(timeout=10.0)

    def test_priority_orders_within_tenant(self):
        # One run slot, busy on another tenant, while one tenant queues
        # a batch task then an interactive one: the interactive task
        # must be granted its first slice first.  Both tasks queue
        # while the scheduler is paused, so tenant `t` cannot be
        # granted a slice before the interactive task is queued.
        sched = CooperativeScheduler(workers=1, slice_steps=200)
        blocker = Evaluation(sched, "other", "normal", SPIN, fuel=50_000_000)
        try:
            wait_for(lambda: sched.snapshot()["slices"] >= 1)
            sched.pause()
            depth = lambda: sched.snapshot()["run_queue_depth"]  # noqa: E731
            # The blocker parks at its next boundary and queues too.
            batch = Evaluation(sched, "t", "batch", WORK)
            wait_for(lambda: depth() == 2)
            inter = Evaluation(sched, "t", "interactive", WORK)
            wait_for(lambda: depth() == 3)
            sched.resume()
            assert batch.wait(timeout=30.0)
            assert inter.wait(timeout=30.0)
            assert inter.task.first_slice_at <= batch.task.first_slice_at
            assert not blocker.wait(timeout=0.0)
        finally:
            sched.close()
        assert blocker.wait(timeout=10.0)

    def test_deficit_round_robin_interleaves_tenants(self):
        sched = CooperativeScheduler(workers=1, slice_steps=50)
        try:
            runs = [
                Evaluation(sched, tenant, "normal", WORK)
                for tenant in ("a", "b", "c")
                for _ in range(3)
            ]
            for run in runs:
                assert run.wait(timeout=30.0)
            assert sched.snapshot()["completed"] == 9
        finally:
            sched.close()

    def test_submit_after_close_raises(self):
        sched = CooperativeScheduler(workers=1)
        sched.close()
        with pytest.raises(RuntimeError):
            sched.submit(Task("t", "normal"))

    def test_unknown_priority_rejected(self):
        sched = CooperativeScheduler(workers=1)
        try:
            with pytest.raises(ValueError):
                sched.submit(Task("t", "urgent"))
        finally:
            sched.close()

    def test_pause_accumulates_resume_drains(self):
        # pause() stops handing out turns without touching submission:
        # the run queue builds to exactly N, and resume() drains it.
        # This is the mechanism the nightly soak uses to prove 1000
        # evaluations really were in flight concurrently.
        sched = CooperativeScheduler(workers=2, slice_steps=100)
        try:
            sched.pause()
            runs = [
                Evaluation(sched, f"t{i % 3}", "normal", WORK)
                for i in range(6)
            ]
            wait_for(lambda: sched.snapshot()["submitted"] == 6)
            snap = sched.snapshot()
            assert snap["run_queue_depth"] == 6, snap
            assert snap["completed"] == 0, snap
            assert snap["slices"] == 0, snap
            sched.resume()
            for run in runs:
                assert run.wait(timeout=30.0)
            assert sched.snapshot()["completed"] == 6
        finally:
            sched.close()

    def test_close_unblocks_spinner(self):
        # One run slot, two spinners: at close() one holds the slot and
        # the other is parked or has never started.  Both must unwind
        # with the ControlC, so no submitter is left waiting.
        sched = CooperativeScheduler(workers=1, slice_steps=100)
        runs = [
            Evaluation(sched, "t", "normal", SPIN, fuel=50_000_000)
            for _ in range(2)
        ]
        wait_for(lambda: sched.snapshot()["submitted"] == 2)
        sched.close()
        for run in runs:
            assert run.wait(timeout=10.0), (
                "close() left a spinning task's submitter stranded"
            )
            assert run.outcome == Exceptional(CONTROL_C)
        assert sched.snapshot()["completed"] == 2

    def test_schedule_seed_perturbs_but_completes(self):
        for seed in (0, 5, 99):
            sched = CooperativeScheduler(
                workers=2, slice_steps=100, schedule_seed=seed
            )
            try:
                runs = [
                    Evaluation(sched, t, "normal", WORK)
                    for t in ("a", "b", "a", "c")
                ]
                for run in runs:
                    assert run.wait(timeout=30.0)
            finally:
                sched.close()


def _normalized(service, payload):
    status, body, _ = service.handle(dict(payload))
    body.pop("request_id", None)
    body.pop("trace_id", None)
    return status, body


MIXED_REQUESTS = [
    {"expr": WORK, "tenant": "alice", "priority": "interactive"},
    {"expr": "(1 `div` 0) + 2", "tenant": "bob"},
    {
        "expr": "let { f = \\n -> case n < 2 of { True -> n; "
        "False -> f (n - 1) + f (n - 2) } } in f 12",
        "tenant": "carol",
        "priority": "batch",
    },
    {"expr": "length (enumFromTo 1 40)", "tenant": "alice"},
]


class TestCooperativeService:
    def test_body_parity_with_threaded_mode(self):
        coop = EvalService(coop_config())
        threaded = EvalService(
            ServiceConfig(max_concurrency=64, queue_depth=64)
        )
        try:
            got = [_normalized(coop, r) for r in MIXED_REQUESTS]
            want = [_normalized(threaded, r) for r in MIXED_REQUESTS]
            assert got == want
        finally:
            coop.close()
            threaded.close()

    def test_concurrent_mini_soak_parity(self):
        # ~200 requests in flight at once on 2 workers: every body
        # byte-identical (ids normalised) to the threaded twin served
        # sequentially.  The tier-1 shadow of the 1000-in-flight
        # acceptance soak (scripts in CI nightly).
        n = 200
        requests = [
            dict(
                MIXED_REQUESTS[i % len(MIXED_REQUESTS)],
                tenant=f"t{i % 5}",
            )
            for i in range(n)
        ]
        coop = EvalService(
            coop_config(
                max_concurrency=n + 8, queue_depth=32, slice_steps=200
            )
        )
        threaded = EvalService(
            ServiceConfig(max_concurrency=8, queue_depth=8)
        )
        try:
            want = [_normalized(threaded, r) for r in requests]
            got = [None] * n

            def call(i):
                got[i] = _normalized(coop, requests[i])

            threads = [
                threading.Thread(target=call, args=(i,))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == want
            snap = coop.scheduler.snapshot()
            assert snap["completed"] == n
            assert snap["slices"] > n  # real slicing happened
        finally:
            coop.close()
            threaded.close()

    def test_invalid_tenant_and_priority_rejected(self):
        service = EvalService(coop_config())
        try:
            status, body = _normalized(
                service, {"expr": "1 + 1", "tenant": ""}
            )
            assert status == 400
            assert body["reason"] == "bad-request"
            status, body = _normalized(
                service, {"expr": "1 + 1", "priority": "urgent"}
            )
            assert status == 400
            assert body["reason"] == "bad-request"
        finally:
            service.close()

    def test_tenant_in_flight_quota(self):
        service = EvalService(coop_config(tenant_max_in_flight=1))
        try:
            assert service._tenant_acquire("alice")
            assert not service._tenant_acquire("alice")
            status, body, retry_after = service.handle(
                {"expr": "1 + 1", "tenant": "alice"}
            )
            assert status == 429
            assert body["reason"] == "tenant-quota"
            assert retry_after > 0
            # Other tenants are unaffected.
            assert service._tenant_acquire("bob")
            service._tenant_release("alice")
            assert service._tenant_acquire("alice")
        finally:
            service.close()

    def test_step_quota_preempts_spinner_as_governor_trip(self):
        # A spinning tenant over its step budget is preempted with a
        # mid-slice §5.1 Timeout through the governor — shaped exactly
        # like a resource limit, reason `tenant-quota`.
        service = EvalService(
            coop_config(
                slice_steps=1_000,
                tenant_step_quota=5_000,
                max_steps=None,
                max_allocations=None,
                deadline_seconds=None,
            )
        )
        try:
            status, body = _normalized(service, {"expr": SPIN})
            assert status == 200
            assert body["status"] == "resource-exhausted"
            assert body["reason"] == "tenant-quota"
            assert body["trip"]["exc"] == "Timeout"
            assert body["trip"]["reason"] == "tenant-quota"
            assert service.scheduler.preemptions_total >= 1
        finally:
            service.close()

    def test_batch_inherits_envelope_tenant(self):
        coop = EvalService(coop_config())
        threaded = EvalService(ServiceConfig())
        try:
            payload = {
                "programs": [WORK, {"expr": "2 + 2"}],
                "tenant": "team-a",
                "priority": "batch",
            }
            status, body = _normalized(coop, payload)
            assert status == 200
            assert body["count"] == 2
            for result in body["results"]:
                result.pop("request_id", None)
                result.pop("trace_id", None)
            _, want = _normalized(threaded, payload)
            for result in want["results"]:
                result.pop("request_id", None)
                result.pop("trace_id", None)
            assert body == want
        finally:
            coop.close()
            threaded.close()


@pytest.mark.parametrize("preset", ["threads", "cooperative"])
def test_step_trips_leave_the_breaker_closed(preset):
    # A batch tenant's spinners trip max_steps: a deterministic
    # property of the program, not a transient failure, so they must
    # not open the breaker on everyone else.
    service = EvalService(
        ServiceConfig(scheduler=preset, max_steps=20_000, telemetry=False)
    )
    try:
        for _ in range(5):
            status, body = _normalized(
                service, {"expr": SPIN, "tenant": "hog", "priority": "batch"}
            )
            assert status == 200
            assert body["status"] == "resource-exhausted"
            assert body["reason"] == "steps"
        status, body = _normalized(
            service,
            {"expr": "1 + 2", "tenant": "victim", "priority": "interactive"},
        )
        assert status == 200, body
        assert body["status"] == "value"
        assert body["value"] == "3"
        assert service.breaker.as_dict()["state"] == "closed"
    finally:
        service.close()


class TestSchedulerTelemetry:
    def test_healthz_scheduler_block_cooperative(self):
        service = EvalService(coop_config())
        try:
            service.handle({"expr": WORK, "tenant": "alice"})
            sched = service.health()["scheduler"]
            assert sched["mode"] == "cooperative"
            assert sched["workers"] == 2
            assert sched["slice_steps"] == 500
            assert sched["slices"] >= 1
            assert sched["run_queue_depth"] == 0
            assert "starvation_seconds" in sched
            assert "preemptions" in sched
        finally:
            service.close()

    def test_healthz_scheduler_block_threads(self):
        service = EvalService(ServiceConfig())
        try:
            sched = service.health()["scheduler"]
            assert sched["mode"] == "threads"
            assert sched["slices"] == 0
            assert sched["slice_steps"] is None
            assert sched["workers"] == service.config.max_concurrency
            # One unbounded grant per attempt: the attempt never parks.
            service.handle({"expr": WORK})
            assert service.health()["scheduler"]["slices"] == 1
        finally:
            service.close()

    def test_requests_total_labelled_by_tenant(self):
        service = EvalService(coop_config())
        try:
            service.handle({"expr": "1 + 1", "tenant": "alice"})
            service.handle({"expr": "1 + 1", "tenant": "bob"})
            text = service.metrics_text()
            assert 'tenant="alice"' in text
            assert 'tenant="bob"' in text
        finally:
            service.close()

    def test_tenant_label_cardinality_bounded(self):
        service = EvalService(coop_config(tenant_label_slots=2))
        try:
            for name in ("a", "b", "c", "d"):
                service.handle({"expr": "1 + 1", "tenant": name})
            text = service.metrics_text()
            assert 'tenant="a"' in text
            assert 'tenant="b"' in text
            assert 'tenant="c"' not in text
            assert 'tenant="d"' not in text
            assert 'tenant="other"' in text
        finally:
            service.close()

    def test_slice_and_first_slice_histograms_populated(self):
        service = EvalService(coop_config())
        try:
            service.handle({"expr": WORK})
            text = service.metrics_text()
            assert "repro_slice_steps_count" in text
            assert "repro_first_slice_seconds_count" in text
            assert "repro_sched_slices_total" in text
            assert "repro_tenant_steps_total" in text
        finally:
            service.close()

    def test_scheduler_metrics_read_through(self):
        service = EvalService(coop_config())
        try:
            service.handle({"expr": WORK})
            text = service.metrics_text()
            slices = service.scheduler.slices_total
            assert f"repro_sched_slices_total {slices}" in text
        finally:
            service.close()


class TestSchedulerTop:
    def test_top_renders_scheduler_panel(self):
        from repro.serve.top import render_dashboard

        service = EvalService(coop_config())
        try:
            service.handle({"expr": WORK, "tenant": "alice"})
            from repro.obs.telemetry import parse_exposition

            frame = render_dashboard(
                service.health(),
                parse_exposition(service.metrics_text()),
            )
            assert "scheduler  cooperative" in frame
            assert "slices" in frame
        finally:
            service.close()

    def test_top_renders_threads_mode(self):
        from repro.obs.telemetry import parse_exposition
        from repro.serve.top import render_dashboard

        service = EvalService(ServiceConfig())
        try:
            frame = render_dashboard(
                service.health(),
                parse_exposition(service.metrics_text()),
            )
            assert "scheduler  threads" in frame
        finally:
            service.close()
