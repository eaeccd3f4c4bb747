"""Service telemetry: trace ids on every response (success and error
paths), resolvable admission→render span trees, exact histogram
accounting against ``requests_total``, cross-backend determinism of
the latency histogram under an injectable clock, and the
pay-as-you-go contract of ``--no-telemetry``."""

import json

import pytest

from repro.obs.sinks import read_trace
from repro.obs.telemetry import (
    histogram_stats,
    parse_exposition,
    percentile_from_counts,
)
from repro.machine import BACKENDS
from repro.serve import EvalService, ServiceConfig

LOOP = "let { loop = \\x -> loop x } in loop 1"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SteppingClock:
    """Every read advances by a fixed amount — the durations a service
    computes become a pure function of the clock-read *sequence*."""

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


class TestTraceIds:
    def test_every_success_body_carries_resolvable_ids(self):
        service = _service()
        status, body, _ = service.handle({"expr": "1 + 2"})
        assert status == 200
        assert body["request_id"] == 1
        assert body["trace_id"] == "0000000000000001"
        trace = service.get_trace(body["trace_id"])
        assert trace is not None
        assert trace.request_id == 1

    def test_ids_are_deterministic_across_services(self):
        """Two services fed the same request sequence mint identical
        ids — the property that keeps byte-identical parity suites
        meaningful with ids in the bodies."""
        requests = [{"expr": "1 + 2"}, {"expr": "("}, {"expr": "3 * 3"}]
        first, second = _service(), _service()
        for request in requests:
            body_a = first.handle(request)[1]
            body_b = second.handle(request)[1]
            assert body_a["trace_id"] == body_b["trace_id"]
            assert body_a["request_id"] == body_b["request_id"]

    def test_single_request_span_taxonomy(self):
        service = _service()
        _, body, _ = service.handle({"expr": "1 + 2"})
        trace = service.get_trace(body["trace_id"])
        names = trace.span_names()
        assert names[0] == "request"
        for stage in (
            "admission",
            "breaker",
            "cache-lookup",
            "attempt",
            "fork",
            "machine-run",
            "render",
        ):
            assert stage in names, names
        run = trace.find("machine-run")
        attempt = trace.find("attempt")
        assert run in attempt.children
        assert attempt.attrs["number"] == 1
        assert attempt.attrs["kind"] == "value"
        assert attempt.attrs["steps"] == body["stats"]["steps"]

    def test_exceptional_attempt_annotates_exc(self):
        service = _service()
        _, body, _ = service.handle({"expr": "1 `div` 0"})
        assert body["status"] == "exceptional"
        trace = service.get_trace(body["trace_id"])
        assert trace.find("attempt").attrs["exc"] == body["exc"]


class TestErrorPathIds:
    def test_parse_error_carries_ids(self):
        service = _service()
        status, body, _ = service.handle({"expr": "(("})
        assert status == 400
        assert body["status"] == "error"
        assert body["request_id"] == 1
        trace = service.get_trace(body["trace_id"])
        assert trace.find("cache-lookup") is not None

    def test_bad_request_carries_ids(self):
        service = _service()
        status, body, _ = service.handle({"nope": 1})
        assert status == 400
        assert "trace_id" in body and "request_id" in body
        assert service.get_trace(body["trace_id"]) is not None

    def test_queue_full_rejection_carries_ids(self):
        service = _service(max_concurrency=1, queue_depth=0)
        assert service._admission.acquire(blocking=False)
        status, body, _ = service.handle({"expr": "1 + 1"})
        service._admission.release()
        assert status == 429
        assert body["reason"] == "queue-full"
        trace = service.get_trace(body["trace_id"])
        assert trace.root.attrs["rejected"] == "queue-full"
        assert "admission" in trace.span_names()

    def test_circuit_open_rejection_carries_ids(self):
        service = _service(
            max_steps=1_000,
            deadline_seconds=None,
            breaker_threshold=1,
        )
        service.handle({"expr": LOOP})
        assert service.breaker.state == "open"
        status, body, _ = service.handle({"expr": "1 + 1"})
        assert status == 503
        assert body["reason"] == "circuit-open"
        assert service.get_trace(body["trace_id"]) is not None


class TestBatchTraces:
    def test_envelope_and_children_link_both_ways(self):
        service = _service()
        _, body, _ = service.handle(
            {"programs": [{"expr": "1 + 1"}, {"expr": "2 + 2"}]}
        )
        assert body["status"] == "batch"
        envelope = service.get_trace(body["trace_id"])
        child_ids = envelope.root.attrs["children"]
        assert [r["trace_id"] for r in body["results"]] == child_ids
        for child_id in child_ids:
            child = service.get_trace(child_id)
            assert child.parent == body["trace_id"]
            assert "machine-run" in child.span_names()

    def test_oversized_batch_rejection_carries_ids(self):
        service = _service(max_batch=1)
        status, body, _ = service.handle(
            {"programs": [{"expr": "1"}, {"expr": "2"}]}
        )
        assert status == 400
        assert body["reason"] == "batch-too-large"
        assert "trace_id" in body and "request_id" in body


class TestHistogramAccounting:
    def test_request_histogram_count_equals_requests_total(self):
        """The headline invariant: one ``repro_request_seconds``
        observation per served program — parse errors included,
        rejections and batch envelopes excluded — exactly matching
        ``requests_total``."""
        service = _service()
        service.handle({"expr": "1 + 2"})
        service.handle({"expr": "(("})  # parse error: still a request
        service.handle({"programs": [{"expr": "1"}, {"expr": "2"}]})
        service.handle({"bad": "shape"})  # rejected before serving
        families = parse_exposition(service.metrics_text())
        stats = histogram_stats(families, "repro_request_seconds")
        assert stats["count"] == 4
        assert service.health()["requests_total"] == 4

    def test_status_counter_matches_health(self):
        service = _service()
        service.handle({"expr": "1 + 2"})
        service.handle({"expr": "(("})
        families = parse_exposition(service.metrics_text())
        samples = {
            labels["status"]: value
            for name, labels, value in families["repro_requests_total"][
                "samples"
            ]
            if labels
        }
        assert samples == {
            k: float(v)
            for k, v in service.requests_by_status.items()
        }

    def test_stage_histogram_observes_root_children(self):
        service = _service(clock=SteppingClock())
        service.handle({"expr": "1 + 2"})
        families = parse_exposition(service.metrics_text())
        stage_samples = families["repro_stage_seconds"]["samples"]
        stages = {
            labels["stage"]
            for _name, labels, _v in stage_samples
            if "stage" in labels
        }
        assert {"admission", "breaker", "cache-lookup", "render"} <= stages

    def test_machine_event_totals_flow_through(self):
        service = _service()
        _, body, _ = service.handle({"expr": "1 + 2"})
        families = parse_exposition(service.metrics_text())
        steps = [
            value
            for _n, labels, value in families[
                "repro_machine_events_total"
            ]["samples"]
            if labels.get("event") == "step"
        ]
        assert steps and steps[0] == float(body["stats"]["steps"])

    def test_governor_trip_counter(self):
        service = _service(max_steps=1_000, deadline_seconds=None)
        service.handle({"expr": LOOP})
        families = parse_exposition(service.metrics_text())
        trips = {
            labels.get("reason"): value
            for _n, labels, value in families[
                "repro_governor_trips_total"
            ]["samples"]
            if labels
        }
        assert trips.get("steps") == 1.0


class TestHistogramDeterminism:
    """Under a stepping clock, latency histograms are a pure function
    of the clock-read sequence — which (by the exact cross-backend
    counter parity E18 proves) is identical on every backend."""

    @staticmethod
    def _run(backend: str):
        service = _service(
            clock=SteppingClock(per_read=0.001), backend=backend
        )
        for source in ("1 + 2", "sum (enumFromTo 1 20)", "(("):
            service.handle({"expr": source})
        families = parse_exposition(service.metrics_text())
        stats = histogram_stats(families, "repro_request_seconds")
        return stats

    def test_identical_buckets_and_percentiles_across_backends(self):
        baseline = self._run("ast")
        for backend in BACKENDS[1:]:
            other = self._run(backend)
            assert other["counts"] == baseline["counts"], backend
            for q in (0.5, 0.95, 0.99):
                assert percentile_from_counts(
                    other["bounds"], other["counts"], q
                ) == percentile_from_counts(
                    baseline["bounds"], baseline["counts"], q
                ), backend

    def test_same_backend_reruns_are_byte_identical(self):
        a = _service(clock=SteppingClock())
        b = _service(clock=SteppingClock())
        for service in (a, b):
            service.handle({"expr": "1 + 2"})
            service.handle({"expr": "3 * 3"})
        assert a.metrics_text() == b.metrics_text()


class TestTelemetryOff:
    def test_no_metrics_no_traces_same_bodies(self):
        on = _service(telemetry=True)
        off = _service(telemetry=False)
        bodies = []
        for service in (on, off):
            _, body, _ = service.handle({"expr": "1 + 2"})
            bodies.append(body)
        assert json.dumps(bodies[0], sort_keys=True) == json.dumps(
            bodies[1], sort_keys=True
        )
        assert off.metrics_text() == ""
        assert off.get_trace(bodies[1]["trace_id"]) is None
        assert off.health()["telemetry"]["enabled"] is False

    def test_off_still_mints_ids(self):
        service = _service(telemetry=False)
        _, body, _ = service.handle({"expr": "1"})
        assert body["trace_id"] == "0000000000000001"


class TestTraceRingAndLog:
    def test_ring_capacity_bounds_retention(self):
        service = _service(trace_ring=2)
        ids = []
        for n in range(3):
            _, body, _ = service.handle({"expr": f"{n} + 1"})
            ids.append(body["trace_id"])
        assert service.get_trace(ids[0]) is None
        assert service.get_trace(ids[1]) is not None
        assert service.get_trace(ids[2]) is not None
        health = service.health()["telemetry"]
        assert health["traces_recorded"] == 3
        assert health["traces_retained"] == 2
        assert health["trace_ring"] == 2

    def test_trace_log_writes_replayable_jsonl(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        service = _service(trace_log=str(path))
        service.handle({"expr": "1 + 2"})
        service.handle({"expr": "2 + 3"})
        service.close()
        events = list(read_trace(str(path)))
        assert len(events) == 2
        assert all(e["event"] == "trace" for e in events)
        assert events[0]["spans"]["name"] == "request"

    def test_trace_log_lines_complete_without_close(self, tmp_path):
        """The sink is line-buffered: a killed daemon leaves complete
        JSONL lines, not a truncated record."""
        path = tmp_path / "traces.jsonl"
        service = _service(trace_log=str(path))
        service.handle({"expr": "1 + 2"})
        raw = path.read_text()
        assert raw.endswith("\n")
        json.loads(raw.splitlines()[0])


class TestHealthTelemetryBlock:
    def test_reports_ring_state(self):
        service = _service()
        block = service.health()["telemetry"]
        assert block == {
            "enabled": True,
            "trace_ring": 256,
            "traces_recorded": 0,
            "traces_retained": 0,
        }
