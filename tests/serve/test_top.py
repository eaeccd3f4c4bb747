"""``repro top``: the pure frame renderer against canned payloads and
the polling loop with injected fetch/clock/sleep — no live socket."""

import io

from repro.obs.telemetry import parse_exposition
from repro.serve import EvalService, ServiceConfig
from repro.serve.top import CLEAR, render_dashboard, run_top


def _sample_service():
    service = EvalService(ServiceConfig())
    service.handle({"expr": "1 + 2"})
    service.handle({"expr": "(("})
    service.handle({"programs": [{"expr": "1"}, {"expr": "2"}]})
    return service


def _payloads(service):
    return service.health(), parse_exposition(service.metrics_text())


class TestRenderDashboard:
    def test_frame_carries_the_headline_numbers(self):
        health, families = _payloads(_sample_service())
        frame = render_dashboard(
            health, families, url="http://x:1"
        )
        assert "repro top — http://x:1" in frame
        assert "total 4" in frame  # 2 singles + 2 batch programs
        assert "latency" in frame and "p95" in frame
        assert "stages p50" in frame
        assert "breaker    closed" in frame
        assert "batches 1 (programs 2)" in frame
        assert "traces     recorded 5" in frame

    def test_rate_derives_from_consecutive_samples(self):
        service = _sample_service()
        health, families = _payloads(service)
        old = dict(health)
        old["requests_total"] = health["requests_total"] - 4
        frame = render_dashboard(
            health, families, previous=(10.0, old), now=12.0
        )
        assert "(+2.0/s)" in frame

    def test_telemetry_off_is_visible(self):
        service = EvalService(ServiceConfig(telemetry=False))
        service.handle({"expr": "1"})
        frame = render_dashboard(*_payloads(service))
        assert "telemetry OFF" in frame
        # no exposition -> no latency/stage lines, but no crash either
        assert "latency" not in frame


class TestRunTop:
    def test_bounded_iterations_and_clear(self):
        service = _sample_service()
        out = io.StringIO()
        calls = []

        def fetch(url):
            calls.append(url)
            return _payloads(service)

        code = run_top(
            "http://svc",
            interval=1.0,
            iterations=3,
            fetch=fetch,
            clock=iter(range(100)).__next__,
            sleep=lambda s: None,
            out=out,
        )
        assert code == 0
        assert len(calls) == 3
        assert out.getvalue().count(CLEAR) == 3
        assert "repro top — http://svc" in out.getvalue()

    def test_no_clear_mode(self):
        service = _sample_service()
        out = io.StringIO()
        run_top(
            "http://svc",
            iterations=1,
            clear=False,
            fetch=lambda url: _payloads(service),
            clock=lambda: 0.0,
            sleep=lambda s: None,
            out=out,
        )
        assert CLEAR not in out.getvalue()

    def test_unreachable_service_returns_1(self):
        out = io.StringIO()

        def fetch(url):
            raise OSError("connection refused")

        code = run_top(
            "http://down",
            iterations=2,
            fetch=fetch,
            clock=lambda: 0.0,
            sleep=lambda s: None,
            out=out,
        )
        assert code == 1
        assert "unreachable" in out.getvalue()
