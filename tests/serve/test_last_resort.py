"""The last-resort handler: an exception escaping evaluation (here a
``RecursionError`` from a very deep fold, and a ``MachineError`` from
an unbound variable) becomes a counted, traced ``500 internal-error``
body — in process and over HTTP, where the connection must survive —
and the latency histogram still counts every request.  Its log record
is one bounded line plus a cut traceback."""

import http.client
import json
import logging
import sys
import threading

import pytest

from repro.obs.telemetry import histogram_stats, parse_exposition
from repro.serve import EvalService, ServiceConfig
from repro.serve.http import make_server
from repro.serve.schema import schema_sets

DEEP_FOLD = "foldr (\\x acc -> x + acc) 0 (enumFromTo 1 20000)"
UNBOUND = "undefinedName + 1"
CRASHING = [DEEP_FOLD, UNBOUND]
#: Largest last-resort log record accepted, in characters.
LOG_BOUND = 4_096


def _assert_internal_error(status, body):
    assert status == 500
    assert body["status"] == "error"
    assert body["reason"] == "internal-error"
    required, optional = schema_sets("error")
    assert required <= set(body) <= required | optional


def _histogram_count(service):
    families = parse_exposition(service.metrics_text())
    return histogram_stats(families, "repro_request_seconds")["count"]


@pytest.fixture()
def service():
    # The process-wide recursion limit decides whether the deep fold
    # overflows (other suites raise it to 200k+); pin it so the
    # overflow is deterministic.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    service = EvalService(ServiceConfig(backend="super"))
    try:
        yield service
    finally:
        service.close()
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("source", CRASHING, ids=["deep-fold", "unbound"])
def test_in_process_internal_error_is_counted_and_traced(
    service, source, caplog
):
    with caplog.at_level(logging.ERROR, logger="repro.serve.service"):
        status, body, retry_after = service.handle({"expr": source})
    _assert_internal_error(status, body)
    assert retry_after is None
    trace = service.get_trace(body["trace_id"])
    assert trace.root.attrs["error"] == "internal-error"
    # One bounded log record naming the trace and the exception type
    # (a deep fold's full traceback runs to megabytes).
    (record,) = caplog.records
    message = record.getMessage()
    assert len(message) < LOG_BOUND
    assert record.exc_info is None
    exc_type = body["message"].rsplit(" ", 1)[-1]
    assert body["trace_id"] in message.splitlines()[0]
    assert exc_type in message.splitlines()[0]
    health = service.health()
    assert health["requests"] == {"error": 1}
    assert _histogram_count(service) == health["requests_total"] == 1
    # The service keeps serving.
    status, body, _ = service.handle({"expr": "6 * 7"})
    assert (status, body["value"]) == (200, "42")


def test_internal_error_inside_a_batch(service):
    status, body, _ = service.handle({"programs": [UNBOUND, "1 + 1"]})
    assert status == 200
    first, second = body["results"]
    assert (first["status"], first["reason"]) == ("error", "internal-error")
    assert second["value"] == "2"
    health = service.health()
    assert _histogram_count(service) == health["requests_total"] == 2


def test_over_http_the_connection_survives(service):
    httpd = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for source in CRASHING + ["6 * 7"]:
            conn.request(
                "POST",
                "/eval",
                body=json.dumps({"expr": source}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            if source == "6 * 7":
                assert (response.status, body["value"]) == (200, "42")
            else:
                _assert_internal_error(response.status, body)
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    health = service.health()
    assert health["requests"] == {"error": 2, "value": 1}
    assert _histogram_count(service) == health["requests_total"] == 3
