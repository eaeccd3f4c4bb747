"""The serve API, described once.

PR 5 shipped three descriptions of the same surface — the shaping code
in :mod:`repro.serve.service`, the ``repro serve --help`` text, and
the tables in ``docs/ROBUSTNESS.md`` — and they drifted.  This module
is now the single source of truth:

* :data:`RESPONSE_SCHEMAS` — per-status required/optional response
  fields with one-line descriptions.  The service's tests assert every
  produced body stays inside its schema, and the schema-sync test
  (tests/serve/test_schema.py) asserts the rendered markdown below is
  byte-identical to the block between the ``serve-schema`` markers in
  ``docs/ROBUSTNESS.md``.
* :data:`SERVE_FLAGS` — the ``repro serve`` flag table.  The CLI
  builds its argparse options from these specs, so ``--help`` cannot
  drift either; each flag's default is read from its
  :class:`~repro.serve.service.ServiceConfig` field.

Regenerate the docs block after editing this file::

    PYTHONPATH=src python -m repro.serve.schema --write
    PYTHONPATH=src python -m repro.serve.schema --check   # CI mode
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

# -- response schema ----------------------------------------------------

#: status -> (required {field: description}, optional {field: description})
RESPONSE_SCHEMAS: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = {
    "value": (
        {
            "status": "`\"value\"` — WHNF reached (IO: action performed)",
            "attempts": "evaluation attempts consumed (>= 1)",
            "stats": "machine counter block (steps, allocations, ...)",
            "value": "rendered result",
            "request_id": "monotonic per-service request sequence number",
            "trace_id": "id of this request's span tree "
            "(docs/OBSERVABILITY.md)",
        },
        {
            "stdout": "output written by the IO action, when non-empty",
            "events": "per-request trace-event totals (when collected)",
            "trip": "governor trip record, if a one-shot limit fired",
            "faults_injected": "chaos-mode fault records, when any fired",
        },
    ),
    "exceptional": (
        {
            "status": "`\"exceptional\"` — a member of the denoted set",
            "attempts": "evaluation attempts consumed (>= 1)",
            "stats": "machine counter block",
            "exc": "the observed exception (one set member, §3.5)",
            "synchronous": "false for §5.1 asynchronous members",
            "request_id": "monotonic per-service request sequence number",
            "trace_id": "id of this request's span tree",
        },
        {
            "events": "per-request trace-event totals (when collected)",
            "trip": "governor trip record, if a one-shot limit fired",
            "faults_injected": "chaos-mode fault records, when any fired",
        },
    ),
    "resource-exhausted": (
        {
            "status": "`\"resource-exhausted\"` — a governor limit or fuel",
            "attempts": "evaluation attempts consumed (>= 1)",
            "stats": "machine counter block",
            "reason": "`steps` | `allocations` | `deadline` | `fuel`",
            "request_id": "monotonic per-service request sequence number",
            "trace_id": "id of this request's span tree",
        },
        {
            "exc": "the delivered fictitious exception "
            "(`Timeout`/`HeapOverflow`)",
            "retry_after": "suggested client backoff (deadline trips only)",
            "trip": "governor trip record",
            "events": "per-request trace-event totals (when collected)",
            "faults_injected": "chaos-mode fault records, when any fired",
        },
    ),
    "rejected": (
        {
            "status": "`\"rejected\"` — never reached a machine",
            "reason": "`queue-full` (429) | `tenant-quota` (429) | "
            "`circuit-open` (503)",
            "retry_after": "seconds to wait (also the Retry-After header)",
            "request_id": "monotonic per-service request sequence number",
            "trace_id": "id of the (admission-only) span tree — lets a "
            "client correlate its retries with server-side traces",
        },
        {},
    ),
    "error": (
        {
            "status": "`\"error\"` — the request could not be evaluated",
            "reason": "`bad-request` | `bad-json` | `body-too-large` | "
            "`parse-error` | `type-error` | `batch-too-large` | "
            "`not-found` (the request is at fault) | `internal-error` "
            "(500: an unexpected exception escaped evaluation)",
            "message": "human-readable detail",
        },
        {
            "request_id": "present when the request reached the service "
            "(absent for transport-level errors shaped by the HTTP "
            "front end: `bad-json`, `body-too-large`, `not-found`)",
            "trace_id": "present exactly when `request_id` is",
        },
    ),
    "batch": (
        {
            "status": "`\"batch\"` — a `{\"programs\": [...]}` request",
            "count": "number of programs evaluated",
            "results": "per-program response bodies, in request order, "
            "each one of the statuses above",
            "request_id": "the batch envelope's own sequence number",
            "trace_id": "the envelope trace (admission/breaker spans); "
            "per-program traces carry it as `parent`",
        },
        {},
    ),
}

#: HTTP status codes per response status (rejected varies by reason).
HTTP_STATUS = {
    "value": "200",
    "exceptional": "200",
    "resource-exhausted": "200",
    "batch": "200",
    "rejected": "429 / 503",
    "error": "400 / 404 / 413 / 500",
}


def schema_sets(status: str) -> Tuple[Set[str], Set[str]]:
    """(required, optional) field-name sets — the test-suite view."""
    required, optional = RESPONSE_SCHEMAS[status]
    return set(required), set(optional)


# -- /healthz shape -----------------------------------------------------

#: field -> (value kind, description).  The telemetry test gates
#: ``set(EvalService().health()) == set(HEALTH_SCHEMA)`` so this table
#: cannot drift from the code.
HEALTH_SCHEMA: Dict[str, Tuple[str, str]] = {
    "status": ("string", "always `\"ok\"` when the service answers"),
    "backend": ("string", "evaluator backend (`ast`/`super`)"),
    "cache": ("object", "program-cache hits/misses/evictions/size"),
    "batches": ("object", "batch envelopes and programs served"),
    "uptime_seconds": ("number", "seconds since service construction"),
    "requests_total": (
        "int",
        "programs served (batch of N counts N; rejections excluded)",
    ),
    "requests": ("object", "per-status request counts"),
    "in_flight": ("int", "programs evaluating right now"),
    "breaker": ("object", "circuit-breaker state + transition history"),
    "events": ("object", "aggregated machine trace-event totals"),
    "governor_trips": ("object", "one-shot governor trips by reason"),
    "faults_injected": ("int", "chaos-mode faults delivered"),
    "retries_performed": ("int", "extra attempts beyond the first"),
    "telemetry": (
        "object",
        "enabled flag, trace-ring occupancy, traces recorded",
    ),
    "scheduler": (
        "object",
        "mode (`threads`/`cooperative`) plus, in cooperative mode, "
        "workers, run-queue depth, active tenants, slices, "
        "preemptions and the starvation watermark "
        "(docs/SERVING.md)",
    ),
    "limits": ("object", "configured per-request and admission limits"),
}


# -- /metrics families --------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """One exposition family — name, kind, labels, meaning.  The
    service builds its registry from these specs and the telemetry
    test gates the rendered ``/metrics`` families against them."""

    name: str
    kind: str  # counter | gauge | histogram
    help: str
    labels: Tuple[str, ...] = ()
    #: Histogram bucket family: "latency" (log-spaced seconds) or
    #: "steps" (log-spaced machine-step counts).  Ignored for
    #: counters/gauges.
    buckets: str = "latency"

    def display_name(self) -> str:
        if self.labels:
            return f"{self.name}{{{','.join(self.labels)}}}"
        return self.name


METRIC_FAMILIES: Tuple[MetricSpec, ...] = (
    MetricSpec(
        "repro_uptime_seconds",
        "gauge",
        "seconds since service construction (injectable clock)",
    ),
    MetricSpec(
        "repro_in_flight", "gauge", "programs evaluating right now"
    ),
    MetricSpec(
        "repro_requests_total",
        "counter",
        "responses by structured status and tenant (bounded "
        "cardinality: first-K distinct tenants, then `other`)",
        ("status", "tenant"),
    ),
    MetricSpec(
        "repro_request_seconds",
        "histogram",
        "per-program service latency, front end through shaping",
    ),
    MetricSpec(
        "repro_stage_seconds",
        "histogram",
        "per-stage latency from the request span tree",
        ("stage",),
    ),
    MetricSpec(
        "repro_breaker_state",
        "gauge",
        "circuit breaker: 0 closed, 1 half-open, 2 open",
    ),
    MetricSpec("repro_cache_hits_total", "counter", "program-cache hits"),
    MetricSpec("repro_cache_misses_total", "counter", "program-cache misses"),
    MetricSpec(
        "repro_governor_trips_total",
        "counter",
        "one-shot governor trips by reason",
        ("reason",),
    ),
    MetricSpec(
        "repro_retries_total",
        "counter",
        "extra evaluation attempts beyond the first",
    ),
    MetricSpec(
        "repro_faults_injected_total",
        "counter",
        "chaos-mode faults delivered",
    ),
    MetricSpec(
        "repro_batches_total", "counter", "batch envelopes served"
    ),
    MetricSpec(
        "repro_batch_programs_total",
        "counter",
        "programs served inside batch envelopes",
    ),
    MetricSpec(
        "repro_machine_events_total",
        "counter",
        "aggregated machine trace events by name",
        ("event",),
    ),
    MetricSpec(
        "repro_traces_total",
        "counter",
        "completed span trees recorded in the trace ring",
    ),
    MetricSpec(
        "repro_run_queue_depth",
        "gauge",
        "evaluations parked in the cooperative run queue "
        "(0 in threads mode)",
    ),
    MetricSpec(
        "repro_active_tenants",
        "gauge",
        "tenants with queued or running work (0 in threads mode)",
    ),
    MetricSpec(
        "repro_sched_slices_total",
        "counter",
        "fuel slices executed by the cooperative scheduler",
    ),
    MetricSpec(
        "repro_sched_preemptions_total",
        "counter",
        "mid-slice §5.1 preemptions injected for tenant step quotas",
    ),
    MetricSpec(
        "repro_starvation_seconds",
        "gauge",
        "high-watermark of ready-to-scheduled wait across all tasks",
    ),
    MetricSpec(
        "repro_slice_steps",
        "histogram",
        "machine steps executed per scheduler slice",
        buckets="steps",
    ),
    MetricSpec(
        "repro_first_slice_seconds",
        "histogram",
        "submit-to-first-slice latency in the cooperative scheduler",
    ),
    MetricSpec(
        "repro_tenant_steps_total",
        "counter",
        "machine steps consumed per tenant (bounded cardinality)",
        ("tenant",),
    ),
    MetricSpec(
        "repro_tenant_served_total",
        "counter",
        "programs completed per tenant (bounded cardinality)",
        ("tenant",),
    ),
)


# -- serve flags --------------------------------------------------------


@dataclass(frozen=True)
class FlagSpec:
    """One ``repro serve`` option, argparse- and docs-renderable.

    ``dest`` names the :class:`~repro.serve.service.ServiceConfig`
    field the flag sets, and the flag's default is that field's
    default, so every service knob is declared once, on the dataclass.
    Only the deployment flags (``--host``/``--port``) have no field and
    carry their own ``default``."""

    flag: str
    help: str
    type: Optional[type] = None
    dest: Optional[str] = None
    default: object = None
    choices: Optional[Tuple[str, ...]] = None
    action: Optional[str] = None  # e.g. "store_false" switches

    def resolved_default(self) -> object:
        if self.dest is None:
            return self.default
        # Imported late: the service module imports this one.
        from repro.serve.service import ServiceConfig

        return ServiceConfig.__dataclass_fields__[self.dest].default

    def add_to(self, parser) -> None:
        kwargs: dict = {}
        if self.action is not None:
            kwargs["action"] = self.action
        else:
            kwargs["type"] = self.type
        if self.choices is not None:
            kwargs["choices"] = list(self.choices)
        if self.dest is not None:
            kwargs["dest"] = self.dest
        parser.add_argument(
            self.flag,
            default=self.resolved_default(),
            help=self.help,
            **kwargs,
        )

    def default_text(self) -> str:
        default = self.resolved_default()
        if self.action in ("store_true", "store_false"):
            return "on" if default else "off"
        return "—" if default is None else str(default)


SERVE_FLAGS: Tuple[FlagSpec, ...] = (
    FlagSpec("--host", "interface to bind", str, default="127.0.0.1"),
    FlagSpec(
        "--port", "port to bind (0 picks a free one)", int, default=8080
    ),
    FlagSpec(
        "--backend",
        "evaluator backend for every request",
        str,
        "backend",
        choices=("ast", "super"),
    ),
    FlagSpec("--max-steps", "per-request step budget", int, "max_steps"),
    FlagSpec(
        "--max-allocations",
        "per-request allocation cap",
        int,
        "max_allocations",
    ),
    FlagSpec(
        "--deadline",
        "per-request wall-clock deadline (seconds)",
        float,
        "deadline_seconds",
    ),
    FlagSpec(
        "--max-concurrency",
        "requests evaluated concurrently (threads mode) or admitted "
        "in-flight (cooperative mode)",
        int,
        "max_concurrency",
    ),
    FlagSpec(
        "--scheduler",
        "execution model: one thread per request, or the fuel-sliced "
        "cooperative multi-tenant scheduler (docs/SERVING.md)",
        str,
        "scheduler",
        choices=("threads", "cooperative"),
    ),
    FlagSpec(
        "--workers",
        "cooperative scheduler worker threads",
        int,
        "workers",
    ),
    FlagSpec(
        "--slice-steps",
        "machine steps granted per cooperative scheduler slice",
        int,
        "slice_steps",
    ),
    FlagSpec(
        "--tenant-max-in-flight",
        "per-tenant admitted-request cap (429 `tenant-quota` beyond)",
        int,
        "tenant_max_in_flight",
    ),
    FlagSpec(
        "--tenant-step-quota",
        "per-tenant in-flight machine-step budget; beyond it the "
        "scheduler preempts with a mid-slice Timeout",
        int,
        "tenant_step_quota",
    ),
    FlagSpec(
        "--queue-depth",
        "admission queue length beyond the concurrency limit",
        int,
        "queue_depth",
    ),
    FlagSpec(
        "--retries",
        "retry budget for transiently failed evaluations",
        int,
        "retries",
    ),
    FlagSpec(
        "--breaker-threshold",
        "consecutive failures before the circuit breaker opens",
        int,
        "breaker_threshold",
    ),
    FlagSpec(
        "--breaker-reset",
        "seconds the breaker stays open before half-opening",
        float,
        "breaker_reset_seconds",
    ),
    FlagSpec(
        "--fault-seed",
        "attach a seeded chaos fault plan to every request (testing)",
        int,
        "fault_seed",
    ),
    FlagSpec(
        "--cache-capacity",
        "LRU bound on the content-addressed program cache",
        int,
        "cache_capacity",
    ),
    FlagSpec(
        "--max-batch",
        "largest accepted {\"programs\": [...]} batch",
        int,
        "max_batch",
    ),
    FlagSpec(
        "--no-telemetry",
        "disable the metrics registry and request tracing "
        "(request/trace ids are still echoed; docs/OBSERVABILITY.md)",
        dest="telemetry",
        action="store_false",
    ),
    FlagSpec(
        "--trace-ring",
        "completed span trees kept in the in-memory ring",
        int,
        "trace_ring",
    ),
    FlagSpec(
        "--trace-log",
        "append one JSON line per completed trace to this file",
        str,
        "trace_log",
    ),
)


def add_serve_flags(parser) -> None:
    """Install every serve flag on an argparse parser."""
    for spec in SERVE_FLAGS:
        spec.add_to(parser)


# -- markdown rendering -------------------------------------------------

MARKER_START = "<!-- serve-schema:start (generated by repro.serve.schema; do not edit by hand) -->"
MARKER_END = "<!-- serve-schema:end -->"

DOCS_PATH = Path(__file__).resolve().parents[3] / "docs" / "ROBUSTNESS.md"


def _cell(text: str) -> str:
    """Escape a description for use inside a markdown table cell."""
    return text.replace("|", "\\|")


def render_markdown() -> str:
    """The generated docs block: response schema + flag table."""
    lines = [MARKER_START, ""]
    lines.append("#### Response schema (generated)")
    lines.append("")
    for status, (required, optional) in RESPONSE_SCHEMAS.items():
        lines.append(
            f"**`{status}`** — HTTP {HTTP_STATUS[status]}"
        )
        lines.append("")
        lines.append("| field | | description |")
        lines.append("|---|---|---|")
        for name, desc in required.items():
            lines.append(f"| `{name}` | required | {_cell(desc)} |")
        for name, desc in optional.items():
            lines.append(f"| `{name}` | optional | {_cell(desc)} |")
        lines.append("")
    lines.append("#### `GET /healthz` fields (generated)")
    lines.append("")
    lines.append("| field | kind | description |")
    lines.append("|---|---|---|")
    for name, (kind, desc) in HEALTH_SCHEMA.items():
        lines.append(f"| `{name}` | {kind} | {_cell(desc)} |")
    lines.append("")
    lines.append("#### `GET /metrics` families (generated)")
    lines.append("")
    lines.append(
        "Prometheus text exposition; histograms use the log-spaced "
        "latency buckets from `repro.obs.telemetry.LATENCY_BUCKETS` "
        "(step-valued histograms use `STEP_BUCKETS`)."
    )
    lines.append("")
    lines.append("| family | type | description |")
    lines.append("|---|---|---|")
    for metric in METRIC_FAMILIES:
        lines.append(
            f"| `{metric.display_name()}` | {metric.kind} | "
            f"{_cell(metric.help)} |"
        )
    lines.append("")
    lines.append("#### `repro serve` flags (generated)")
    lines.append("")
    lines.append("| flag | default | meaning |")
    lines.append("|---|---|---|")
    for spec in SERVE_FLAGS:
        lines.append(
            f"| `{spec.flag}` | {spec.default_text()} | "
            f"{_cell(spec.help)} |"
        )
    lines.append("")
    lines.append(MARKER_END)
    return "\n".join(lines)


def extract_block(text: str) -> Optional[str]:
    """The current generated block inside ``text``, markers included."""
    pattern = re.compile(
        re.escape(MARKER_START) + r".*?" + re.escape(MARKER_END),
        re.DOTALL,
    )
    match = pattern.search(text)
    return match.group(0) if match else None


def sync_docs(path: Path = DOCS_PATH, write: bool = False) -> bool:
    """True when the docs block matches :func:`render_markdown`.

    With ``write=True``, splice the freshly rendered block in place of
    the stale one first.
    """
    text = path.read_text()
    current = extract_block(text)
    rendered = render_markdown()
    if current == rendered:
        return True
    if write and current is not None:
        path.write_text(text.replace(current, rendered))
        return True
    return False


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="sync the generated serve-schema block in "
        "docs/ROBUSTNESS.md"
    )
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.write:
        ok = sync_docs(write=True)
        print("docs/ROBUSTNESS.md serve-schema block updated"
              if ok else "markers not found")
        return 0 if ok else 1
    ok = sync_docs(write=False)
    print("serve-schema block in sync" if ok
          else "serve-schema block STALE — run with --write")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
