"""The evaluation service: per-request isolation, structured outcomes.

Every request gets a **fresh machine** (no shared heap *writes*, no
shared counters — isolation is the whole point of the paper's
per-evaluation semantics), a fresh
:class:`~repro.serve.governor.ResourceGovernor`, and optionally a
fresh seeded fault plan (chaos mode).

There is one request path (docs/SERVING.md).  The machine is *forked*
from a :class:`~repro.machine.snapshot.PreludeSnapshot` — a fully
memoised, therefore immutable, prelude heap built once per process —
and the front end (parse, flatten, typecheck, compile) is served from
a content-addressed :class:`~repro.serve.cache.ProgramCache`, so a
repeat program goes straight to evaluation.  The semantics is per
evaluation, so a fork answers exactly as a machine rebuilt from
scratch by :func:`~repro.machine.snapshot.warm_machine` would; the
tests and E16 keep that rebuild as the reference.

A single program and a ``{"programs": [...]}`` batch pass the same
gates, once per request: admission, the per-tenant quota, then the
circuit breaker.

The outcome is shaped into one of the structured statuses below
(:mod:`repro.serve.schema` is the single source of truth for their
fields):

``value``
    Evaluation reached WHNF (for ``IO`` expressions: the action was
    performed; ``stdout`` rides along).
``exceptional``
    The machine observed a member of the denoted exception set — a
    *successful* evaluation in the resilience sense: deterministic,
    semantically meaningful, pointless to retry.
``resource-exhausted``
    A governor limit fired (Section 5.1 fictitious exceptions:
    ``Timeout`` for steps/deadline, ``HeapOverflow`` for the
    allocation cap) or fuel ran out.  Deadline trips are transient and
    retried under the backoff policy; step/allocation trips are
    deterministic and are not.
``rejected``
    The request never reached a machine: admission queue full
    (``queue-full``), its tenant at its in-flight quota
    (``tenant-quota``), or the circuit breaker open (``circuit-open``)
    — fast rejection with Retry-After.

Concurrency is bounded twice: ``max_concurrency`` machines evaluate at
once, and at most ``queue_depth`` further requests wait; beyond that,
admission fails instantly — a service that queues unboundedly is a
service that falls over late instead of degrading early.

Metrics reuse the PR-1 observability layer's event names: each
request's event totals are read off its machine's counters
(:meth:`~repro.machine.eval.MachineStats.event_counts`, in lockstep
with what a :class:`~repro.obs.sinks.CountingSink` would count, without
putting a sink on the hot tick), and merged into service totals for
``/healthz``.

An exception that escapes evaluation anyway (a ``RecursionError`` from
a very deep program, a ``MachineError`` from an ill-typed one) is the
service's failure, not the client's: it becomes a ``500`` body with
reason ``internal-error``, counted and traced like every other
response, so the latency histogram still counts every request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.machine.heap import AsyncInterrupt, Cell, MachineDiverged, ObjRaise
from repro.machine.observe import (
    Diverged,
    Exceptional,
    Normal,
    show_value,
)
from repro.machine.snapshot import PreludeSnapshot, shared_snapshot
from repro.machine.slices import SliceRunner
from repro.machine.values import VIO
from repro.obs.sinks import JsonlSink
from repro.obs.telemetry import (
    LATENCY_BUCKETS,
    STEP_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import (
    NULL_TRACE_BUILDER,
    TraceBuilder,
    TraceRecorder,
    format_trace_id,
)
from repro.serve.cache import CachedProgram, ProgramCache
from repro.serve.governor import GovernorLimits, ResourceGovernor
from repro.serve.retry import CircuitBreaker, RetryPolicy
from repro.serve.scheduler import (
    PRIORITIES,
    CooperativeScheduler,
    SchedulerHooks,
)
from repro.serve.schema import METRIC_FAMILIES

#: Circuit-breaker states as the ``repro_breaker_state`` gauge value.
_BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

#: Bounds on the last-resort log record: the innermost frames
#: formatted, then the traceback text cut to its last characters.
_LOG_FRAMES = 12
_LOG_TRACEBACK_CHARS = 2_000


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs; per-request limits live in the governor."""

    backend: str = "ast"
    max_steps: Optional[int] = 2_000_000
    max_allocations: Optional[int] = 1_000_000
    deadline_seconds: Optional[float] = 5.0
    max_concurrency: int = 4
    queue_depth: int = 16
    retries: int = 0
    retry_base_delay: float = 0.02
    retry_seed: int = 0
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 1.0
    fault_seed: Optional[int] = None
    fault_horizon: int = 2_000
    collect_events: bool = True
    cache_capacity: int = 256
    max_batch: int = 32
    telemetry: bool = True
    trace_ring: int = 256
    trace_log: Optional[str] = None
    # Cooperative multi-tenant scheduling (docs/SERVING.md).  In
    # "threads" mode every admitted request evaluates on its own
    # thread (the PR-5 model); "cooperative" runs them all on
    # ``workers`` threads in ``slice_steps``-sized fuel slices under
    # per-tenant deficit round-robin, so ``max_concurrency`` becomes
    # the *admitted in-flight* bound rather than a thread count.
    scheduler: str = "threads"
    workers: int = 2
    slice_steps: int = 25_000
    tenant_max_in_flight: Optional[int] = None
    tenant_step_quota: Optional[int] = None
    schedule_seed: int = 0
    #: Bounded metric cardinality: the first K distinct tenants get
    #: their own ``tenant`` label value, the rest share ``other``.
    tenant_label_slots: int = 8

    def backstop_fuel(self) -> int:
        """The machine's own fuel — the hard stop behind the governor
        (a catch handler runs past a one-shot trip, but not forever)."""
        if self.max_steps is None:
            return 8_000_000
        return max(self.max_steps * 4, self.max_steps + 1_000)


@dataclass
class _Attempt:
    """One evaluation attempt, before response shaping."""

    kind: str  # value | exceptional | resource-exhausted
    value: Optional[str] = None
    stdout: Optional[str] = None
    exc: Optional[str] = None
    synchronous: Optional[bool] = None
    reason: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    trip: Optional[dict] = None
    faults_injected: List[dict] = field(default_factory=list)


class EvalService:
    """The thread-safe core behind ``repro serve`` (and the tests,
    which drive it without HTTP).  ``clock`` and ``sleep`` are
    injectable so resilience behaviour is testable without waiting.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.scheduler not in ("threads", "cooperative"):
            raise ValueError(
                f"unknown scheduler {self.config.scheduler!r}; "
                "expected 'threads' or 'cooperative'"
            )
        self._clock = clock
        self._sleep = sleep
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_seconds,
            clock=clock,
        )
        self._running = threading.Semaphore(self.config.max_concurrency)
        self._admission = threading.Semaphore(
            self.config.max_concurrency + self.config.queue_depth
        )
        self._lock = threading.Lock()
        self._request_counter = 0
        self._id_seq = 0
        self._in_flight = 0
        self._tenant_in_flight: Dict[str, int] = {}
        self._tenant_labels: set = set()
        self.requests_by_status: Dict[str, int] = {}
        self.event_totals: Dict[str, int] = {}
        self.trip_totals: Dict[str, int] = {}
        self.faults_injected = 0
        self.retries_performed = 0
        self.batches_total = 0
        self.batch_programs_total = 0
        # One immutable prelude snapshot (shared process-wide per
        # backend — it is read-only by construction) plus a
        # per-service content-addressed artifact cache.
        self.snapshot: PreludeSnapshot = shared_snapshot(
            backend=self.config.backend
        )
        self.cache = ProgramCache(
            backend=self.config.backend,
            strategy_key=self.snapshot.strategy_key(),
            capacity=self.config.cache_capacity,
        )
        self._started_at = clock()
        # Telemetry: registry + trace recorder, both pay-as-you-go —
        # with telemetry off the registry is the null twin and the
        # trace builders are shared no-ops (ids are still minted, so
        # clients always get a correlation handle).
        self.tracer: Optional[TraceRecorder] = None
        if self.config.telemetry:
            self.registry = MetricsRegistry()
            trace_sink = None
            if self.config.trace_log:
                # Line-buffered so a killed daemon still leaves a
                # complete JSONL trail (the CI artifact path).
                trace_sink = JsonlSink(
                    open(
                        self.config.trace_log,
                        "w",
                        encoding="utf-8",
                        buffering=1,
                    )
                )
            self.tracer = TraceRecorder(
                capacity=self.config.trace_ring, sink=trace_sink
            )
        else:
            self.registry = NullRegistry()
        self.scheduler: Optional[CooperativeScheduler] = None
        self._build_metrics()
        if self.config.scheduler == "cooperative":
            self.scheduler = CooperativeScheduler(
                workers=self.config.workers,
                slice_steps=self.config.slice_steps,
                tenant_step_quota=self.config.tenant_step_quota,
                schedule_seed=self.config.schedule_seed,
                clock=clock,
                hooks=SchedulerHooks(
                    slice_steps=self._m["repro_slice_steps"],
                    first_slice=self._m["repro_first_slice_seconds"],
                ),
            )

    # -- telemetry ------------------------------------------------------

    def _build_metrics(self) -> None:
        """Instantiate every family in
        :data:`repro.serve.schema.METRIC_FAMILIES` — the schema module
        is the single source of truth, the telemetry test gates the
        rendered exposition against it.  Live state (uptime, in-flight,
        breaker, cache, trace ring) is exposed through read-through
        callbacks so nothing is accounted twice."""
        callbacks = {
            "repro_uptime_seconds": lambda: self._clock()
            - self._started_at,
            "repro_in_flight": lambda: self._in_flight,
            "repro_breaker_state": lambda: _BREAKER_STATES.get(
                self.breaker.as_dict()["state"], -1
            ),
            "repro_cache_hits_total": lambda: self.cache.stats()["hits"],
            "repro_cache_misses_total": lambda: (
                self.cache.stats()["misses"]
            ),
            "repro_traces_total": lambda: (
                self.tracer.recorded if self.tracer else 0
            ),
            "repro_run_queue_depth": lambda: (
                self.scheduler.run_queue_depth() if self.scheduler else 0
            ),
            "repro_active_tenants": lambda: (
                self.scheduler.active_tenants() if self.scheduler else 0
            ),
            "repro_sched_slices_total": lambda: (
                self.scheduler.slices_total if self.scheduler else 0
            ),
            "repro_sched_preemptions_total": lambda: (
                self.scheduler.preemptions_total if self.scheduler else 0
            ),
            "repro_starvation_seconds": lambda: (
                self.scheduler.starvation_seconds
                if self.scheduler
                else 0.0
            ),
        }
        buckets = {"latency": LATENCY_BUCKETS, "steps": STEP_BUCKETS}
        instruments = {}
        for spec in METRIC_FAMILIES:
            if spec.kind == "histogram":
                instruments[spec.name] = self.registry.histogram(
                    spec.name,
                    spec.help,
                    buckets[spec.buckets],
                    spec.labels,
                )
            elif spec.kind == "gauge":
                instruments[spec.name] = self.registry.gauge(
                    spec.name,
                    spec.help,
                    spec.labels,
                    callback=callbacks.get(spec.name),
                )
            else:
                instruments[spec.name] = self.registry.counter(
                    spec.name,
                    spec.help,
                    spec.labels,
                    callback=callbacks.get(spec.name),
                )
        self._m = instruments

    def _next_ids(self) -> Tuple[int, str]:
        """Mint ``(request_id, trace_id)``.  A plain monotonic
        sequence — deterministic per service instance, so two
        services fed the same request sequence answer with
        byte-identical bodies, ids included."""
        with self._lock:
            self._id_seq += 1
            seq = self._id_seq
        return seq, format_trace_id(seq)

    def _trace_builder(
        self, ids: Tuple[int, str], parent: Optional[str] = None
    ):
        if self.tracer is None:
            return NULL_TRACE_BUILDER
        request_id, trace_id = ids
        return TraceBuilder(
            trace_id, request_id, self._clock, parent=parent
        )

    def _finish_trace(self, builder) -> None:
        trace = builder.finish()
        if trace is None or self.tracer is None:
            return
        stage_seconds = self._m["repro_stage_seconds"]
        for child in trace.root.children:
            stage_seconds.observe(child.duration, stage=child.name)
        self.tracer.record(trace)

    def get_trace(self, trace_id: str):
        """Resolve an echoed ``trace_id`` to its recorded span tree
        (None once it ages out of the ring or with telemetry off)."""
        if self.tracer is None:
            return None
        return self.tracer.get(trace_id)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` payload: Prometheus text exposition."""
        return self.registry.render()

    def close(self) -> None:
        """Stop the scheduler (cooperative mode) and flush the opt-in
        trace log (idempotent)."""
        if self.scheduler is not None:
            self.scheduler.close()
        if self.tracer is not None:
            self.tracer.close()

    # -- request handling -----------------------------------------------

    def handle(
        self, payload: Any
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """Serve one request.  Returns ``(http_status, body,
        retry_after)`` — the HTTP front end turns ``retry_after`` into
        a ``Retry-After`` header; library callers read it from the body.

        Two payload shapes: ``{"expr": "<source>"}`` evaluates one
        program; ``{"programs": [...]}`` evaluates a batch under a
        single admission ticket (items are source strings or
        ``{"expr": ..., "stdin": ..., "typecheck": ...}`` objects).
        """
        ids = self._next_ids()
        builder = self._trace_builder(ids)
        try:
            if isinstance(payload, dict) and "programs" in payload:
                return self._handle_batch(payload, ids, builder)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("expr"), str
            ):
                return self._bad_request(
                    'body must be JSON {"expr": "<source>"} or '
                    '{"programs": [...]}',
                    ids,
                    builder,
                )
            identity_error = self._identity_error(payload)
            if identity_error is not None:
                return self._bad_request(identity_error, ids, builder)
            request = self._normalize(payload)
            return self._gated(
                request["tenant"],
                ids,
                builder,
                lambda: self._serve_program(request, ids, builder),
            )
        finally:
            self._finish_trace(builder)

    def _handle_batch(
        self, payload: Dict[str, Any], ids: Tuple[int, str], builder
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """N programs, one admission ticket: the queue slot, the
        tenant quota and the breaker consultation are paid once per
        batch, while every program keeps its own cache lookup,
        machine, governor, fault plan and structured response."""
        programs = payload.get("programs")
        if not isinstance(programs, list) or not programs:
            return self._bad_request(
                '"programs" must be a non-empty JSON array', ids, builder
            )
        if len(programs) > self.config.max_batch:
            builder.annotate(error="batch-too-large")
            return (
                400,
                {
                    "status": "error",
                    "reason": "batch-too-large",
                    "message": f"batch of {len(programs)} exceeds "
                    f"max_batch={self.config.max_batch}",
                    "request_id": ids[0],
                    "trace_id": ids[1],
                },
                None,
            )
        identity_error = self._identity_error(payload)
        if identity_error is not None:
            return self._bad_request(identity_error, ids, builder)
        # The envelope's tenant/priority are the defaults every item
        # inherits (items may override).
        defaults = {
            key: payload[key]
            for key in ("tenant", "priority")
            if key in payload
        }
        requests = []
        for item in programs:
            if isinstance(item, str):
                item = {"expr": item}
            if not isinstance(item, dict) or not isinstance(
                item.get("expr"), str
            ):
                return self._bad_request(
                    "batch items must be source strings or "
                    '{"expr": "<source>"} objects',
                    ids,
                    builder,
                )
            item = {**defaults, **item}
            identity_error = self._identity_error(item)
            if identity_error is not None:
                return self._bad_request(identity_error, ids, builder)
            requests.append(self._normalize(item))
        tenant = self._normalize({"expr": "", **defaults})["tenant"]
        return self._gated(
            tenant,
            ids,
            builder,
            lambda: self._serve_batch(requests, ids, builder),
        )

    def _serve_batch(
        self,
        requests: List[Dict[str, Any]],
        ids: Tuple[int, str],
        builder,
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """Every program of an admitted batch on its own machine, in
        request order, each with its own child trace."""
        results = []
        child_traces = []
        for request in requests:
            child_ids = self._next_ids()
            child_builder = self._trace_builder(child_ids, parent=ids[1])
            try:
                results.append(
                    self._serve_program(request, child_ids, child_builder)[1]
                )
            finally:
                self._finish_trace(child_builder)
            child_traces.append(child_ids[1])
        builder.annotate(programs=len(results), children=child_traces)
        with self._lock:
            self.batches_total += 1
            self.batch_programs_total += len(results)
        self._m["repro_batches_total"].inc()
        self._m["repro_batch_programs_total"].inc(len(results))
        body = {
            "status": "batch",
            "count": len(results),
            "results": results,
            "request_id": ids[0],
            "trace_id": ids[1],
        }
        return 200, body, None

    def _gated(
        self,
        tenant: str,
        ids: Tuple[int, str],
        builder,
        serve: Callable[[], Tuple[int, Dict[str, Any], Optional[float]]],
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """Admission, then the tenant quota, then the breaker — the
        gates every request passes once, a batch as a whole — and
        ``serve()`` behind them."""
        with builder.span("admission"):
            admitted = self._admission.acquire(blocking=False)
        if not admitted:
            return self._rejected(
                "queue-full", self._queue_retry_after(), tenant, ids, builder
            )
        try:
            if not self._tenant_acquire(tenant):
                return self._rejected(
                    "tenant-quota",
                    self._queue_retry_after(),
                    tenant,
                    ids,
                    builder,
                )
            try:
                with builder.span("breaker"):
                    allowed, retry_after = self.breaker.allow()
                if not allowed:
                    return self._rejected(
                        "circuit-open", retry_after, tenant, ids, builder
                    )
                return serve()
            finally:
                self._tenant_release(tenant)
        finally:
            self._admission.release()

    def _rejected(
        self,
        reason: str,
        retry_after: float,
        tenant: str,
        ids: Tuple[int, str],
        builder,
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """The ``rejected`` response: the request never reached a
        machine.  HTTP 503 for an open breaker, 429 otherwise."""
        builder.annotate(rejected=reason)
        self._count_status("rejected", tenant)
        body = {
            "status": "rejected",
            "reason": reason,
            "retry_after": round(retry_after, 3),
            "request_id": ids[0],
            "trace_id": ids[1],
        }
        return (
            503 if reason == "circuit-open" else 429,
            body,
            retry_after,
        )

    def _queue_retry_after(self) -> float:
        return max((self.config.deadline_seconds or 1.0) / 2, 0.05)

    @staticmethod
    def _identity_error(payload: Dict[str, Any]) -> Optional[str]:
        """Validate the scheduling identity riding on a request (or a
        batch envelope/item): ``tenant`` must be a non-empty string,
        ``priority`` one of the known classes.  None when fine."""
        tenant = payload.get("tenant", "anonymous")
        if not isinstance(tenant, str) or not tenant:
            return '"tenant" must be a non-empty string'
        priority = payload.get("priority", "normal")
        if priority not in PRIORITIES:
            return (
                f'"priority" must be one of '
                f'{sorted(PRIORITIES)}, not {priority!r}'
            )
        return None

    @staticmethod
    def _normalize(payload: Dict[str, Any]) -> Dict[str, Any]:
        stdin = payload.get("stdin", "")
        return {
            "expr": payload["expr"],
            "stdin": stdin if isinstance(stdin, str) else "",
            "typecheck": bool(payload.get("typecheck", False)),
            "tenant": payload.get("tenant", "anonymous"),
            "priority": payload.get("priority", "normal"),
        }

    def _tenant_acquire(self, tenant: str) -> bool:
        """Per-tenant in-flight quota — the 429 a single flooding
        tenant gets while everyone else keeps being admitted.  Always
        granted when ``tenant_max_in_flight`` is unset."""
        limit = self.config.tenant_max_in_flight
        if limit is None:
            return True
        with self._lock:
            current = self._tenant_in_flight.get(tenant, 0)
            if current < limit:
                self._tenant_in_flight[tenant] = current + 1
                return True
        return False

    def _tenant_release(self, tenant: str) -> None:
        if self.config.tenant_max_in_flight is None:
            return
        with self._lock:
            remaining = self._tenant_in_flight.get(tenant, 0) - 1
            if remaining <= 0:
                self._tenant_in_flight.pop(tenant, None)
            else:
                self._tenant_in_flight[tenant] = remaining

    def _tenant_label(self, tenant: str) -> str:
        """Bounded-cardinality ``tenant`` label: the first
        ``tenant_label_slots`` distinct tenants keep their own label
        value (an approximation of top-K that needs no decay), later
        ones share ``other``."""
        with self._lock:
            if tenant in self._tenant_labels:
                return tenant
            if len(self._tenant_labels) < self.config.tenant_label_slots:
                self._tenant_labels.add(tenant)
                return tenant
        return "other"

    def _bad_request(
        self,
        message: str,
        ids: Optional[Tuple[int, str]] = None,
        builder=None,
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        body: Dict[str, Any] = {
            "status": "error",
            "reason": "bad-request",
            "message": message,
        }
        if ids is not None:
            body["request_id"] = ids[0]
            body["trace_id"] = ids[1]
        if builder is not None:
            builder.annotate(error="bad-request")
        return 400, body, None

    def _serve_program(
        self,
        request: Dict[str, Any],
        ids: Tuple[int, str],
        builder,
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        """Front end, evaluation, shaping and accounting for one
        program — admission and breaker gating already done.  Exactly
        one ``repro_request_seconds`` observation per call, so the
        histogram count equals ``requests_total`` by construction."""
        started = self._clock()
        try:
            status, body, retry_after = self._serve_program_inner(
                request, builder
            )
        except Exception as err:
            # The last resort: never let a raw exception escape the
            # response schema (or drop an HTTP connection).
            status, body, retry_after = self._internal_error(
                err, request, builder
            )
        finally:
            self._m["repro_request_seconds"].observe(
                self._clock() - started
            )
        body["request_id"] = ids[0]
        body["trace_id"] = ids[1]
        return status, body, retry_after

    def _internal_error(
        self, err: Exception, request: Dict[str, Any], builder
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        # Imported here, on the rare path, so serving loads nothing
        # more than it did before the handler existed.
        import hashlib
        import logging
        import traceback

        # One bounded record: a RecursionError from a deep program
        # carries thousands of frames (megabytes of text), so only the
        # innermost frames are formatted and the text is cut.
        digest = hashlib.sha256(
            request.get("expr", "").encode("utf-8", "surrogatepass")
        ).hexdigest()[:12]
        tail = "".join(
            traceback.format_exception(
                type(err), err, err.__traceback__, limit=-_LOG_FRAMES
            )
        )[-_LOG_TRACEBACK_CHARS:]
        logging.getLogger(__name__).error(
            "internal error serving trace %s: %s (source sha256 %s)\n%s",
            builder.trace_id or "-",
            type(err).__name__,
            digest,
            tail,
        )
        self.breaker.record_failure()
        self._count_status("error", request.get("tenant", "anonymous"))
        builder.annotate(error="internal-error")
        return (
            500,
            {
                "status": "error",
                "reason": "internal-error",
                "message": f"evaluation failed: {type(err).__name__}",
            },
            None,
        )

    def _serve_program_inner(
        self, request: Dict[str, Any], builder
    ) -> Tuple[int, Dict[str, Any], Optional[float]]:
        tenant = request.get("tenant", "anonymous")
        builder.annotate(
            tenant=tenant, priority=request.get("priority", "normal")
        )
        with self._lock:
            self._request_counter += 1
            seed_id = self._request_counter

        with builder.span("cache-lookup"):
            entry = self.cache.lookup(request["expr"])
        if entry.error is not None:
            # A parse/flatten error is the *client's* failure, not the
            # pool's — it must not open the breaker.
            self.breaker.record_success()
            self._count_status("error", tenant)
            builder.annotate(error="parse-error")
            return (
                400,
                {
                    "status": "error",
                    "reason": "parse-error",
                    "message": entry.error,
                },
                None,
            )
        if request["typecheck"]:
            with builder.span("typecheck"):
                verdict, detail = entry.typecheck()
            if verdict != "ok":
                self.breaker.record_success()
                self._count_status("error", tenant)
                builder.annotate(error="type-error")
                return (
                    400,
                    {
                        "status": "error",
                        "reason": "type-error",
                        "message": detail,
                    },
                    None,
                )

        self._running.acquire()
        with self._lock:
            self._in_flight += 1
        try:
            attempt_result, attempts = self._with_retries(
                entry, request, seed_id, builder
            )
        finally:
            with self._lock:
                self._in_flight -= 1
            self._running.release()

        with builder.span("render", status=attempt_result.kind):
            body = self._shape(attempt_result, attempts)
            self._absorb(attempt_result, attempts, tenant)
        if attempt_result.kind == "resource-exhausted":
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        return 200, body, body.get("retry_after")

    # -- evaluation -----------------------------------------------------

    def _with_retries(
        self,
        entry: CachedProgram,
        request: Dict[str, Any],
        seed_id: int,
        builder=NULL_TRACE_BUILDER,
    ) -> Tuple[_Attempt, int]:
        attempts_budget = max(1, self.config.retries + 1)
        policy = RetryPolicy(
            attempts=attempts_budget,
            base_delay=self.config.retry_base_delay,
            seed=self.config.retry_seed + seed_id,
            sleep=self._sleep,
        )
        result, attempts = policy.run(
            lambda i: self._attempt(entry, request, seed_id, i, builder),
            self._retryable,
        )
        return result, attempts

    @staticmethod
    def _retryable(result: _Attempt) -> bool:
        # Transient = environmental: a wall-clock deadline trip, or an
        # asynchronous exception injected by the fault plan.  A value,
        # a synchronous exception, and deterministic step/allocation
        # exhaustion all recur identically on a deterministic machine.
        if result.kind == "resource-exhausted":
            return result.reason == "deadline"
        if result.kind == "exceptional":
            return result.synchronous is False
        return False

    def _attempt(
        self,
        entry: CachedProgram,
        request: Dict[str, Any],
        seed_id: int,
        attempt_number: int,
        builder=NULL_TRACE_BUILDER,
    ) -> _Attempt:
        if self.scheduler is not None:
            return self._attempt_cooperative(
                entry, request, seed_id, attempt_number, builder
            )
        return self._run_evaluation(
            entry, request, seed_id, attempt_number, builder
        )

    def _attempt_cooperative(
        self,
        entry: CachedProgram,
        request: Dict[str, Any],
        seed_id: int,
        attempt_number: int,
        builder=NULL_TRACE_BUILDER,
    ) -> _Attempt:
        """One attempt under the cooperative scheduler: the evaluation
        becomes a :class:`SliceRunner` task, queued under the request's
        tenant/priority and executed in fuel slices by the worker pool;
        this (request) thread blocks until the task completes, so the
        retry policy and response shaping are oblivious to the mode."""
        holder: Dict[str, Any] = {}

        def thunk(gate) -> _Attempt:
            return self._run_evaluation(
                entry,
                request,
                seed_id,
                attempt_number,
                builder,
                gate=gate,
                runner=holder["runner"],
            )

        runner = SliceRunner(thunk, clock=self._clock)
        holder["runner"] = runner
        task = self.scheduler.submit(
            request.get("tenant", "anonymous"),
            request.get("priority", "normal"),
            runner,
        )
        task.wait()
        result = runner.finish()
        builder.annotate(slices=task.slices)
        return result

    def _run_evaluation(
        self,
        entry: CachedProgram,
        request: Dict[str, Any],
        seed_id: int,
        attempt_number: int,
        builder=NULL_TRACE_BUILDER,
        gate=None,
        runner=None,
    ) -> _Attempt:
        config = self.config
        stdin = request.get("stdin", "")
        with builder.span("attempt", number=attempt_number):
            machine, program, env = self._machine(entry, builder)
            if gate is not None:
                # Sliced mode: the machine parks at slice boundaries,
                # and the governor's deadline is measured against the
                # gate's *active* clock (running time minus parked
                # time) so queueing under a busy scheduler can never
                # consume a request's deadline budget.
                machine.attach_slice_gate(gate)
            governor = ResourceGovernor(
                GovernorLimits(
                    max_steps=config.max_steps,
                    max_allocations=config.max_allocations,
                    deadline_seconds=config.deadline_seconds,
                ),
                clock=gate.active_clock if gate is not None else self._clock,
            )
            if runner is not None:
                # Published for the scheduler: ``governor`` is its
                # preemption hook (§5.1 trips injected mid-slice),
                # ``machine`` lets the runner report exact final-slice
                # step counts.
                runner.governor = governor
                runner.machine = machine
            fault = None
            if config.fault_seed is not None:
                from repro.chaos.faults import FaultPlan

                fault = FaultPlan.seeded(
                    config.fault_seed + seed_id * 31 + attempt_number,
                    horizon=config.fault_horizon,
                    interrupts=1,
                    latencies=1,
                    sleep=self._sleep,
                )
                machine.attach_fault_plan(fault)
            machine.attach_governor(governor)
            with builder.span("machine-run"):
                # The governor's deadline base is its own clock read,
                # taken *inside* the span, so span bookkeeping can
                # never shift a trip decision.
                governor.start()
                outcome = self._observe(program, env, machine, stdin)
            result = self._classify(outcome, machine, governor, fault)
            # Decorate the attempt with the machine's deterministic
            # counters and the exceptional-set summary — observation
            # after the fact, never interference.
            builder.annotate(
                kind=result.kind,
                steps=result.stats.get("steps"),
                allocations=result.stats.get("allocations"),
            )
            if result.exc is not None:
                builder.annotate(
                    exc=result.exc, synchronous=result.synchronous
                )
            if result.reason is not None:
                builder.annotate(reason=result.reason)
            return result

    def _machine(
        self, entry: CachedProgram, builder
    ) -> Tuple[Any, Any, Any]:
        """``(machine, program, env)`` for one attempt: an O(1) fork
        sharing the frozen prelude heap.  The fork carries no
        instrumentation (the caller attaches governor and fault plan),
        so it counts exactly what a machine rebuilt from scratch by
        :func:`~repro.machine.snapshot.warm_machine` would."""
        with builder.span("fork"):
            machine, env = self.snapshot.fork(
                fuel=self.config.backstop_fuel()
            )
        if self.config.backend != "super":
            return machine, entry.expr, env
        # The cached lowered program bakes the snapshot's (immutable)
        # cells in and takes the running machine as an argument, so
        # one compilation serves every fork.  Its tier (closure on
        # first use, fused once the entry is hot) goes on the attempt
        # span.
        program, lowering, built = entry.lower(
            self.snapshot.env, machine.strategy
        )
        builder.annotate(lowering=lowering, codegen=built)
        return machine, program, ()

    def _observe(self, expr, env, machine, stdin: str):
        """Evaluate; perform ``IO`` values through the executor (so
        ``catchIO`` can catch governor-injected interrupts — graceful
        degradation).  Returns an Outcome or an IOResult."""
        from repro.io.run import IOExecutor

        try:
            value = machine.eval(expr, env)
        except (ObjRaise, AsyncInterrupt) as err:
            return Exceptional(err.exc)
        except MachineDiverged:
            return Diverged()
        if isinstance(value, VIO):
            executor = IOExecutor(machine=machine, stdin=stdin)
            return executor.run_cell(Cell.ready(value))
        return Normal(value)

    def _classify(self, outcome, machine, governor, fault) -> _Attempt:
        result = _Attempt(kind="value")
        result.stats = machine.stats.as_dict()
        if self.config.collect_events:
            result.events = machine.stats.event_counts()
        if fault is not None:
            result.faults_injected = [
                {"kind": rec.kind, "step": rec.step, "exc": rec.exc}
                for rec in fault.injected
            ]
        trip = governor.trip
        if trip is not None:
            result.trip = {
                "reason": trip.reason,
                "exc": trip.exc,
                "step": trip.step,
                "allocations": trip.allocations,
                "elapsed_seconds": round(trip.elapsed_seconds, 6),
            }

        # IOResult from the executor path.
        if hasattr(outcome, "status") and hasattr(outcome, "stdout"):
            if outcome.status == "ok":
                result.kind = "value"
                result.value = self._render(outcome.value, machine)
                result.stdout = outcome.stdout
                return result
            if outcome.status == "diverged":
                result.kind = "resource-exhausted"
                result.reason = "fuel"
                return result
            outcome = Exceptional(outcome.exc)

        if isinstance(outcome, Diverged):
            result.kind = "resource-exhausted"
            result.reason = "fuel"
            return result
        if isinstance(outcome, Exceptional):
            exc = outcome.exc
            tripped_names = {t.exc for t in governor.trips}
            if exc.name in tripped_names:
                result.kind = "resource-exhausted"
                result.reason = governor.trip.reason
                result.exc = exc.name
                return result
            result.kind = "exceptional"
            result.exc = exc.name
            result.synchronous = exc.synchronous
            return result
        # Normal — render, tolerating an interrupt during forcing of
        # lazy structure (the governor is one-shot but the fault plan
        # may still have pending faults).
        try:
            result.value = self._render(outcome.value, machine)
        except AsyncInterrupt as err:
            result.kind = "exceptional"
            result.exc = err.exc.name
            result.synchronous = False
        return result

    @staticmethod
    def _render(value, machine) -> str:
        if value is None:
            return "()"
        return show_value(value, machine)

    # -- response shaping and metrics -----------------------------------

    def _shape(self, result: _Attempt, attempts: int) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "status": result.kind,
            "attempts": attempts,
            "stats": result.stats,
        }
        if result.kind == "value":
            body["value"] = result.value
            if result.stdout:
                body["stdout"] = result.stdout
        elif result.kind == "exceptional":
            body["exc"] = result.exc
            body["synchronous"] = result.synchronous
        elif result.kind == "resource-exhausted":
            body["reason"] = result.reason
            if result.exc is not None:
                body["exc"] = result.exc
            if result.reason == "deadline":
                body["retry_after"] = round(
                    (self.config.deadline_seconds or 1.0) / 2, 3
                )
        if result.trip is not None:
            body["trip"] = result.trip
        if result.faults_injected:
            body["faults_injected"] = result.faults_injected
        if result.events:
            body["events"] = result.events
        return body

    def _count_status(
        self, status: str, tenant: str = "anonymous"
    ) -> None:
        with self._lock:
            self.requests_by_status[status] = (
                self.requests_by_status.get(status, 0) + 1
            )
        self._m["repro_requests_total"].inc(
            status=status, tenant=self._tenant_label(tenant)
        )

    def _absorb(
        self, result: _Attempt, attempts: int, tenant: str = "anonymous"
    ) -> None:
        self._count_status(result.kind, tenant)
        label = self._tenant_label(tenant)
        self._m["repro_tenant_served_total"].inc(tenant=label)
        steps = result.stats.get("steps", 0)
        if steps:
            self._m["repro_tenant_steps_total"].inc(steps, tenant=label)
        with self._lock:
            for name, count in result.events.items():
                self.event_totals[name] = (
                    self.event_totals.get(name, 0) + count
                )
            if result.trip is not None:
                reason = result.trip["reason"]
                self.trip_totals[reason] = (
                    self.trip_totals.get(reason, 0) + 1
                )
            self.faults_injected += len(result.faults_injected)
            self.retries_performed += attempts - 1
        events_metric = self._m["repro_machine_events_total"]
        for name, count in result.events.items():
            events_metric.inc(count, event=name)
        if result.trip is not None:
            self._m["repro_governor_trips_total"].inc(
                reason=result.trip["reason"]
            )
        if result.faults_injected:
            self._m["repro_faults_injected_total"].inc(
                len(result.faults_injected)
            )
        if attempts > 1:
            self._m["repro_retries_total"].inc(attempts - 1)

    # -- health ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        with self._lock:
            requests = dict(sorted(self.requests_by_status.items()))
            events = dict(sorted(self.event_totals.items()))
            trips = dict(sorted(self.trip_totals.items()))
            in_flight = self._in_flight
            total = self._request_counter
            faults = self.faults_injected
            retries = self.retries_performed
            batches = {
                "total": self.batches_total,
                "programs": self.batch_programs_total,
            }
        if self.scheduler is not None:
            snap = self.scheduler.snapshot()
            scheduler_block = {
                "mode": "cooperative",
                "workers": snap["workers"],
                "slice_steps": snap["slice_steps"],
                "run_queue_depth": snap["run_queue_depth"],
                "active_tenants": snap["active_tenants"],
                "slices": snap["slices"],
                "preemptions": snap["preemptions"],
                "starvation_seconds": round(
                    snap["starvation_seconds"], 3
                ),
            }
        else:
            scheduler_block = {
                "mode": "threads",
                "workers": self.config.max_concurrency,
                "slice_steps": None,
                "run_queue_depth": 0,
                "active_tenants": 0,
                "slices": 0,
                "preemptions": 0,
                "starvation_seconds": 0.0,
            }
        return {
            "status": "ok",
            "backend": self.config.backend,
            "scheduler": scheduler_block,
            "cache": self.cache.stats(),
            "batches": batches,
            "uptime_seconds": round(self._clock() - self._started_at, 3),
            "requests_total": total,
            "requests": requests,
            "in_flight": in_flight,
            "breaker": self.breaker.as_dict(),
            "events": events,
            "governor_trips": trips,
            "faults_injected": faults,
            "retries_performed": retries,
            "telemetry": {
                "enabled": self.config.telemetry,
                "trace_ring": self.config.trace_ring,
                "traces_recorded": (
                    self.tracer.recorded if self.tracer else 0
                ),
                "traces_retained": (
                    len(self.tracer.traces) if self.tracer else 0
                ),
            },
            "limits": {
                "max_steps": self.config.max_steps,
                "max_allocations": self.config.max_allocations,
                "deadline_seconds": self.config.deadline_seconds,
                "max_concurrency": self.config.max_concurrency,
                "queue_depth": self.config.queue_depth,
            },
        }
