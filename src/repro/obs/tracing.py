"""Request-scoped structured tracing: span trees per evaluation.

A **trace** is one request's causal story — admission → breaker →
cache lookup → snapshot fork → governor-attached machine run → retry
attempts → response render — as a tree of timed **spans**.  Spans are
decorations in the same sense as the PR-1 sinks: they observe the
serving pipeline but can never perturb it (a span carries the
machine's deterministic counters and the exceptional-set summary
*after* the fact; it never reaches into the machine).

Determinism contract: ``trace_id``s are allocated by the caller from a
plain monotonic sequence (``EvalService`` does this under its lock),
**not** from randomness or wall time, so two services fed the same
request sequence mint identical ids — which is what keeps the
fork-vs-rebuild byte-identical-response parity suite meaningful with
ids in the bodies.  All timestamps come from the injectable clock.

Export: a completed trace lands in a bounded in-memory ring
(:class:`TraceRecorder`, the flight-recorder view served to tests and
``service.get_trace``) and, opt-in, in a JSONL file via the PR-1
:class:`~repro.obs.sinks.JsonlSink` — one ``trace`` event per request,
replayable with :func:`~repro.obs.sinks.read_trace`.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.sinks import TraceSink, is_live

__all__ = [
    "NULL_TRACE_BUILDER",
    "NullTraceBuilder",
    "Span",
    "Trace",
    "TraceBuilder",
    "TraceRecorder",
    "format_trace_id",
]


def format_trace_id(seq: int) -> str:
    """Sequence number -> opaque id.  16 hex chars, zero-padded:
    stable, sortable, and obviously not a secret."""
    return f"{seq:016x}"


class Span:
    """One timed stage.  ``attrs`` carry whatever the stage learned
    (cache hit?, machine counters, trip reason); ``children`` nest."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": round(self.duration, 9),
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.children:
            record["children"] = [c.as_dict() for c in self.children]
        return record


class Trace:
    """A finished span tree plus its identity."""

    def __init__(
        self,
        trace_id: str,
        request_id: int,
        root: Span,
        parent: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.root = root
        self.parent = parent

    def span_names(self) -> List[str]:
        """Depth-first span names — the shape tests assert on."""
        names: List[str] = []

        def walk(span: Span) -> None:
            names.append(span.name)
            for child in span.children:
                walk(child)

        walk(self.root)
        return names

    def find(self, name: str) -> Optional[Span]:
        stack = [self.root]
        while stack:
            span = stack.pop()
            if span.name == name:
                return span
            stack.extend(reversed(span.children))
        return None

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "spans": self.root.as_dict(),
        }
        if self.parent is not None:
            record["parent"] = self.parent
        return record


class TraceBuilder:
    """Build one request's span tree against an injectable clock.

    Not thread-safe by design: a builder belongs to exactly one
    request, which the service pipeline handles on one thread.  The
    root span opens at construction; ``span`` nests via a stack;
    ``finish`` closes anything still open (crash-safe: a span tree is
    always complete) and freezes the :class:`Trace`.
    """

    def __init__(
        self,
        trace_id: str,
        request_id: int,
        clock: Callable[[], float],
        root_name: str = "request",
        parent: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self._clock = clock
        self._root = Span(root_name, clock())
        self._stack: List[Span] = [self._root]
        self._parent = parent
        self._finished: Optional[Trace] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = Span(name, self._clock())
        if attrs:
            span.attrs.update(attrs)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span."""
        self._stack[-1].attrs.update(attrs)

    def finish(self) -> Trace:
        if self._finished is not None:
            return self._finished
        now = self._clock()
        for span in self._stack:
            if span.end is None:
                span.end = now
        self._stack = [self._root]
        self._finished = Trace(
            self.trace_id, self.request_id, self._root, self._parent
        )
        return self._finished


class NullTraceBuilder:
    """The telemetry-off builder: every method a no-op, so the serving
    pipeline stays branch-free.  Notably it never reads the clock —
    clock-sensitive resilience tests see the same read sequence as a
    build without tracing."""

    trace_id = ""
    request_id = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None

    def annotate(self, **attrs: Any) -> None:
        pass

    def finish(self) -> None:
        return None


NULL_TRACE_BUILDER = NullTraceBuilder()


class TraceRecorder:
    """Bounded ring of completed traces + optional streaming sink.

    The ring answers "what just happened" (``service.get_trace``); the
    sink — any PR-1 :class:`TraceSink`, typically a ``JsonlSink`` —
    gets one ``trace`` event per completed request for offline
    analysis.  Thread-safe; recording never raises.
    """

    def __init__(
        self,
        capacity: int = 256,
        sink: Optional[TraceSink] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("trace ring capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: "deque[Trace]" = deque(maxlen=capacity)
        self._by_id: Dict[str, Trace] = {}
        self._recorded = 0
        self._sink = sink if is_live(sink) else None

    def record(self, trace: Optional[Trace]) -> None:
        if trace is None:
            return
        with self._lock:
            if len(self._ring) == self.capacity:
                evicted = self._ring[0]
                self._by_id.pop(evicted.trace_id, None)
            self._ring.append(trace)
            self._by_id[trace.trace_id] = trace
            self._recorded += 1
        if self._sink is not None:
            self._sink.emit("trace", **trace.as_dict())

    def get(self, trace_id: str) -> Optional[Trace]:
        with self._lock:
            return self._by_id.get(trace_id)

    @property
    def traces(self) -> List[Trace]:
        with self._lock:
            return list(self._ring)

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
