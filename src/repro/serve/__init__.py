"""Resilient evaluate-as-a-service (the ``repro serve`` daemon).

The paper's Section 5.1 observes that timeouts and heap exhaustion are
best modelled as *fictitious exceptions* — ``Timeout`` and
``HeapOverflow`` are "raised" by the environment, not computed by the
semantics, so a program's denotation never mentions them and yet an
implementation may report them.  That observation is precisely the
contract a multi-tenant evaluation service needs: a per-request
resource governor can interrupt any evaluation at a step boundary and
the outcome is still *sound* — either the program's own answer, or an
asynchronous exception the client can see, never a torn value.

Layout
------
``repro.serve.governor``
    Per-request limits (steps, allocations, wall-clock deadline)
    delivered through the machine's ``AsyncInterrupt`` path.
``repro.serve.retry``
    Resilience primitives: retry with exponential backoff and seeded
    jitter, and a circuit breaker with fast rejection and Retry-After.
``repro.serve.service``
    The service itself: fresh machine per request, bounded concurrency
    with an admission queue, structured JSON outcomes, and event
    metrics read off machine counters (the PR-1 event names).
``repro.serve.http``
    A stdlib-only threaded HTTP front end: ``POST /eval`` and
    ``GET /healthz``.
"""

from repro.serve.governor import GovernorLimits, ResourceGovernor, TripRecord
from repro.serve.retry import (
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    OPEN,
    RetryPolicy,
)
from repro.serve.service import EvalService, ServiceConfig

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "EvalService",
    "GovernorLimits",
    "HALF_OPEN",
    "OPEN",
    "ResourceGovernor",
    "RetryPolicy",
    "ServiceConfig",
    "TripRecord",
]
