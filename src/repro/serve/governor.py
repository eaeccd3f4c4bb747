"""Per-request resource limits as Section 5.1 fictitious exceptions.

"An external monitoring system might observe that the evaluation of
[an expression] had gone on for a long time, and attempt to abort the
computation" — the paper's Timeout story, and the whole design of this
module.  A :class:`ResourceGovernor` polices one evaluation: it is
consulted by ``Machine._tick_slow`` (attach with
``Machine.attach_governor``) at the steps its :meth:`watermarks` name
— the step past ``max_steps``, each ``DEADLINE_STRIDE`` multiple, the
step after an allocation past ``max_allocations``, and the step after
an :meth:`inject` — and, when a limit is breached, answers with the
matching asynchronous exception —

* ``Timeout`` for the step budget or the wall-clock deadline,
* ``HeapOverflow`` for the allocation cap —

which the machine delivers through the ordinary ``AsyncInterrupt``
path.  Nothing here is a new mechanism: a governed evaluation is
observationally identical to one interrupted by the Section 5.1 event
plan, so all the soundness guarantees (and the chaos sweep that checks
them) carry over for free.

Two deliberate choices:

* **Step-boundary enforcement.**  The allocation cap is checked
  against ``stats.allocations`` at step boundaries rather than inside
  the allocator: an allocation past the machine's allocation
  watermark only schedules a slow tick, and the trip lands on the
  next step boundary — deterministic and identical on every backend
  (off by at most the few allocations a single step performs).
* **One-shot delivery.**  Each limit trips at most once per
  evaluation, like a signal.  A handler that catches the exception
  (``catchIO``) gets to run its recovery un-hounded — graceful
  degradation — while the machine's own fuel remains the hard
  backstop against a handler that never terminates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.excset import Exc, HEAP_OVERFLOW, TIMEOUT
from repro.machine.eval import NEVER

#: How many steps between wall-clock reads.  Reading a monotonic clock
#: every step would dominate governed runtime; every 64th step bounds
#: deadline-detection latency to tens of microseconds of machine work.
DEADLINE_STRIDE = 64


@dataclass(frozen=True)
class GovernorLimits:
    """The per-request budget.  ``None`` disables a limit."""

    max_steps: Optional[int] = None
    max_allocations: Optional[int] = None
    deadline_seconds: Optional[float] = None


@dataclass(frozen=True)
class TripRecord:
    """What the governor did: which limit (``"steps"`` |
    ``"allocations"`` | ``"deadline"``), the exception delivered, and
    the machine state at delivery."""

    reason: str
    exc: str
    step: int
    allocations: int
    elapsed_seconds: float


class ResourceGovernor:
    """Polices one evaluation against a :class:`GovernorLimits`.

    ``clock`` is injectable (monotonic seconds) so deadline behaviour
    is testable without real waiting.  Call :meth:`start` immediately
    before evaluation begins; the machine calls :meth:`poll` at the
    steps :meth:`watermarks` names thereafter (polling at any other
    step is a no-op).  ``trips`` records every limit that fired.
    """

    def __init__(
        self,
        limits: GovernorLimits,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits
        self._clock = clock
        self._started_at: Optional[float] = None
        self._steps_armed = limits.max_steps is not None
        self._allocs_armed = limits.max_allocations is not None
        self._deadline_armed = limits.deadline_seconds is not None
        self._injected: Optional[tuple] = None
        self._machine = None
        self.trips: List[TripRecord] = []

    def start(self) -> None:
        """Open the wall-clock window (idempotent)."""
        if self._started_at is None:
            self._started_at = self._clock()

    @property
    def tripped(self) -> bool:
        return bool(self.trips)

    @property
    def trip(self) -> Optional[TripRecord]:
        """The first limit that fired, or None."""
        return self.trips[0] if self.trips else None

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def _fire(self, reason: str, exc: Exc, stats) -> Exc:
        self.trips.append(
            TripRecord(
                reason=reason,
                exc=exc.name,
                step=stats.steps,
                allocations=stats.allocations,
                elapsed_seconds=self.elapsed(),
            )
        )
        return exc

    def inject(self, reason: str, exc: Exc) -> None:
        """Schedule an *external* one-shot trip — the cooperative
        scheduler's preemption hook (e.g. a per-tenant step quota
        delivering ``Timeout`` mid-slice).  Routing preemptions through
        the governor instead of a side channel means they register as
        ordinary governor trips: counted, trace-spanned, and rendered
        in the response's ``trip`` block like any §5.1 limit.  Safe to
        call from another thread; delivered at the next step boundary
        (the governed machine is woken)."""
        self._injected = (reason, exc)
        machine = self._machine
        if machine is not None:
            machine.wake()

    def watermarks(self, machine) -> Tuple[int, int]:
        """``(step_mark, alloc_mark)``: the machine must poll at the
        first step past ``step_mark`` — the step past ``max_steps`` or
        the next ``DEADLINE_STRIDE`` multiple — or once
        ``stats.allocations`` passes ``alloc_mark``.  Records
        ``machine`` so :meth:`inject` can wake it."""
        # Store, then read; the injecting side writes ``_injected``,
        # then reads ``_machine``.  Either this re-arm sees the
        # injection or the injector sees the machine and wakes it.
        self._machine = machine
        if self._injected is not None:
            return -1, NEVER
        step_mark = alloc_mark = NEVER
        if self._steps_armed:
            step_mark = self.limits.max_steps
        if self._deadline_armed:
            stride = DEADLINE_STRIDE
            step_mark = min(
                step_mark, (machine.stats.steps // stride + 1) * stride - 1
            )
        if self._allocs_armed:
            alloc_mark = self.limits.max_allocations
        return step_mark, alloc_mark

    def poll(self, machine) -> Optional[Exc]:
        """The machine-facing hook: the exception to deliver now, or
        None.  Each limit is one-shot (disarmed after firing)."""
        stats = machine.stats
        if self._injected is not None:
            reason, exc = self._injected
            self._injected = None
            return self._fire(reason, exc, stats)
        if self._steps_armed and stats.steps > self.limits.max_steps:
            self._steps_armed = False
            return self._fire("steps", TIMEOUT, stats)
        if self._allocs_armed and (
            stats.allocations > self.limits.max_allocations
        ):
            self._allocs_armed = False
            return self._fire("allocations", HEAP_OVERFLOW, stats)
        if self._deadline_armed and stats.steps % DEADLINE_STRIDE == 0:
            if self._started_at is None:
                self.start()
            elif (
                self._clock() - self._started_at
                > self.limits.deadline_seconds
            ):
                self._deadline_armed = False
                return self._fire("deadline", TIMEOUT, stats)
        return None
