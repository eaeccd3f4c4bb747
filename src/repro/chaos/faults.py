"""Deterministic fault plans: what to break, and exactly when.

A :class:`FaultPlan` is the chaos-engineering generalisation of the
Section 5.1 :class:`~repro.io.events.EventPlan`.  Where an event plan
schedules *which* asynchronous exception arrives at *which* step, a
fault plan also models the two other ways a real runtime environment
misbehaves:

* **allocation failure** — the heap refuses service once a program has
  allocated enough cells; delivered as ``HeapOverflow``, the paper's
  canonical fictitious exception for exhausted resources;
* **artificial latency** — a wall-clock stall at a step boundary, the
  fault that trips deadline governors and exercises retry paths
  without making anything *semantically* wrong.

Faults are consulted by ``Machine._tick_slow`` (attach with
``Machine.attach_fault_plan``) at the steps the plan's
:meth:`~FaultPlan.watermarks` name, so injection happens at step
boundaries on every backend identically, and every injected exception
travels the ordinary ``AsyncInterrupt`` path — fault injection is
observationally indistinguishable from a genuinely hostile
environment, which is the point.

Determinism is non-negotiable: a plan is a pure function of its seed
(or its explicit fault list), so every chaotic run can be replayed
exactly.  The plan records what actually fired (``injected``) for
post-run assertions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.excset import (
    ASYNC_EXCEPTIONS,
    CONTROL_C,
    Exc,
    HEAP_OVERFLOW,
)
from repro.io.events import EventPlan
from repro.machine.eval import NEVER

#: Deliver an asynchronous exception at a step boundary.
INTERRUPT = "interrupt"

#: Refuse further allocation: ``HeapOverflow`` once the allocation
#: counter reaches a threshold (checked at step boundaries, so the two
#: backends — one of which inlines allocation — behave identically).
ALLOC_FAIL = "alloc-fail"

#: Stall the evaluator for a moment without raising anything.
LATENCY = "latency"

FAULT_KINDS = (INTERRUPT, ALLOC_FAIL, LATENCY)


@dataclass(frozen=True)
class Fault:
    """One scheduled misbehaviour.

    ``step`` arms the fault: it cannot fire before the machine's step
    counter reaches it.  For :data:`ALLOC_FAIL`, ``allocations`` is the
    real trigger — the fault fires at the first armed step boundary
    where ``stats.allocations`` has reached it.  ``exc`` is the
    exception an :data:`INTERRUPT` delivers (default ``ControlC``;
    alloc failures always deliver ``HeapOverflow``).  ``seconds`` is
    the stall a :data:`LATENCY` fault injects.
    """

    kind: str
    step: int = 1
    exc: Optional[Exc] = None
    allocations: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )


@dataclass(frozen=True)
class InjectedFault:
    """The record of one fault that actually fired: its kind, the step
    it was delivered on, the exception name (None for latency) and the
    stall length (0.0 for everything else)."""

    kind: str
    step: int
    exc: Optional[str] = None
    seconds: float = 0.0


class FaultPlan:
    """A replayable schedule of faults, consumed by one machine run.

    The plan is stateful while running (fired faults are spent;
    ``injected`` accumulates the delivery record), so a plan instance
    belongs to exactly one evaluation.  Use :meth:`fresh` to get an
    unspent copy for the next run — the service does this per request.

    ``sleep`` is the clock used for latency faults; tests inject a fake
    to keep the suite fast.
    """

    def __init__(
        self,
        faults: Sequence[Fault] = (),
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        # Latency sorts first within a step: a stall *precedes* any
        # exception delivered at the same boundary (the interrupt
        # unwinds evaluation, so anything after it never fires).
        self._pending: List[Fault] = sorted(
            self.faults,
            key=lambda f: (f.step, 0 if f.kind == LATENCY else 1, f.kind),
        )
        self.injected: List[InjectedFault] = []
        self._sleep = sleep

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(
        cls,
        plan: EventPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultPlan":
        """Bridge from a Section 5.1 event plan: each scheduled event
        becomes an :data:`INTERRUPT` fault at its step."""
        return cls(
            tuple(
                Fault(INTERRUPT, step=step, exc=exc)
                for step, exc in plan.schedule
            ),
            sleep=sleep,
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: int,
        interrupts: int = 1,
        latencies: int = 0,
        max_latency: float = 0.002,
        alloc_fail_after: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultPlan":
        """A deterministic random plan: ``interrupts`` asynchronous
        exceptions and ``latencies`` stalls at seeded steps in
        ``[1, horizon]``, plus (optionally) an allocation failure once
        ``alloc_fail_after`` cells have been allocated.  The same seed
        always builds the same plan."""
        rng = random.Random(seed)
        faults: List[Fault] = []
        for _ in range(interrupts):
            faults.append(
                Fault(
                    INTERRUPT,
                    step=rng.randint(1, max(1, horizon)),
                    exc=rng.choice(ASYNC_EXCEPTIONS),
                )
            )
        for _ in range(latencies):
            faults.append(
                Fault(
                    LATENCY,
                    step=rng.randint(1, max(1, horizon)),
                    seconds=rng.uniform(0.0, max_latency),
                )
            )
        if alloc_fail_after is not None:
            faults.append(
                Fault(ALLOC_FAIL, step=1, allocations=alloc_fail_after)
            )
        return cls(tuple(faults), sleep=sleep)

    def fresh(self) -> "FaultPlan":
        """An unspent copy of this plan (same schedule, empty record)."""
        return FaultPlan(self.faults, sleep=self._sleep)

    # -- the machine-facing hook ----------------------------------------

    def watermarks(self, machine) -> Tuple[int, int]:
        """``(step_mark, alloc_mark)``: the machine must consult
        :meth:`on_step` at the first step past ``step_mark`` (the
        earliest arming step still ahead, or now if an armed fault is
        still pending) or once ``stats.allocations`` passes
        ``alloc_mark`` (the earliest threshold of an armed
        :data:`ALLOC_FAIL`)."""
        steps = machine.stats.steps
        step_mark = alloc_mark = NEVER
        for fault in self._pending:
            if steps < fault.step:
                step_mark = min(step_mark, fault.step - 1)
            elif fault.kind == ALLOC_FAIL:
                alloc_mark = min(alloc_mark, fault.allocations - 1)
            else:
                step_mark = min(step_mark, steps)
        return step_mark, alloc_mark

    def on_step(self, machine) -> Optional[Exc]:
        """Consulted by ``Machine._tick_slow`` at the steps
        :meth:`watermarks` names (at any other step it would fire
        nothing): fire every fault whose trigger has been reached.
        Latency faults stall and the scan continues; the first
        exception-bearing fault wins the step (the machine delivers it
        as an ``AsyncInterrupt``)."""
        stats = machine.stats
        pending = self._pending
        i = 0
        while i < len(pending):
            fault = pending[i]
            if stats.steps < fault.step:
                i += 1
                continue
            if fault.kind == ALLOC_FAIL and (
                stats.allocations < fault.allocations
            ):
                i += 1
                continue
            del pending[i]
            if fault.kind == LATENCY:
                self.injected.append(
                    InjectedFault(
                        LATENCY, stats.steps, seconds=fault.seconds
                    )
                )
                if fault.seconds > 0:
                    self._sleep(fault.seconds)
                continue
            exc = fault.exc
            if exc is None:
                exc = HEAP_OVERFLOW if fault.kind == ALLOC_FAIL else CONTROL_C
            self.injected.append(
                InjectedFault(fault.kind, stats.steps, exc=exc.name)
            )
            return exc
        return None

    # -- inspection -----------------------------------------------------

    @property
    def spent(self) -> bool:
        """True when every scheduled fault has fired."""
        return not self._pending

    def as_dict(self) -> dict:
        return {
            "faults": [
                {
                    "kind": f.kind,
                    "step": f.step,
                    "exc": f.exc.name if f.exc is not None else None,
                    "allocations": f.allocations,
                    "seconds": f.seconds,
                }
                for f in self.faults
            ],
            "injected": [
                {
                    "kind": rec.kind,
                    "step": rec.step,
                    "exc": rec.exc,
                    "seconds": rec.seconds,
                }
                for rec in self.injected
            ],
        }
