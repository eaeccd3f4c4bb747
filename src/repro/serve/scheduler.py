"""The multi-tenant scheduler every served attempt runs under.

The scheduler owns no threads.  The thread that submits an attempt
runs it: it waits for its first turn in :meth:`~CooperativeScheduler.
submit`, evaluates, and at every **fuel slice** boundary parks in
place inside the machine's tick (:class:`repro.machine.slices.
SliceGate` — the Python frame stack is the continuation) while the
scheduler hands the turn on.  At most ``workers`` tasks hold a run
slot at once; the rest wait in their tenant's queue.  On submit, on
yield and on finish the calling thread takes the scheduler lock and
picks who runs next: if the pick is itself it keeps running with no
thread switch, otherwise it wakes the picked task's thread and waits
for its own next turn.

``repro serve --scheduler`` picks a preset of this one path:
``threads`` gives every admitted request a run slot
(``workers = max_concurrency``) and unbounded slices, so no attempt
ever parks; ``cooperative`` runs ``--workers`` slots in
``--slice-steps`` slices.

Fair share is **deficit round-robin over tenants**: active tenants sit
in a rotation; each visit credits the tenant's deficit counter with a
quantum (``slice_steps`` × the priority weight of the task at the head
of its queue) and runs one slice against the accumulated credit, so a
tenant whose slices underrun keeps the difference and no tenant can
buy more machine-steps per round than its weight.  Priority classes
(``interactive`` > ``normal`` > ``batch``) order tasks *within* a
tenant and scale the quantum; tenants themselves are peers — one
tenant flooding requests competes with itself, not with the others.

Preemption is §5.1, not bookkeeping: when a tenant's in-flight
machine-step consumption exceeds ``tenant_step_quota``, the scheduler
injects a one-shot ``Timeout`` through the task's
:class:`~repro.serve.governor.ResourceGovernor`
(:meth:`~repro.serve.governor.ResourceGovernor.inject`), which the
machine delivers mid-slice via the ordinary ``AsyncInterrupt`` path —
so a preempted hot tenant is observationally identical to one that
tripped a step limit: same trip record, same trace span, same
``resource-exhausted`` response.

``schedule_seed`` deterministically perturbs the rotation order — the
knob the chaos explorer's schedule axis sweeps to prove that *no*
interleaving of slices changes any response body (request machines
share no mutable state, so any schedule-dependent observable is a
real isolation bug).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.excset import CONTROL_C, TIMEOUT
from repro.machine.slices import SliceGate

__all__ = [
    "PRIORITIES",
    "CooperativeScheduler",
    "SchedulerHooks",
    "Task",
]

#: Priority classes -> quantum weight.  The weight scales the DRR
#: quantum, so an ``interactive`` tenant visit buys 4× the
#: machine-steps of a ``batch`` visit; within one tenant's queue,
#: higher classes run first.
PRIORITIES: Dict[str, int] = {
    "interactive": 4,
    "normal": 2,
    "batch": 1,
}

#: Intra-tenant service order.
_PRIORITY_ORDER = ("interactive", "normal", "batch")


@dataclass
class SchedulerHooks:
    """Telemetry fan-out, injected by the service (every field is
    optional so the scheduler stays standalone-testable).  Histograms
    get ``observe()``."""

    slice_steps: Any = None  # histogram: steps executed per slice
    first_slice: Any = None  # histogram: submit -> first slice seconds


class Task(SliceGate):
    """One evaluation: the slice gate its machine parks at, plus its
    scheduling identity and accounting.  Attach it to the machine
    (``machine.attach_slice_gate(task)``) between
    :meth:`CooperativeScheduler.submit` and
    :meth:`CooperativeScheduler.finish`.  Setting :attr:`governor`
    before submitting makes quota preemption a governor trip."""

    def __init__(
        self,
        tenant: str,
        priority: str,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(clock=clock)
        self.tenant = tenant
        self.priority = priority
        self.governor = None
        self.enqueued_at = 0.0
        self.last_ready_at = 0.0
        self.first_slice_at: Optional[float] = None
        self.slices = 0
        self.steps = 0
        self.preempted = False
        self._scheduler: Optional["CooperativeScheduler"] = None
        self._granted: Optional[int] = None
        # Held while the task waits in the run queue; the scheduler
        # releases it to hand the turn over.  Made on first queueing:
        # a task that finds a free slot never waits.
        self._wake: Optional[threading.Lock] = None

    def turn(self, executed: int) -> Optional[int]:
        return self._scheduler._yield(self, executed)


@dataclass
class _TenantState:
    """Per-tenant scheduling state."""

    queues: Dict[str, deque] = field(
        default_factory=lambda: {p: deque() for p in _PRIORITY_ORDER}
    )
    deficit: int = 0
    running: int = 0  # tasks currently holding a run slot
    inflight_steps: int = 0  # steps consumed by unfinished tasks

    def queued(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def pop(self) -> Optional[Task]:
        for priority in _PRIORITY_ORDER:
            queue = self.queues[priority]
            if queue:
                return queue.popleft()
        return None

    @property
    def active(self) -> bool:
        return self.running > 0 or self.queued() > 0


class CooperativeScheduler:
    """Deficit round-robin over per-tenant queues and ``workers`` run
    slots, driven by the tasks' own threads.

    ``slice_steps=None`` makes slices unbounded: a task keeps its slot
    from its first turn to its finish.  ``clock`` is injectable — with
    a constant clock every timing field the scheduler touches becomes
    deterministic.
    """

    def __init__(
        self,
        workers: int = 2,
        slice_steps: Optional[int] = 25_000,
        tenant_step_quota: Optional[int] = None,
        schedule_seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        hooks: Optional[SchedulerHooks] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slice_steps is not None and slice_steps < 1:
            raise ValueError("slice_steps must be >= 1")
        self.workers = workers
        self.slice_steps = slice_steps
        self.tenant_step_quota = tenant_step_quota
        self.schedule_seed = schedule_seed
        self._clock = clock
        self.hooks = hooks or SchedulerHooks()
        self._lock = threading.Lock()
        self._tenants: "OrderedDict[str, _TenantState]" = OrderedDict()
        self._rotation: deque = deque()
        self._live: set = set()  # every unfinished Task, for close()
        self._free = workers  # run slots not held by a task
        self._running = True
        self._paused = False
        self._queued = 0
        # Rotation perturbation state for the schedule axis: a tiny
        # LCG seeded from schedule_seed; seed 0 keeps strict rotation.
        self._rng = schedule_seed & 0xFFFFFFFF
        self.slices_total = 0
        self.preemptions_total = 0
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.starvation_seconds = 0.0  # high-watermark of ready-wait

    # -- the task's own thread -----------------------------------------

    def submit(self, task: Task) -> None:
        """Queue ``task`` and block the calling thread until its first
        turn.  The caller then runs the evaluation (parking at every
        slice boundary) and must call :meth:`finish` afterwards,
        success or failure alike."""
        if task.priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {task.priority!r}; "
                f"expected one of {sorted(PRIORITIES)}"
            )
        task._scheduler = self
        with self._lock:
            if not self._running:
                raise RuntimeError("scheduler is closed")
            state = self._tenants.get(task.tenant)
            if state is None:
                state = self._tenants[task.tenant] = _TenantState()
            self._live.add(task)
            self.tasks_submitted += 1
            now = task.enqueued_at = task.last_ready_at = self._clock()
            if self._free > 0 and not self._queued and not self._paused:
                # A free slot and nobody waiting: DRR would pick this
                # task, so it runs on without touching the run queue.
                self._grant(task, state, now)
                waits = False
            else:
                self._enqueue(task, state)
                self._dispatch()
                waits = True
        if waits:
            task._wake.acquire()
        task._arm(task._granted)

    def _yield(self, task: Task, executed: int) -> Optional[int]:
        """A slice boundary (called from ``task.turn`` inside the
        machine's tick): give the slot up, go to the back of the
        tenant's line, and return the next grant once it is this
        task's turn again."""
        with self._lock:
            if not self._running:
                # Closing: run on to deliver the pending ControlC.
                return None
            state = self._tenants[task.tenant]
            self._account(task, state, executed, done=False)
            task.last_ready_at = self._clock()
            self._enqueue(task, state)
            self._dispatch()
        task._wake.acquire()
        return task._granted

    def finish(self, task: Task) -> None:
        """The evaluation is over: release its slot and hand it on."""
        executed = task.executed()
        with self._lock:
            state = self._tenants[task.tenant]
            self._account(task, state, executed, done=True)
            self._live.discard(task)
            self.tasks_completed += 1
            if self._queued:
                self._dispatch()

    # -- under the lock ------------------------------------------------

    def _enqueue(self, task: Task, state: _TenantState) -> None:
        if task._wake is None:
            task._wake = threading.Lock()
            task._wake.acquire()
        state.queues[task.priority].append(task)
        self._queued += 1
        if task.tenant not in self._rotation:
            self._rotation.append(task.tenant)

    def _account(
        self, task: Task, state: _TenantState, executed: int, done: bool
    ) -> None:
        """Retire one slice: ``executed`` steps, and the slot."""
        task.steps += executed
        state.deficit = max(0, state.deficit - executed)
        state.running -= 1
        self._free += 1
        # ``inflight_steps`` = steps consumed by this tenant's
        # *unfinished* tasks: a yielded slice adds its steps, a
        # completion retires the task's earlier contributions.
        if done:
            state.inflight_steps = max(
                0, state.inflight_steps - (task.steps - executed)
            )
        else:
            state.inflight_steps += executed
        if self.hooks.slice_steps is not None and executed:
            self.hooks.slice_steps.observe(executed)

    def _next_rotation_index(self) -> int:
        """Which rotation slot to visit next (0 = strict round-robin).
        A non-zero ``schedule_seed`` draws from the LCG so sweeps
        explore different interleavings deterministically-per-seed."""
        if self.schedule_seed == 0 or len(self._rotation) <= 1:
            return 0
        self._rng = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rng % len(self._rotation)

    def _pick(self) -> Task:
        """Choose the next queued task by DRR (some task is queued)."""
        while True:
            index = self._next_rotation_index()
            tenant = self._rotation[index]
            state = self._tenants[tenant]
            if state.queued():
                break
            # Idle tenant: drop from the rotation (and forget the
            # deficit — standard DRR, an idle tenant must not bank
            # credit).  Re-added on its next enqueue.
            del self._rotation[index]
            state.deficit = 0
        task = state.pop()
        # Move the visited tenant to the rotation's tail.
        del self._rotation[index]
        if state.queued():
            self._rotation.append(tenant)
        self._queued -= 1
        return task

    def _dispatch(self) -> None:
        """Hand every free slot to the next queued task by DRR."""
        while self._free > 0 and self._queued and not self._paused:
            task = self._pick()
            self._grant(task, self._tenants[task.tenant], self._clock())
            task._wake.release()

    def _grant(self, task: Task, state: _TenantState, now: float) -> None:
        """Give ``task`` a run slot and its next slice."""
        state.running += 1
        self._free -= 1
        if self.slice_steps is None:
            task._granted = None
        else:
            state.deficit += self.slice_steps * PRIORITIES[task.priority]
            task._granted = max(1, state.deficit)
        waited = now - task.last_ready_at
        if waited > self.starvation_seconds:
            self.starvation_seconds = waited
        if task.first_slice_at is None:
            task.first_slice_at = now
            if self.hooks.first_slice is not None:
                self.hooks.first_slice.observe(now - task.enqueued_at)
        self.slices_total += 1
        task.slices += 1
        if (
            self.tenant_step_quota is not None
            and not task.preempted
            and state.inflight_steps > self.tenant_step_quota
        ):
            self._preempt(task)

    def _preempt(self, task: Task) -> None:
        """Deliver a §5.1 ``Timeout`` to a quota-busting task through
        its governor so the trip is counted, trace-spanned and shaped
        exactly like any other resource limit.  Falls back to the
        gate's own interrupt when no governor was attached (bare
        tasks in tests)."""
        task.preempted = True
        self.preemptions_total += 1
        if task.governor is not None:
            task.governor.inject("tenant-quota", TIMEOUT)
        else:
            task.interrupt(TIMEOUT)

    # -- quiesce -------------------------------------------------------

    def pause(self) -> None:
        """Stop handing out turns.  Submission is untouched and running
        tasks keep their slot until their next slice boundary, so the
        run queue accumulates.  Used to quiesce the scheduler and by
        the soak gate to build a known in-flight population before
        draining."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Start handing out turns again."""
        with self._lock:
            self._paused = False
            self._dispatch()

    # -- introspection -------------------------------------------------

    def run_queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def active_tenants(self) -> int:
        with self._lock:
            return sum(1 for s in self._tenants.values() if s.active)

    def snapshot(self) -> Dict[str, Any]:
        """Counters and gauges for ``/healthz``."""
        with self._lock:
            return {
                "workers": self.workers,
                "slice_steps": self.slice_steps,
                "run_queue_depth": self._queued,
                "active_tenants": sum(
                    1 for s in self._tenants.values() if s.active
                ),
                "slices": self.slices_total,
                "preemptions": self.preemptions_total,
                "submitted": self.tasks_submitted,
                "completed": self.tasks_completed,
                "starvation_seconds": round(self.starvation_seconds, 6),
            }

    # -- shutdown ------------------------------------------------------

    def close(self) -> None:
        """Refuse new tasks and cancel every unfinished one with a
        ``ControlC``: running tasks take it at their next step, and
        queued ones — parked or never started — are released without a
        slot to take it as soon as they resume, so no submitter is left
        waiting on a turn that will never come."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            for task in self._live:
                task.interrupt(CONTROL_C)
            for state in self._tenants.values():
                while True:
                    task = state.pop()
                    if task is None:
                        break
                    state.running += 1
                    self._free -= 1
                    task._granted = None
                    task._wake.release()
            self._queued = 0
            self._rotation.clear()
