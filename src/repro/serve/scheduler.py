"""The cooperative multi-tenant scheduler behind ``--scheduler
cooperative``.

Thread-per-request serving makes concurrency a thread count; this
module makes it an architecture property.  A small worker pool (W
threads) drives an arbitrary number of in-flight evaluations by
granting each a bounded **fuel slice** per turn through
:class:`repro.machine.slices.SliceRunner` — the evaluation parks in
place at the slice boundary and goes back into its tenant's queue, so
a thousand admitted requests cost a thousand parked continuations,
not a thousand runnable threads fighting for the GIL.

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
``resource-exhausted`` response, same breaker accounting.

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

from repro.core.excset import TIMEOUT
from repro.machine.slices import SliceRunner

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
    get ``observe()``; the tenant callables carry the service's
    bounded-cardinality label discipline."""

    slice_steps: Any = None  # histogram: steps executed per slice
    first_slice: Any = None  # histogram: submit -> first slice seconds
    tenant_steps: Optional[Callable[[str, int], None]] = None
    tenant_served: Optional[Callable[[str], None]] = None


class Task:
    """One submitted evaluation: the slice runner plus its scheduling
    identity and accounting."""

    __slots__ = (
        "runner",
        "tenant",
        "priority",
        "enqueued_at",
        "last_ready_at",
        "first_slice_at",
        "slices",
        "steps",
        "preempted",
        "_event",
    )

    def __init__(
        self, runner: SliceRunner, tenant: str, priority: str, now: float
    ) -> None:
        self.runner = runner
        self.tenant = tenant
        self.priority = priority
        self.enqueued_at = now
        self.last_ready_at = now
        self.first_slice_at: Optional[float] = None
        self.slices = 0
        self.steps = 0
        self.preempted = False
        self._event = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block the submitting thread until the evaluation completes
        (the runner's ``finish()`` then surfaces the result)."""
        return self._event.wait(timeout)


@dataclass
class _TenantState:
    """Per-tenant scheduling state."""

    queues: Dict[str, deque] = field(
        default_factory=lambda: {p: deque() for p in _PRIORITY_ORDER}
    )
    deficit: int = 0
    running: int = 0  # tasks currently holding a worker
    inflight_steps: int = 0  # steps consumed by unfinished tasks
    served: int = 0

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
    """Deficit round-robin fuel-slice executor over per-tenant queues.

    ``workers`` threads loop: pick the next tenant from the rotation,
    credit its deficit, grant one slice to its head task, account, and
    either requeue (yielded) or complete (done).  ``clock`` is
    injectable — with a constant clock every timing field the
    scheduler touches becomes deterministic, which the chaos schedule
    axis relies on for byte-parity oracles.
    """

    def __init__(
        self,
        workers: int = 2,
        slice_steps: int = 25_000,
        tenant_step_quota: Optional[int] = None,
        schedule_seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        hooks: Optional[SchedulerHooks] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slice_steps < 1:
            raise ValueError("slice_steps must be >= 1")
        self.workers = workers
        self.slice_steps = slice_steps
        self.tenant_step_quota = tenant_step_quota
        self.schedule_seed = schedule_seed
        self._clock = clock
        self.hooks = hooks or SchedulerHooks()
        self._cond = threading.Condition()
        self._tenants: "OrderedDict[str, _TenantState]" = OrderedDict()
        self._rotation: deque = deque()
        self._live: set = set()  # every unfinished Task, for close()
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
        self._threads = [
            threading.Thread(
                target=self._worker,
                name=f"repro-sched-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def submit(
        self, tenant: str, priority: str, runner: SliceRunner
    ) -> Task:
        """Enqueue one evaluation.  The caller blocks on
        ``task.wait()``; completion is signalled from the runner's
        continuation thread, so a parked task that self-finishes (an
        interrupt delivered on wake-up) never strands its waiter."""
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; "
                f"expected one of {sorted(PRIORITIES)}"
            )
        task = Task(runner, tenant, priority, self._clock())
        runner.on_done = lambda _runner: self._task_finished(task)
        with self._cond:
            if not self._running:
                raise RuntimeError("scheduler is closed")
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState()
            state.queues[priority].append(task)
            self._live.add(task)
            self._queued += 1
            self.tasks_submitted += 1
            if tenant not in self._rotation:
                self._rotation.append(tenant)
            self._cond.notify()
        return task

    # -- the worker loop -----------------------------------------------

    def _next_rotation_index(self) -> int:
        """Which rotation slot to visit next (0 = strict round-robin).
        A non-zero ``schedule_seed`` draws from the LCG so sweeps
        explore different interleavings deterministically-per-seed."""
        if self.schedule_seed == 0 or len(self._rotation) <= 1:
            return 0
        self._rng = (self._rng * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rng % len(self._rotation)

    def _pick(self) -> Optional[Task]:
        """Under the lock: choose the next (tenant, task) by DRR, or
        None when the scheduler is shutting down."""
        while True:
            if not self._running:
                return None
            if self._paused:
                self._cond.wait()
                continue
            ready = None
            while self._rotation:
                index = self._next_rotation_index()
                tenant = self._rotation[index]
                state = self._tenants[tenant]
                if state.queued():
                    ready = (index, tenant, state)
                    break
                # Idle tenant: drop from the rotation (and forget the
                # deficit — standard DRR, an idle tenant must not bank
                # credit).  Re-added on its next submit/requeue.
                del self._rotation[index]
                state.deficit = 0
            if ready is None:
                self._cond.wait()
                continue
            index, tenant, state = ready
            task = state.pop()
            # Move the visited tenant to the rotation's tail.
            del self._rotation[index]
            if state.queued():
                self._rotation.append(tenant)
            self._queued -= 1
            state.running += 1
            state.deficit += self.slice_steps * PRIORITIES[task.priority]
            return task

    def _worker(self) -> None:
        while True:
            with self._cond:
                task = self._pick()
                if task is None:
                    return
                state = self._tenants[task.tenant]
                grant = max(1, state.deficit)
                preempt = (
                    self.tenant_step_quota is not None
                    and not task.preempted
                    and state.inflight_steps > self.tenant_step_quota
                )
                now = self._clock()
                waited = now - task.last_ready_at
                if waited > self.starvation_seconds:
                    self.starvation_seconds = waited
                if task.first_slice_at is None:
                    task.first_slice_at = now
                    if self.hooks.first_slice is not None:
                        self.hooks.first_slice.observe(
                            now - task.enqueued_at
                        )
                # Counted at the grant: a slice that completes the task
                # wakes its submitter from inside ``run_slice``, before
                # this worker retakes the lock.
                self.slices_total += 1
                task.slices += 1
            if preempt:
                self._preempt(task)
            status = task.runner.run_slice(grant)
            with self._cond:
                task.steps += status.steps
                state.deficit = max(0, state.deficit - status.steps)
                state.running -= 1
                # ``inflight_steps`` = steps consumed by this tenant's
                # *unfinished* tasks: a yielded slice adds its steps, a
                # completion retires the task's earlier contributions.
                # All transitions happen here, under the lock, on the
                # worker that ran the slice — the on_done callback
                # deliberately leaves this field alone to avoid racing
                # a completion against its own final slice.
                done = status.done or task.runner.gate.finished
                if done:
                    state.inflight_steps = max(
                        0,
                        state.inflight_steps
                        - (task.steps - status.steps),
                    )
                else:
                    state.inflight_steps += status.steps
                if self.hooks.slice_steps is not None and status.steps:
                    self.hooks.slice_steps.observe(status.steps)
                if self.hooks.tenant_steps is not None and status.steps:
                    self.hooks.tenant_steps(task.tenant, status.steps)
                if not done:
                    # Back of the line (its own tenant's line).
                    task.last_ready_at = self._clock()
                    state.queues[task.priority].append(task)
                    self._queued += 1
                    if task.tenant not in self._rotation:
                        self._rotation.append(task.tenant)
                    self._cond.notify()

    def _preempt(self, task: Task) -> None:
        """Deliver a §5.1 ``Timeout`` to a quota-busting task through
        its governor so the trip is counted, trace-spanned and shaped
        exactly like any other resource limit.  Falls back to the
        gate's own interrupt when no governor was attached (bare
        runners in tests)."""
        task.preempted = True
        with self._cond:
            self.preemptions_total += 1
        governor = getattr(task.runner, "governor", None)
        if governor is not None:
            governor.inject("tenant-quota", TIMEOUT)
        else:
            task.runner.interrupt(TIMEOUT)

    def _task_finished(self, task: Task) -> None:
        """Completion bookkeeping — runs on the task's continuation
        thread (via ``runner.on_done``), the only place that sees
        *every* completion, including a parked task unwinding from an
        interrupt without ever being granted another slice."""
        with self._cond:
            state = self._tenants.get(task.tenant)
            if state is not None:
                state.served += 1
            self._live.discard(task)
            self.tasks_completed += 1
            if self.hooks.tenant_served is not None:
                self.hooks.tenant_served(task.tenant)
        task._event.set()

    # -- quiesce -------------------------------------------------------

    def pause(self) -> None:
        """Stop granting slices.  Submission, parked continuations and
        in-flight slices are untouched — workers finish the slice they
        are driving and then idle, so the run queue accumulates.  Used
        to quiesce the pool (drain-free maintenance) and by the soak
        gate to build a known in-flight population before draining."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Start granting slices again."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    # -- introspection -------------------------------------------------

    def run_queue_depth(self) -> int:
        with self._cond:
            return self._queued

    def active_tenants(self) -> int:
        with self._cond:
            return sum(
                1 for s in self._tenants.values() if s.active
            )

    def snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` scheduler block (sans ``mode``, which the
        service owns)."""
        with self._cond:
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

    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        with self._cond:
            return {
                tenant: {
                    "queued": state.queued(),
                    "running": state.running,
                    "served": state.served,
                    "inflight_steps": state.inflight_steps,
                }
                for tenant, state in sorted(self._tenants.items())
            }

    # -- shutdown ------------------------------------------------------

    def close(self, cancel: bool = True) -> None:
        """Stop the workers.  With ``cancel`` (default) every
        unfinished task gets a ``ControlC`` through its gate — parked
        continuations wake just to unwind, so no submitter is left
        waiting on a task that will never run again."""
        from repro.core.excset import CONTROL_C

        with self._cond:
            if not self._running:
                return
            self._running = False
            pending = list(self._live)
            self._cond.notify_all()
        if cancel:
            for task in pending:
                task.runner.interrupt(CONTROL_C)
        for thread in self._threads:
            thread.join(timeout=5.0)
