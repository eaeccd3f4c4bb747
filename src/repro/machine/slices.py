"""Fuel-sliced execution: run an evaluation in bounded step slices.

The cooperative scheduler (``repro.serve.scheduler``) needs a
*resumable* entry point on the machine layer: give an evaluation a
bounded number of steps, get back "yielded" instead of a
:class:`~repro.machine.eval.MachineDiverged`, and resume later with
the counters, trace stream, Shuffled RNG and §3.3 thunk states all
exactly where they were.

A restart-from-the-root design cannot deliver that: re-walking the
spine would re-count steps and re-consult stateful strategies, so a
sliced run would stop being byte-comparable to an unsliced one.
Instead the evaluation runs **exactly once**, on a dedicated
continuation thread, and *parks in place* at slice boundaries — the
Python frame stack is the continuation, the same trick the §3.3
BLACKHOLE discipline plays with in-flight thunks.  Two pieces:

:class:`SliceGate`
    attached to a machine via ``Machine.attach_slice_gate``; consulted
    on the slow half of the tick at its stop line, or the next tick
    after an interrupt (after the governor poll, before the fuel
    check).  When the granted budget is spent it blocks the
    evaluating thread on a condition variable; when an interrupt is
    pending it delivers it through ``Machine._interrupt`` — the single
    §5.1 delivery path shared with the event plan, the fault injector
    and the resource governor, so a scheduler preemption is
    observationally an ordinary asynchronous signal.

:class:`SliceRunner`
    owns the gate plus the continuation thread running a caller
    thunk (fork machine → attach instrumentation → observe →
    classify).  ``run_slice(steps)`` grants a budget, wakes the
    continuation, and blocks the *calling* thread until the
    evaluation parks again or finishes — so a worker pool driving N
    runners executes at most N slices concurrently, while thousands
    of parked continuations cost only an idle thread each (CPython
    3.11 frames live on the heap, so deep ASTs are as safe parked as
    they are on a request thread).

Parity contract (tests/machine/test_slices.py): a sliced run — any
slice sizes, any interleaving — produces the same outcome, counters,
trace events, RNG stream and provenance as an unsliced run on every
backend, because parking adds no observable event and delivery reuses
``_interrupt`` verbatim.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.core.excset import Exc
from repro.machine.eval import NEVER

__all__ = [
    "SLICE_DONE",
    "SLICE_YIELDED",
    "SliceGate",
    "SliceRunner",
    "SliceStatus",
    "run_sliced",
]

#: ``run_slice`` verdicts.
SLICE_YIELDED = "yielded"
SLICE_DONE = "done"

# Gate states.
_RUNNING = 0
_PARKED = 1
_FINISHED = 2


class SliceGate:
    """The park/resume rendezvous between one evaluation and the
    worker currently driving it.

    All transitions happen under one condition variable: the
    continuation thread parks itself in :meth:`on_tick` when the step
    counter reaches the granted stop line; :meth:`grant` (called from
    ``SliceRunner.run_slice`` on a worker thread) raises the stop line
    and wakes it.  ``clock`` is the time source for
    :meth:`active_clock` — the *machine-run* clock that excludes
    parked time, which cooperative governors use so a deadline bounds
    evaluation, not queue position (an injected constant clock makes
    trip records fully deterministic)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._cond = threading.Condition()
        self._state = _RUNNING
        self._stop = 0  # absolute step threshold, like Machine.fuel
        self._steps_at_park = 0
        self._pending: Optional[Exc] = None
        self._clock = clock
        self._active = 0.0
        self._resumed_at = clock()
        self._machine = None
        self.slices = 0

    # -- machine side (continuation thread) ---------------------------

    def watermarks(self, machine) -> Tuple[int, int]:
        """``(step_mark, alloc_mark)``: the machine must call
        :meth:`on_tick` at the stop line — the first step past
        ``_stop - 1`` — or at once when an interrupt is pending.
        Records ``machine`` so :meth:`interrupt` can wake it."""
        # Store, then read; the injecting side writes ``_pending``,
        # then reads ``_machine``.  Either this re-arm sees the
        # injection or the injector sees the machine and wakes it.
        self._machine = machine
        if self._pending is not None:
            return -1, NEVER
        return self._stop - 1, NEVER

    def on_tick(self, machine) -> None:
        """The hook ``Machine._tick_slow`` calls at the steps
        :meth:`watermarks` names (at any other step it does nothing).
        Delivers a pending interrupt first (mid-slice preemption),
        then parks when the slice budget is spent."""
        if self._pending is not None:
            self._deliver(machine)
        if machine.stats.steps < self._stop:
            return
        with self._cond:
            self._active += self._clock() - self._resumed_at
            self._steps_at_park = machine.stats.steps
            self._state = _PARKED
            self.slices += 1
            self._cond.notify_all()
            while self._state == _PARKED and self._pending is None:
                self._cond.wait()
            self._resumed_at = self._clock()
        if self._pending is not None:
            self._deliver(machine)

    def _deliver(self, machine) -> None:
        with self._cond:
            exc, self._pending = self._pending, None
        if exc is not None:
            machine._interrupt(exc)  # raises AsyncInterrupt

    def finish(self, steps: Optional[int] = None) -> None:
        """Mark the evaluation complete (called by the runner's
        continuation thread, success or failure alike)."""
        with self._cond:
            self._active += self._clock() - self._resumed_at
            self._resumed_at = self._clock()
            if steps is not None:
                self._steps_at_park = steps
            self._state = _FINISHED
            self._cond.notify_all()

    # -- scheduler side (worker thread) -------------------------------

    def grant(self, steps: int) -> int:
        """Raise the stop line by ``steps`` from the last park point
        and wake the continuation.  Returns the park-point baseline
        the caller should measure the slice against."""
        with self._cond:
            base = self._steps_at_park
            self._stop = base + max(1, steps)
            if self._state == _PARKED:
                self._state = _RUNNING
                self._cond.notify_all()
            return base

    def wait_not_running(self) -> int:
        """Block until the continuation parks or finishes; returns the
        gate state at that point."""
        with self._cond:
            while self._state == _RUNNING:
                self._cond.wait()
            return self._state

    def interrupt(self, exc: Exc) -> None:
        """Schedule a one-shot §5.1 interrupt.  Delivered at the next
        tick if the evaluation is mid-slice, or immediately on wake-up
        if it is parked (the parked continuation resumes just to
        unwind).  A no-op once the evaluation has finished."""
        with self._cond:
            if self._state == _FINISHED:
                return
            self._pending = exc
            self._cond.notify_all()
        machine = self._machine
        if machine is not None:
            machine.wake()

    def active_clock(self) -> float:
        """Accumulated *running* time: the wall clock minus every
        parked interval.  Monotonic; safe to call from the
        continuation thread (the only poller) while running."""
        with self._cond:
            if self._state == _RUNNING:
                return self._active + (self._clock() - self._resumed_at)
            return self._active

    @property
    def parked_steps(self) -> int:
        with self._cond:
            return self._steps_at_park

    @property
    def finished(self) -> bool:
        with self._cond:
            return self._state == _FINISHED


@dataclass
class SliceStatus:
    """What one ``run_slice`` call observed."""

    state: str  # SLICE_YIELDED | SLICE_DONE
    steps: int  # steps executed during this slice

    @property
    def done(self) -> bool:
        return self.state == SLICE_DONE


class SliceRunner:
    """One evaluation, sliced.

    ``thunk`` is the whole unit of work (machine construction,
    instrumentation, evaluation, classification); it receives the
    runner's :class:`SliceGate` and must attach it to its machine
    *before* evaluation begins (``machine.attach_slice_gate(gate)``) —
    otherwise the first "slice" simply runs to completion.  The thunk
    executes exactly once, on a lazily started daemon thread; its
    return value lands in :attr:`result`, its exception in
    :attr:`error`, and :meth:`finish` re-raises or returns
    accordingly.

    Setting :attr:`machine` (usually from inside the thunk) lets the
    runner report exact step counts for the final partial slice."""

    def __init__(
        self,
        thunk: Callable[[SliceGate], Any],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.gate = SliceGate(clock=clock)
        self._thunk = thunk
        self._thread: Optional[threading.Thread] = None
        self._start_lock = threading.Lock()
        self.machine = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Optional completion callback, invoked (with the runner) on
        #: the continuation thread after the gate reports finished —
        #: how a scheduler learns a parked task self-completed (e.g.
        #: an interrupt delivered on wake-up) without polling.
        self.on_done: Optional[Callable[["SliceRunner"], None]] = None

    @classmethod
    def for_machine(
        cls,
        machine,
        thunk: Callable[[], Any],
        clock: Callable[[], float] = time.monotonic,
    ) -> "SliceRunner":
        """Convenience for an already-built machine: attaches the gate
        and wraps a zero-argument thunk."""
        runner = cls(lambda _gate: thunk(), clock=clock)
        runner.machine = machine
        machine.attach_slice_gate(runner.gate)
        return runner

    def _main(self) -> None:
        steps = None
        try:
            self.result = self._thunk(self.gate)
        except BaseException as err:  # delivered to the waiter
            self.error = err
        finally:
            if self.machine is not None:
                steps = self.machine.stats.steps
            self.gate.finish(steps)
            if self.on_done is not None:
                self.on_done(self)

    def run_slice(self, steps: int) -> SliceStatus:
        """Grant ``steps`` and drive the evaluation until it parks
        again or completes.  Blocks the calling thread for the
        duration of the slice (a worker pool of W threads therefore
        executes at most W slices at once)."""
        if self.gate.finished:
            return SliceStatus(state=SLICE_DONE, steps=0)
        base = self.gate.grant(steps)
        self._ensure_started()
        state = self.gate.wait_not_running()
        executed = self.gate.parked_steps - base
        if state == _FINISHED:
            return SliceStatus(state=SLICE_DONE, steps=max(0, executed))
        return SliceStatus(state=SLICE_YIELDED, steps=executed)

    def _ensure_started(self) -> None:
        with self._start_lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._main,
                    name="repro-slice",
                    daemon=True,
                )
                self._thread.start()

    def interrupt(self, exc: Exc) -> None:
        """Mid-slice §5.1 preemption: deliver ``exc`` through the
        machine's ordinary interrupt path at the next step boundary.

        Also starts the continuation if it never got a first slice —
        a queued-but-never-scheduled evaluation must still be able to
        unwind (the first tick delivers the pending interrupt, so only
        ~one step executes before the unwind)."""
        self.gate.interrupt(exc)
        if not self.gate.finished:
            self._ensure_started()

    def finish(self) -> Any:
        """Join the continuation and surface the thunk's outcome —
        returns its result or re-raises its exception.  Only valid
        after a ``run_slice`` reported done."""
        if self._thread is not None:
            self._thread.join()
        if self.error is not None:
            raise self.error
        return self.result


def run_sliced(
    machine,
    thunk: Callable[[], Any],
    slice_steps: int,
) -> Any:
    """Drive ``thunk`` on ``machine`` to completion in fixed-size
    slices — the single-evaluation harness the parity tests (and the
    chaos schedule axis' building blocks) use.  Semantically identical
    to calling ``thunk()`` directly; the only difference is *when* the
    steps happen."""
    runner = SliceRunner.for_machine(machine, thunk)
    while not runner.run_slice(slice_steps).done:
        pass
    return runner.finish()
