"""Fuel-sliced execution: run an evaluation in bounded step slices.

The cooperative scheduler (``repro.serve.scheduler``) needs a
*resumable* machine: give an evaluation a bounded number of steps,
let it stop at the boundary instead of raising
:class:`~repro.machine.eval.MachineDiverged`, and resume it later with
the counters, trace stream, Shuffled RNG and §3.3 thunk states all
exactly where they were.

A restart-from-the-root design cannot deliver that: re-walking the
spine would re-count steps and re-consult stateful strategies, so a
sliced run would stop being byte-comparable to an unsliced one.
Instead the evaluation runs **exactly once**, on the thread that
started it, and *parks in place* at slice boundaries — the Python
frame stack is the continuation, the same trick the §3.3 BLACKHOLE
discipline plays with in-flight thunks.  There is no second thread:
parking is a call to :meth:`SliceGate.turn` from inside the machine's
tick, and resuming is that call returning.

:class:`SliceGate`
    attached to a machine via ``Machine.attach_slice_gate``; consulted
    on the slow half of the tick at its stop line, or the next tick
    after an interrupt (after the governor poll, before the fuel
    check).  At the stop line it hands the turn back through
    :meth:`~SliceGate.turn` — the base gate grants the next slice at
    once (:func:`run_sliced`); the scheduler's task blocks there until
    its next turn.  A pending interrupt is delivered through
    ``Machine._interrupt`` — the single §5.1 delivery path shared with
    the event plan, the fault injector and the resource governor, so
    a scheduler preemption is observationally an ordinary asynchronous
    signal.

Parity contract (tests/machine/test_slices.py): a sliced run — any
slice sizes, any interleaving — produces the same outcome, counters,
trace events, RNG stream and provenance as an unsliced run on every
backend, because parking adds no observable event and delivery reuses
``_interrupt`` verbatim.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Tuple

from repro.core.excset import Exc
from repro.machine.eval import NEVER

__all__ = ["SliceGate", "run_sliced"]

#: Guards every gate's pending interrupt between its cross-thread
#: writer and its delivery (both rare; one lock serves all gates).
_PENDING_LOCK = threading.Lock()


class SliceGate:
    """One evaluation's slice boundary.

    ``steps`` is the first slice's budget (None: unbounded, the gate
    never stops the evaluation).  The stop line is an absolute step
    threshold, like ``Machine.fuel``; each :meth:`turn` returns the
    next slice's budget, measured from the step it parked at.
    ``clock`` is the time source for :meth:`active_clock` — the
    *machine-run* clock that excludes parked time, which governors
    read so a deadline bounds evaluation, not queue position.

    Only the evaluating thread moves the stop line and the clock
    fields; :meth:`interrupt` is the one cross-thread entry."""

    def __init__(
        self,
        steps: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.slice_steps = steps
        self._base = 0  # the step the current slice started at
        self._arm(steps)
        self._pending: Optional[Exc] = None
        self._machine = None
        self._clock = clock
        self._parked_at: Optional[float] = None
        self._parked = 0.0  # total parked time

    def _arm(self, steps: Optional[int]) -> None:
        self._stop = NEVER if steps is None else self._base + max(1, steps)

    def turn(self, executed: int) -> Optional[int]:
        """The slice boundary: hand the turn back after ``executed``
        steps and return the next slice's budget (None: unbounded).
        The base gate grants another ``slice_steps`` at once; a
        scheduler's task blocks here until its next turn."""
        return self.slice_steps

    # -- machine side --------------------------------------------------

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
        then parks in :meth:`turn` when the slice budget is spent."""
        if self._pending is not None:
            self._deliver(machine)
        steps = machine.stats.steps
        if steps < self._stop:
            return
        self._parked_at = self._clock()
        grant = self.turn(steps - self._base)
        self._parked += self._clock() - self._parked_at
        self._parked_at = None
        self._base = steps
        self._arm(grant)
        if self._pending is not None:
            self._deliver(machine)

    def _deliver(self, machine) -> None:
        with _PENDING_LOCK:
            exc, self._pending = self._pending, None
        if exc is not None:
            machine._interrupt(exc)  # raises AsyncInterrupt

    def executed(self) -> int:
        """Steps run since the current slice started (0 before a
        machine is attached)."""
        machine = self._machine
        return 0 if machine is None else machine.stats.steps - self._base

    # -- any thread ----------------------------------------------------

    def interrupt(self, exc: Exc) -> None:
        """Schedule a one-shot §5.1 interrupt, delivered at the next
        tick — or, if the evaluation is parked, as soon as it resumes
        (before it runs another step)."""
        with _PENDING_LOCK:
            self._pending = exc
        machine = self._machine
        if machine is not None:
            machine.wake()

    def active_clock(self) -> float:
        """The wall clock minus every parked interval: frozen while
        parked, monotonic throughout.  Never parked, it reads exactly
        ``clock``."""
        now = self._parked_at
        if now is None:
            now = self._clock()
        return now - self._parked


def run_sliced(
    machine,
    thunk: Callable[[], Any],
    slice_steps: int,
) -> Any:
    """Drive ``thunk`` on ``machine`` to completion in fixed-size
    slices — the single-evaluation harness the parity tests use.
    Semantically identical to calling ``thunk()`` directly; the only
    difference is that the machine stops at every slice boundary."""
    machine.attach_slice_gate(SliceGate(slice_steps))
    return thunk()
