"""Differential test for the step watermark.

The hot tick takes ``Machine._tick_slow`` only at the steps some
consumer asked for (``Machine._rearm``).  The reference below restores
per-step polling — every tick slow, as when any consumer was attached
before the watermark existed — and every case must observe the same
outcome, ``MachineStats`` (rare event counters included), governor
``TripRecord``s, ``faults_injected`` and event trace on both backends
and on the closure tier (``super`` running ``compile_top`` code, whose
inlined ticks are the closure lowering's own).
"""

import dataclasses
import itertools
import sys
import threading
import time

import pytest

from repro.api import compile_expr
from repro.chaos.faults import INTERRUPT, Fault, FaultPlan
from repro.core.excset import CONTROL_C, TIMEOUT
from repro.io.run import IOExecutor
from repro.machine import Machine
from repro.machine.heap import AsyncInterrupt, Cell, MachineDiverged, ObjRaise
from repro.machine.observe import show_value
from repro.machine.slices import SliceGate
from repro.machine.snapshot import shared_snapshot
from repro.machine.strategy import LeftToRight
from repro.machine.values import VIO
from repro.obs.sinks import RingBufferSink
from repro.serve.governor import GovernorLimits, ResourceGovernor
from tests.conftest import LOWERINGS, backend_of, lower_for

FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 13"
)
# Survives interrupts: each getException turns one into a value.
CATCHING = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in bindIO (getException (fib 12)) "
    "(\\r1 -> bindIO (getException (fib 11)) "
    "(\\r2 -> getException (fib 10)))"
)
# The allocation-cap-during-memoised-re-raise program of
# tests/serve/test_governor.py.
RERAISE = (
    "let { bad = 1 `div` 0 } in "
    "bindIO (getException bad) "
    "(\\r1 -> getException (sum [1, 2, 3, 4, 5] + bad))"
)
LOOP_THEN_FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in bindIO (getException (let { loop = \\x -> loop x } in loop 1)) "
    "(\\r -> getException (fib 10))"
)


def per_step_polling(machine):
    """The reference tick: after every re-arm, pin the watermark below
    every step count, so each tick runs ``_tick_slow`` and polls every
    consumer."""
    rearm = machine._rearm

    def rearm_every_step():
        rearm()
        machine._watch = -1

    machine._rearm = rearm_every_step
    machine._watch = -1


class SteppingClock:
    """A clock that creeps forward on every read."""

    def __init__(self, per_read=0.001):
        self.now = 0.0
        self.per_read = per_read

    def __call__(self):
        self.now += self.per_read
        return self.now


class InjectingStrategy(LeftToRight):
    """Left-to-right, but stateful (consulted per primitive execution
    on every backend) and calling ``hook`` at its ``at``-th
    consultation — an injection from *inside* a step, between ticks."""

    stateless = False

    def __init__(self, at, hook):
        self.at = at
        self.hook = hook
        self.calls = 0

    def order(self, op, n):
        self.calls += 1
        if self.calls == self.at:
            self.hook()
        return super().order(op, n)


class RacingGovernor(ResourceGovernor):
    """Injects from inside its own ``watermarks`` at step ``RACE_AT`` (a
    ``DEADLINE_STRIDE`` multiple, so both runs re-arm there): the
    interleaving where another thread's ``inject`` lands after the
    re-arm read the injection state but before it stored the
    watermark."""

    RACE_AT = 1_024

    def watermarks(self, machine):
        marks = super().watermarks(machine)
        if machine.stats.steps == self.RACE_AT and not self.trips:
            self.inject("tenant-quota", TIMEOUT)
        return marks


class RecordingGate(SliceGate):
    """A slice gate that records the steps of every completed slice."""

    def __init__(self, steps):
        super().__init__(steps)
        self.executed_slices = []

    def turn(self, executed):
        self.executed_slices.append(executed)
        return self.slice_steps


@dataclasses.dataclass
class Observed:
    outcome: tuple
    stats: dict
    trips: list
    faults: list
    trace: list
    slices: list
    slow_ticks: int


def observe_run(
    source,
    backend,
    *,
    reference,
    sink=False,
    fuel=2_000_000,
    limits=None,
    clock=None,
    fault=None,
    events=None,
    inject_at=None,
    governor_cls=ResourceGovernor,
    slice_steps=None,
    timeout_as_exception=False,
):
    # A fork, plus the Section 5.1 event plan forks do not take.
    env = shared_snapshot(backend_of(backend)).env
    machine = Machine(
        backend=backend_of(backend), fuel=fuel, event_plan=events
    )
    if reference:
        per_step_polling(machine)
    ticks = itertools.count()
    slow = machine._tick_slow

    def counted_tick_slow():
        next(ticks)
        slow()

    machine._tick_slow = counted_tick_slow
    trace = None
    if sink:
        trace = RingBufferSink(capacity=1_000_000)
        machine.attach_sink(trace)
    governor = None
    if limits is not None:
        governor = governor_cls(
            limits, clock=clock() if clock is not None else SteppingClock()
        )
    if inject_at is not None:
        machine.strategy = InjectingStrategy(
            inject_at, lambda: governor.inject("tenant-quota", TIMEOUT)
        )
    plan = fault() if fault is not None else None
    if plan is not None:
        machine.attach_fault_plan(plan)
    if governor is not None:
        machine.attach_governor(governor)
        governor.start()
    expr, env = lower_for(backend, compile_expr(source), env, machine)

    def evaluate():
        try:
            value = machine.eval(expr, env)
            if isinstance(value, VIO):
                result = IOExecutor(
                    machine=machine,
                    timeout_as_exception=timeout_as_exception,
                ).run_cell(Cell.ready(value))
                if result.status != "ok":
                    return (result.status, result.exc and result.exc.name)
                value = result.value
            return ("value", show_value(value, machine))
        except (ObjRaise, AsyncInterrupt) as err:
            return ("exc", err.exc.name)
        except MachineDiverged:
            return ("diverged",)

    gate = None
    if slice_steps is not None:
        gate = RecordingGate(slice_steps)
        machine.attach_slice_gate(gate)
    outcome = evaluate()
    slices = gate.executed_slices if gate is not None else []
    return Observed(
        outcome=outcome,
        stats=dataclasses.asdict(machine.stats),
        trips=list(governor.trips) if governor is not None else [],
        faults=list(plan.injected) if plan is not None else [],
        trace=trace.events if trace is not None else [],
        slices=slices,
        slow_ticks=next(ticks),
    )


def _alloc_total(source, backend):
    probe = observe_run(source, backend, reference=False)
    return probe.stats["allocations"]


CASES = {
    "step-cap": dict(source=FIB, limits=GovernorLimits(max_steps=1_000)),
    "step-cap-caught": dict(
        source=CATCHING, limits=GovernorLimits(max_steps=3_000)
    ),
    "alloc-cap": dict(source=FIB, limits=GovernorLimits(max_allocations=700)),
    "alloc-cap-caught": dict(
        source=CATCHING, limits=GovernorLimits(max_allocations=400)
    ),
    "deadline": dict(
        source=FIB,
        limits=GovernorLimits(deadline_seconds=0.03),
        clock=lambda: SteppingClock(0.001),
    ),
    "all-limits": dict(
        source=CATCHING,
        limits=GovernorLimits(
            max_steps=9_000, max_allocations=2_000, deadline_seconds=0.1
        ),
        clock=lambda: SteppingClock(0.001),
    ),
    "inject": dict(
        source=FIB, limits=GovernorLimits(max_steps=1_000_000), inject_at=40
    ),
    "inject-caught": dict(
        source=CATCHING,
        limits=GovernorLimits(deadline_seconds=10.0),
        inject_at=25,
    ),
    "inject-racing-rearm": dict(
        source=FIB,
        limits=GovernorLimits(deadline_seconds=10.0),
        clock=lambda: SteppingClock(0.0),
        governor_cls=RacingGovernor,
    ),
    "event-plan": dict(source=FIB, events={777: CONTROL_C}),
    "event-plan-caught": dict(
        source=CATCHING, events={300: CONTROL_C, 301: TIMEOUT, 2_000: TIMEOUT}
    ),
    "grant-fuel": dict(
        source=LOOP_THEN_FIB,
        fuel=800,
        limits=GovernorLimits(max_steps=50_000),
        timeout_as_exception=True,
    ),
}
for _seed, _after in itertools.product(range(3), (40, 600, 3_000)):
    CASES[f"fault-plan-{_seed}-{_after}"] = dict(
        source=CATCHING,
        fault=(
            lambda seed=_seed, after=_after: FaultPlan.seeded(
                seed,
                horizon=4_000,
                interrupts=1,
                latencies=1,
                alloc_fail_after=after,
                sleep=lambda s: None,
            )
        ),
    )


def _assert_same(run, ref):
    assert run.outcome == ref.outcome
    assert run.stats == ref.stats
    assert run.trips == ref.trips
    assert run.faults == ref.faults
    assert run.trace == ref.trace
    assert run.slices == ref.slices


@pytest.mark.parametrize("backend", LOWERINGS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_watermark_matches_per_step_polling(case, backend):
    kwargs = CASES[case]
    run = observe_run(backend=backend, reference=False, **kwargs)
    ref = observe_run(backend=backend, reference=True, **kwargs)
    _assert_same(run, ref)
    assert run.slow_ticks < ref.slow_ticks


@pytest.mark.parametrize("backend", LOWERINGS)
@pytest.mark.parametrize(
    "case", ["alloc-cap-caught", "all-limits", "inject", "fault-plan-1-600"]
)
def test_traced_runs_match_per_step_polling(case, backend):
    kwargs = CASES[case]
    run = observe_run(backend=backend, reference=False, sink=True, **kwargs)
    ref = observe_run(backend=backend, reference=True, sink=True, **kwargs)
    _assert_same(run, ref)
    assert run.trace and run.stats["steps"] == sum(
        1 for event in run.trace if event["event"] == "step"
    )


@pytest.mark.parametrize("backend", LOWERINGS)
def test_allocation_cap_two_below_the_total(backend):
    limits = GovernorLimits(max_allocations=_alloc_total(RERAISE, backend) - 2)
    run = observe_run(RERAISE, backend, reference=False, limits=limits)
    ref = observe_run(RERAISE, backend, reference=True, limits=limits)
    _assert_same(run, ref)
    assert [trip.reason for trip in run.trips] == ["allocations"]


@pytest.mark.parametrize("backend", LOWERINGS)
def test_collisions_at_one_step_are_delivered_on_the_next(backend):
    # Two triggers due at the same tick: the first wins it, and the
    # other — its counter already past the watermark — must land on
    # the very next step, as it did under per-step polling.
    cap = GovernorLimits(max_allocations=400)
    probe = observe_run(CATCHING, backend, reference=False, limits=cap)
    (trip,) = probe.trips
    collisions = [
        dict(limits=cap, events={trip.step: CONTROL_C}),
        dict(
            limits=GovernorLimits(
                max_steps=trip.step - 1, max_allocations=400
            )
        ),
        dict(
            fault=lambda: FaultPlan(
                (
                    Fault(INTERRUPT, step=500, exc=CONTROL_C),
                    Fault(INTERRUPT, step=500, exc=TIMEOUT),
                )
            )
        ),
    ]
    for kwargs in collisions:
        run = observe_run(CATCHING, backend, reference=False, **kwargs)
        ref = observe_run(CATCHING, backend, reference=True, **kwargs)
        _assert_same(run, ref)
        assert run.stats["async_interrupts"] == 2


@pytest.mark.parametrize("backend", LOWERINGS)
@pytest.mark.parametrize("slice_steps", [1, 7, 64, 2_000])
def test_slice_gate_matches_per_step_polling(backend, slice_steps):
    kwargs = dict(
        source=CATCHING,
        limits=GovernorLimits(max_steps=9_000, max_allocations=2_000),
        fault=lambda: FaultPlan.seeded(
            2, horizon=4_000, interrupts=1, latencies=1, sleep=lambda s: None
        ),
        slice_steps=slice_steps,
    )
    run = observe_run(backend=backend, reference=False, **kwargs)
    ref = observe_run(backend=backend, reference=True, **kwargs)
    _assert_same(run, ref)
    unsliced = dict(kwargs, slice_steps=None)
    assert run.outcome == observe_run(
        backend=backend, reference=False, **unsliced
    ).outcome


# Strict in its counter, so it runs in constant space until stopped.
LOOP = (
    "let { loop = \\n -> if n == 0 then 0 else loop (n - 1) } "
    "in loop 100000000"
)


def _start_loop(backend):
    """LOOP on a worker thread, in one 10M-step slice under a governor
    with no limits: nothing but an injection (or the 500k-step fuel
    ceiling) ends it."""
    machine, env = shared_snapshot(backend_of(backend)).fork(fuel=500_000)
    governor = ResourceGovernor(GovernorLimits())
    machine.attach_governor(governor)
    expr, env = lower_for(backend, compile_expr(LOOP), env, machine)

    def evaluate():
        try:
            machine.eval(expr, env)
        except AsyncInterrupt as err:
            return err.exc.name
        except MachineDiverged:
            return "diverged"

    gate = SliceGate(10_000_000)
    machine.attach_slice_gate(gate)
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(evaluate()))
    worker.start()
    return machine, governor, gate, worker, outcome


@pytest.mark.parametrize("backend", LOWERINGS)
def test_cross_thread_injections_are_never_lost(backend):
    # A wake lost to a race with the watermark re-arm would leave the
    # watermark at the fuel ceiling, where the injection would only be
    # delivered 500k steps late.  More worker threads than cores and a
    # tiny switch interval make the race windows as likely as they get.
    injections = {
        "Timeout": lambda gov, gate: gov.inject("tenant-quota", TIMEOUT),
        "ControlC": lambda gov, gate: gate.interrupt(CONTROL_C),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(8):
            for expected, inject in injections.items():
                runs = [_start_loop(backend) for _ in range(3)]
                for k, (machine, governor, gate, _w, _o) in enumerate(runs):
                    at_step = 500 + 97 * trial + 13 * k
                    deadline = time.monotonic() + 30
                    while (
                        machine.stats.steps < at_step
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0)
                    inject(governor, gate)
                for machine, _g, _r, worker, outcome in runs:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
                    assert outcome == [expected]
                    # Delivered promptly, not at the fuel ceiling's
                    # slow tick.
                    assert machine.stats.steps < 100_000
    finally:
        sys.setswitchinterval(interval)
