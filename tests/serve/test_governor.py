"""Governor unit tests and the ISSUE's edge cases, on both backends
and the closure tier: deadline inside ``catchIO``, allocation cap
during a memoised re-raise, interrupts on the first/last step, retry
exhaustion."""

import pytest

from repro.api import compile_expr
from repro.core.excset import CONTROL_C, HEAP_OVERFLOW, TIMEOUT
from repro.io.run import IOExecutor
from repro.machine.heap import Cell
from repro.machine.observe import Exceptional, Normal, observe, show_value
from repro.prelude.loader import machine_env
from repro.serve.governor import (
    DEADLINE_STRIDE,
    GovernorLimits,
    ResourceGovernor,
)
from tests.conftest import LOWERINGS, lower_for, machine_for

FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 10"
)



def _program(source, backend, machine, env=None):
    """``(program, env)``: ``source`` as ``backend`` runs it on
    ``machine``, against ``env`` (a fresh prelude by default)."""
    if env is None:
        env = machine_env(machine)
    return lower_for(backend, compile_expr(source), env, machine)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SteppingClock:
    """A clock that creeps forward on every read — evaluation 'takes
    time' deterministically, without real waiting."""

    def __init__(self, per_read: float = 0.001) -> None:
        self.now = 0.0
        self.per_read = per_read

    def __call__(self) -> float:
        self.now += self.per_read
        return self.now


def _governed(source, limits, backend="ast", clock=None):
    machine = machine_for(backend)
    governor = ResourceGovernor(
        limits, clock=clock if clock is not None else FakeClock()
    )
    machine.attach_governor(governor)
    governor.start()
    outcome = observe(
        *_program(source, backend, machine),
        machine=machine,
    )
    return outcome, machine, governor


class TestLimits:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_step_budget_delivers_timeout(self, backend):
        outcome, machine, governor = _governed(
            FIB, GovernorLimits(max_steps=100), backend
        )
        assert outcome == Exceptional(TIMEOUT)
        assert machine.stats.steps == 101
        assert governor.trip.reason == "steps"

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_allocation_cap_delivers_heap_overflow(self, backend):
        outcome, _, governor = _governed(
            FIB, GovernorLimits(max_allocations=50), backend
        )
        assert outcome == Exceptional(HEAP_OVERFLOW)
        assert governor.trip.reason == "allocations"
        assert governor.trip.exc == "HeapOverflow"

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_deadline_delivers_timeout(self, backend):
        clock = SteppingClock(per_read=0.01)
        outcome, _, governor = _governed(
            FIB,
            GovernorLimits(deadline_seconds=0.05),
            backend,
            clock=clock,
        )
        assert outcome == Exceptional(TIMEOUT)
        assert governor.trip.reason == "deadline"

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_unreached_limits_leave_outcome_and_counters_alone(
        self, backend
    ):
        bare = machine_for(backend)
        base = observe(
            *_program(FIB, backend, bare),
            machine=bare,
        )
        outcome, machine, governor = _governed(
            FIB,
            GovernorLimits(
                max_steps=10**9,
                max_allocations=10**9,
                deadline_seconds=10**9,
            ),
            backend,
        )
        assert outcome == base
        assert not governor.tripped
        assert (
            machine.stats.snapshot().as_dict()
            == bare.stats.snapshot().as_dict()
        )

    def test_trip_is_recorded_with_machine_state(self):
        _, _, governor = _governed(FIB, GovernorLimits(max_steps=100))
        trip = governor.trip
        assert trip.step == 101
        assert trip.allocations >= 0
        assert trip.exc == "Timeout"

    def test_limits_fire_at_most_once(self):
        # One-shot: after the trip, poll never fires that limit again.
        _, machine, governor = _governed(
            FIB, GovernorLimits(max_steps=100)
        )
        assert governor.poll(machine) is None
        assert len(governor.trips) == 1

    def test_steps_identical_across_backends(self):
        outcomes = set()
        steps = set()
        for backend in LOWERINGS:
            outcome, machine, _ = _governed(
                FIB, GovernorLimits(max_steps=137), backend
            )
            outcomes.add(str(outcome))
            steps.add(machine.stats.steps)
        assert len(outcomes) == 1
        assert len(steps) == 1


class TestDeadlineInsideCatch:
    """The graceful-degradation edge case: the deadline fires while a
    ``catchIO`` body runs; the handler catches the ``Timeout`` (one-shot
    delivery lets it run) and the request still produces a value."""

    SOURCE = (
        "let { loop = \\x -> loop x } in "
        "catchIO (returnIO (loop 1)) (\\e -> returnIO 99)"
    )

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_handler_recovers_from_deadline(self, backend):
        clock = SteppingClock(per_read=0.001)
        machine = machine_for(backend)
        governor = ResourceGovernor(
            GovernorLimits(deadline_seconds=0.05), clock=clock
        )
        machine.attach_governor(governor)
        governor.start()
        env = machine_env(machine)
        executor = IOExecutor(machine=machine)
        result = executor.run_cell(
            Cell(*_program(self.SOURCE, backend, machine, env))
        )
        assert governor.trip.reason == "deadline"
        assert result.status == "ok"
        assert show_value(result.value, machine) == "99"


class TestAllocCapDuringMemoisedReRaise:
    """The allocation cap trips while a memoised raise is being
    re-forced: the governor's ``HeapOverflow`` must win cleanly (or the
    memoised member must re-raise unchanged) — never a torn value."""

    SOURCE = (
        "let { bad = 1 `div` 0 } in "
        "bindIO (getException bad) "
        "(\\r1 -> getException (sum [1, 2, 3, 4, 5] + bad))"
    )

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_heap_overflow_wins_during_re_raise(self, backend):
        # First pin down how many allocations the first getException
        # needs, then cap just above it so the governor trips during
        # the second (re-raising) evaluation.
        probe = machine_for(backend)
        env = machine_env(probe)
        IOExecutor(machine=probe).run_cell(
            Cell(*_program(self.SOURCE, backend, probe, env))
        )
        total = probe.stats.allocations

        machine = machine_for(backend)
        governor = ResourceGovernor(
            GovernorLimits(max_allocations=total - 2)
        )
        machine.attach_governor(governor)
        governor.start()
        env = machine_env(machine)
        result = IOExecutor(machine=machine).run_cell(
            Cell(*_program(self.SOURCE, backend, machine, env))
        )
        # getException converts the interrupt to Bad HeapOverflow; the
        # program still completes with a well-formed value.
        assert result.status == "ok"
        assert governor.trip.reason == "allocations"
        rendered = show_value(result.value, machine)
        assert "HeapOverflow" in rendered

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_memoised_raise_survives_the_interrupt(self, backend):
        # After an alloc-cap trip, re-forcing the memoised cell still
        # re-raises the original member — no corruption.
        source = (
            "let { bad = 1 `div` 0 } in "
            "bindIO (getException bad) (\\r1 -> getException bad)"
        )
        machine = machine_for(backend)
        governor = ResourceGovernor(GovernorLimits(max_allocations=10**9))
        machine.attach_governor(governor)
        governor.start()
        env = machine_env(machine)
        result = IOExecutor(machine=machine).run_cell(
            Cell(*_program(source, backend, machine, env))
        )
        assert result.status == "ok"
        assert "DivideByZero" in show_value(result.value, machine)


class TestFirstAndLastStepInterrupts:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_interrupt_on_first_step(self, backend):
        machine = machine_for(backend, event_plan={1: CONTROL_C})
        outcome = observe(
            *_program(FIB, backend, machine),
            machine=machine,
        )
        assert outcome == Exceptional(CONTROL_C)
        assert machine.stats.steps == 1

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_interrupt_on_last_step(self, backend):
        bare = machine_for(backend)
        base = observe(
            *_program(FIB, backend, bare),
            machine=bare,
        )
        assert isinstance(base, Normal)
        last = bare.stats.steps
        machine = machine_for(backend, event_plan={last: CONTROL_C})
        outcome = observe(
            *_program(FIB, backend, machine),
            machine=machine,
        )
        assert outcome == Exceptional(CONTROL_C)

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_interrupt_one_past_the_end_never_fires(self, backend):
        bare = machine_for(backend)
        base = observe(
            *_program(FIB, backend, bare),
            machine=bare,
        )
        machine = machine_for(
            backend, event_plan={bare.stats.steps + 1: CONTROL_C}
        )
        outcome = observe(
            *_program(FIB, backend, machine),
            machine=machine,
        )
        assert outcome == base


class TestDeadlineStride:
    def test_deadline_checked_on_stride_boundaries_only(self):
        clock = FakeClock()
        governor = ResourceGovernor(
            GovernorLimits(deadline_seconds=1.0), clock=clock
        )
        governor.start()
        clock.advance(5.0)  # way past the deadline

        class _Stats:
            steps = DEADLINE_STRIDE + 1
            allocations = 0

        class _M:
            stats = _Stats()

        # Off-stride step: not checked.
        assert governor.poll(_M()) is None
        _Stats.steps = DEADLINE_STRIDE * 2
        assert governor.poll(_M()) == TIMEOUT
