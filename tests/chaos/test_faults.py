"""Unit tests for deterministic fault plans (repro.chaos.faults)."""

import pytest

from repro.api import compile_expr
from repro.chaos import (
    ALLOC_FAIL,
    Fault,
    FaultPlan,
    INTERRUPT,
    LATENCY,
)
from repro.core.excset import CONTROL_C, HEAP_OVERFLOW, TIMEOUT
from repro.io.events import EventPlan, timeout_after
from repro.machine import Machine
from repro.machine.observe import Exceptional, Normal, observe
from repro.prelude.loader import machine_env
from tests.conftest import LOWERINGS, prepare

FIB = (
    "let { fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) } "
    "in fib 10"
)


def _run(source, plan, backend="ast"):
    machine, program, env = prepare(source, backend)
    machine.attach_fault_plan(plan)
    return observe(program, env=env, machine=machine), machine


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("explode", step=1)

    def test_known_kinds_accepted(self):
        for kind in (INTERRUPT, ALLOC_FAIL, LATENCY):
            Fault(kind, step=1)


class TestInterrupts:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_interrupt_delivered_at_scheduled_step(self, backend):
        plan = FaultPlan([Fault(INTERRUPT, step=50, exc=TIMEOUT)])
        outcome, machine = _run(FIB, plan, backend)
        assert outcome == Exceptional(TIMEOUT)
        assert machine.stats.steps == 50
        assert [rec.step for rec in plan.injected] == [50]
        assert plan.injected[0].exc == "Timeout"
        assert plan.spent

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_unreached_fault_never_fires(self, backend):
        plan = FaultPlan([Fault(INTERRUPT, step=10**9, exc=TIMEOUT)])
        outcome, _ = _run("1 + 2 * 3", plan, backend)
        assert isinstance(outcome, Normal)
        assert plan.injected == []
        assert not plan.spent

    def test_default_interrupt_exception_is_control_c(self):
        plan = FaultPlan([Fault(INTERRUPT, step=3)])
        outcome, _ = _run(FIB, plan)
        assert outcome == Exceptional(CONTROL_C)

    def test_backend_injection_parity(self):
        results = {}
        for backend in LOWERINGS:
            plan = FaultPlan([Fault(INTERRUPT, step=123, exc=TIMEOUT)])
            outcome, machine = _run(FIB, plan, backend)
            results[backend] = (outcome, machine.stats.steps,
                                plan.injected)
        for backend in LOWERINGS[1:]:
            assert results[backend] == results["ast"], backend


class TestAllocFail:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_alloc_cap_delivers_heap_overflow(self, backend):
        plan = FaultPlan([Fault(ALLOC_FAIL, allocations=20)])
        outcome, machine = _run(FIB, plan, backend)
        assert outcome == Exceptional(HEAP_OVERFLOW)
        assert machine.stats.allocations >= 20
        assert plan.injected[0].kind == ALLOC_FAIL

    def test_alloc_fail_step_identical_across_backends(self):
        steps = set()
        for backend in LOWERINGS:
            plan = FaultPlan([Fault(ALLOC_FAIL, allocations=20)])
            _run(FIB, plan, backend)
            steps.add(plan.injected[0].step)
        assert len(steps) == 1


class TestLatency:
    def test_latency_stalls_without_raising(self):
        stalls = []
        plan = FaultPlan(
            [Fault(LATENCY, step=3, seconds=0.25)], sleep=stalls.append
        )
        outcome, _ = _run("1 + 2 * 3", plan)
        assert isinstance(outcome, Normal)
        assert stalls == [0.25]
        assert plan.injected[0].kind == LATENCY
        assert plan.injected[0].exc is None

    def test_latency_and_interrupt_on_same_step(self):
        stalls = []
        plan = FaultPlan(
            [
                Fault(LATENCY, step=5, seconds=0.1),
                Fault(INTERRUPT, step=5, exc=TIMEOUT),
            ],
            sleep=stalls.append,
        )
        outcome, _ = _run(FIB, plan)
        # The stall happens, then the interrupt wins the step.
        assert stalls == [0.1]
        assert outcome == Exceptional(TIMEOUT)


class TestConstruction:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(7, horizon=1000, interrupts=2, latencies=1)
        b = FaultPlan.seeded(7, horizon=1000, interrupts=2, latencies=1)
        assert a.faults == b.faults
        c = FaultPlan.seeded(8, horizon=1000, interrupts=2, latencies=1)
        assert a.faults != c.faults

    def test_from_events_bridges_the_section_51_plan(self):
        plan = FaultPlan.from_events(timeout_after(40))
        outcome, machine = _run(FIB, plan)
        assert outcome == Exceptional(TIMEOUT)
        assert machine.stats.steps == 40

    def test_from_events_matches_native_event_plan(self):
        # The bridge and the machine's own event plan deliver at the
        # same step with the same outcome.
        native = Machine(event_plan=EventPlan(((40, TIMEOUT),)).as_dict())
        native_out = observe(
            compile_expr(FIB), env=machine_env(native), machine=native
        )
        bridged_out, bridged = _run(
            FIB, FaultPlan.from_events(timeout_after(40))
        )
        assert native_out == bridged_out
        assert native.stats.steps == bridged.stats.steps

    def test_fresh_returns_an_unspent_copy(self):
        plan = FaultPlan([Fault(INTERRUPT, step=3, exc=TIMEOUT)])
        _run(FIB, plan)
        assert plan.spent
        again = plan.fresh()
        assert not again.spent
        assert again.injected == []
        outcome, _ = _run(FIB, again)
        assert outcome == Exceptional(TIMEOUT)

    def test_as_dict_round_trips_schedule_and_record(self):
        plan = FaultPlan([Fault(INTERRUPT, step=3, exc=TIMEOUT)])
        _run(FIB, plan)
        data = plan.as_dict()
        assert data["faults"][0]["exc"] == "Timeout"
        assert data["injected"][0]["step"] == 3


class TestPayAsYouGo:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_detached_plan_leaves_counters_at_seed(self, backend):
        bare, program, env = prepare(FIB, backend)
        observe(program, env=env, machine=bare)
        hooked, program, env = prepare(FIB, backend)
        hooked.attach_fault_plan(None)  # attach-then-detach
        hooked.attach_governor(None)
        observe(program, env=env, machine=hooked)
        assert (
            bare.stats.snapshot().as_dict()
            == hooked.stats.snapshot().as_dict()
        )

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_unfired_plan_does_not_perturb_counters(self, backend):
        bare, program, env = prepare(FIB, backend)
        observe(program, env=env, machine=bare)
        hooked, program, env = prepare(FIB, backend)
        hooked.attach_fault_plan(
            FaultPlan([Fault(INTERRUPT, step=10**9)])
        )
        observe(program, env=env, machine=hooked)
        assert (
            bare.stats.snapshot().as_dict()
            == hooked.stats.snapshot().as_dict()
        )
