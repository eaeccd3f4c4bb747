"""Fuel-sliced execution parity (`repro.machine.slices`).

The contract the scheduler stands on: driving an evaluation in
bounded slices — any slice size, any interleaving — must be
observationally identical to running it in one piece, on every
backend and on the closure tier.  Outcome, counters, trace events,
Shuffled RNG stream and provenance records are all compared; parking
must add *nothing* to the observable surface, and interrupts
delivered through the gate or an injected governor trip must land
through the ordinary §5.1 ``AsyncInterrupt`` path at deterministic
steps.  Every evaluation runs on the thread that started it: parking
is a call into the gate, not a hand-off to another thread.
"""

import threading

import pytest

from repro.api import compile_expr
from repro.core.excset import CONTROL_C, TIMEOUT
from repro.machine import (
    Diverged,
    Exceptional,
    Machine,
    Normal,
    Shuffled,
    observe,
)
from repro.machine.slices import SliceGate, run_sliced
from repro.obs.sinks import RingBufferSink
from repro.prelude.loader import machine_env
from repro.serve.governor import GovernorLimits, ResourceGovernor
from tests.conftest import LOWERINGS, prepare

EVERY = pytest.mark.parametrize("backend", LOWERINGS)

#: A few hundred steps of mixed work: shared thunks, prim-ops, cons.
WORK = "sum (map (\\x -> x * x) (enumFromTo 1 12))"
#: Deterministically exceptional (imprecise set with two raises).
FAULTY = "(1 `div` 0) + error \"boom\""
#: Never terminates — the preemption target.
SPIN = "let { w = \\u -> w u } in w ()"


def plain_run(source, backend, *, strategy=None, sink=None,
              fuel=2_000_000, provenance=False):
    machine, program, env = prepare(
        source, backend, strategy=strategy, fuel=fuel, sink=sink
    )
    out = observe(program, env=env, machine=machine, provenance=provenance)
    return out, machine


def sliced_run(source, backend, slice_steps, *, strategy=None,
               sink=None, fuel=2_000_000, provenance=False):
    machine, program, env = prepare(
        source, backend, strategy=strategy, fuel=fuel, sink=sink
    )
    out = run_sliced(
        machine,
        lambda: observe(
            program, env=env, machine=machine, provenance=provenance
        ),
        slice_steps,
    )
    return out, machine


class TestSlicedParity:
    @EVERY
    @pytest.mark.parametrize("slice_steps", [1, 7, 64, 100_000])
    def test_value_outcome_and_counters(self, backend, slice_steps):
        ref, ref_machine = plain_run(WORK, backend)
        out, machine = sliced_run(WORK, backend, slice_steps)
        assert isinstance(out, Normal)
        assert out == ref
        assert machine.stats.snapshot() == ref_machine.stats.snapshot()

    @EVERY
    @pytest.mark.parametrize("slice_steps", [3, 50])
    def test_exceptional_outcome(self, backend, slice_steps):
        ref, _ = plain_run(FAULTY, backend)
        out, _ = sliced_run(FAULTY, backend, slice_steps)
        assert isinstance(out, Exceptional)
        assert out == ref

    @EVERY
    def test_trace_stream_identical(self, backend):
        ref_sink = RingBufferSink(capacity=200_000)
        plain_run(WORK, backend, sink=ref_sink)
        sliced_sink = RingBufferSink(capacity=200_000)
        sliced_run(WORK, backend, 13, sink=sliced_sink)
        assert sliced_sink.events == ref_sink.events

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_shuffled_rng_stream(self, seed):
        # Shuffled draws per prim-op; a park/resume between draws must
        # not perturb the stream on any backend.
        picks = {}
        for backend in LOWERINGS:
            ref, _ = plain_run(
                FAULTY, backend, strategy=Shuffled(seed)
            )
            out, _ = sliced_run(
                FAULTY, backend, 5, strategy=Shuffled(seed)
            )
            assert isinstance(out, Exceptional)
            assert out.exc == ref.exc, backend
            picks[backend] = out.exc
        for backend in LOWERINGS[1:]:
            assert picks[backend] == picks["ast"], backend

    @EVERY
    def test_provenance_records(self, backend):
        ref, _ = plain_run(FAULTY, backend, provenance=True)
        out, _ = sliced_run(FAULTY, backend, 9, provenance=True)
        assert out == ref
        assert out.provenance == ref.provenance

    @EVERY
    def test_fuel_exhaustion_still_diverges(self, backend):
        ref, ref_machine = plain_run(SPIN, backend, fuel=300)
        out, machine = sliced_run(SPIN, backend, 64, fuel=300)
        assert isinstance(out, Diverged)
        assert out == ref
        assert machine.stats.steps == ref_machine.stats.steps

    def test_cross_backend_sliced_counters(self):
        snaps = {}
        for backend in LOWERINGS:
            _, machine = sliced_run(WORK, backend, 17)
            snaps[backend] = machine.stats.snapshot()
        for backend in LOWERINGS[1:]:
            assert snaps[backend] == snaps["ast"], backend


class _Recording(SliceGate):
    """A gate that records each slice and runs ``at_park(gate, n)``
    (``n`` the 1-based slice number) while the evaluation is parked."""

    def __init__(self, steps, at_park=None, **kwargs):
        super().__init__(steps, **kwargs)
        self.executed_slices = []
        self.threads = []
        self._at_park = at_park

    def turn(self, executed):
        self.executed_slices.append(executed)
        self.threads.append(threading.get_ident())
        if self._at_park is not None:
            self._at_park(self, len(self.executed_slices))
        return self.slice_steps


def _interrupt_first_park(gate, n):
    if n == 1:
        gate.interrupt(CONTROL_C)


def _gated(source, backend, gate, **prepare_kwargs):
    machine, program, env = prepare(source, backend, **prepare_kwargs)
    machine.attach_slice_gate(gate)
    return observe(program, env=env, machine=machine), machine


class TestSliceProtocol:
    @EVERY
    def test_yield_then_done_accounting(self, backend):
        gate = _Recording(40)
        out, machine = _gated(WORK, backend, gate)
        assert isinstance(out, Normal)
        assert len(gate.executed_slices) > 1
        assert all(n == 40 for n in gate.executed_slices)
        assert (
            sum(gate.executed_slices) + gate.executed()
            == machine.stats.steps
        )
        # Parked in place: every boundary ran on this very thread.
        assert set(gate.threads) == {threading.get_ident()}

    @EVERY
    def test_interrupt_while_parked(self, backend):
        sink = RingBufferSink(capacity=10_000)
        gate = _Recording(100, at_park=_interrupt_first_park)
        out, _ = _gated(SPIN, backend, gate, sink=sink)
        # Delivered as the parked evaluation resumes, before it runs
        # another step.
        assert isinstance(out, Exceptional)
        assert out.exc == CONTROL_C
        assert gate.executed_slices == [100]
        delivered = [
            e for e in sink.events if e["event"] == "async-interrupt"
        ]
        assert len(delivered) == 1
        assert delivered[0]["exc"] == "ControlC"
        assert delivered[0]["at"] == 100

    def test_interrupt_delivery_step_parity(self):
        # Interrupt a parked evaluation after exactly one 100-step
        # slice: delivery must land at the same step on every backend.
        at = {}
        for backend in LOWERINGS:
            sink = RingBufferSink(capacity=10_000)
            gate = _Recording(100, at_park=_interrupt_first_park)
            _gated(SPIN, backend, gate, sink=sink)
            events = [
                e for e in sink.events
                if e["event"] == "async-interrupt"
            ]
            assert len(events) == 1
            at[backend] = events[0]["at"]
        for backend in LOWERINGS[1:]:
            assert at[backend] == at["ast"], backend

    @EVERY
    def test_governor_inject_preempts_mid_slice(self, backend):
        # The scheduler's preemption path: a governor trip injected
        # while the evaluation is parked is delivered mid-slice through
        # poll() -> _interrupt, and registers as an ordinary TripRecord.
        machine, program, env = prepare(SPIN, backend)
        governor = ResourceGovernor(GovernorLimits())
        machine.attach_governor(governor)
        governor.start()
        def at_park(gate, n):
            if n == 1:
                governor.inject("tenant-steps", TIMEOUT)
                gate.slice_steps = 1_000_000

        gate = _Recording(50, at_park=at_park)
        machine.attach_slice_gate(gate)
        out = observe(program, env=env, machine=machine)
        assert gate.executed_slices == [50]
        # Delivered on the first tick of the new slice, not after the
        # whole grant: the preemption was mid-slice.
        assert gate.executed() <= 2
        assert isinstance(out, Exceptional)
        assert out.exc == TIMEOUT
        assert governor.tripped
        assert governor.trip.reason == "tenant-steps"
        assert governor.trip.exc == "Timeout"

    @EVERY
    def test_governor_limit_trips_at_same_step_sliced(self, backend):
        # A step-budget trip must land at the identical step whether
        # or not the run is sliced — the governor cannot see the gate.
        def trip_step(sliced):
            machine, program, env = prepare(SPIN, backend)
            governor = ResourceGovernor(GovernorLimits(max_steps=200))
            machine.attach_governor(governor)
            governor.start()
            thunk = lambda: observe(  # noqa: E731
                program, env=env, machine=machine
            )
            if sliced:
                out = run_sliced(machine, thunk, 7)
            else:
                out = thunk()
            assert isinstance(out, Exceptional)
            assert out.exc == TIMEOUT
            return governor.trip.step

        assert trip_step(sliced=True) == trip_step(sliced=False)

    def test_interleaved_runners_are_isolated(self):
        # Two evaluations taking turns on one run slot, 11 steps at a
        # time: each must produce exactly its solo outcome and
        # counters.
        from repro.serve.scheduler import CooperativeScheduler, Task

        ref_out, ref_machine = plain_run(WORK, "ast")
        sched = CooperativeScheduler(workers=1, slice_steps=11)
        results = {}

        def evaluate(tenant):
            task = Task(tenant, "normal")
            sched.submit(task)
            try:
                machine = Machine(backend="ast")
                env = machine_env(machine)
                machine.attach_slice_gate(task)
                out = observe(compile_expr(WORK), env=env, machine=machine)
            finally:
                sched.finish(task)
            results[tenant] = (out, machine.stats.snapshot(), task.slices)

        threads = [
            threading.Thread(target=evaluate, args=(t,)) for t in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for tenant in "ab":
            out, stats, slices = results[tenant]
            assert out == ref_out
            assert stats == ref_machine.stats.snapshot()
            assert slices > 2
        assert sched.snapshot()["completed"] == 2

    def test_thunk_error_propagates(self):
        def boom():
            raise ValueError("front-end exploded")

        with pytest.raises(ValueError, match="front-end exploded"):
            run_sliced(Machine(backend="ast"), boom, 10)

    def test_active_clock_excludes_parked_time(self):
        ticks = [0.0]
        seen = []

        def wait_in_queue(gate, n):
            # A long wait in the run queue, observed while parked.
            seen.append(gate.active_clock())
            ticks[0] += 100.0
            seen.append(gate.active_clock())
            if n == 2:
                gate.interrupt(CONTROL_C)

        gate = _Recording(50, at_park=wait_in_queue, clock=lambda: ticks[0])
        ticks[0] = 5.0
        out, _ = _gated(SPIN, "ast", gate)
        assert isinstance(out, Exceptional) and out.exc == CONTROL_C
        assert seen == [5.0, 5.0, 5.0, 5.0]
        assert gate.active_clock() == 5.0

    @pytest.mark.parametrize("preset", ["threads", "cooperative"])
    def test_evaluation_runs_on_the_calling_thread(self, preset):
        # The submitting thread is the continuation: the service
        # evaluates on the thread that called handle(), under both
        # scheduler presets.
        from repro.serve.service import EvalService, ServiceConfig

        seen = []

        class Probe(EvalService):
            def _observe(self, expr, env, machine, stdin):
                seen.append(threading.get_ident())
                return super()._observe(expr, env, machine, stdin)

        service = Probe(
            ServiceConfig(scheduler=preset, slice_steps=50, telemetry=False)
        )
        try:
            status, body, _ = service.handle({"expr": WORK})
            assert status == 200 and body["status"] == "value", body
            assert service.health()["scheduler"]["slices"] > (
                1 if preset == "cooperative" else 0
            )
        finally:
            service.close()
        assert seen == [threading.get_ident()]

    @pytest.mark.parametrize("preset", ["threads", "cooperative"])
    def test_service_starts_no_threads(self, preset):
        from repro.serve.service import EvalService, ServiceConfig

        before = threading.active_count()
        service = EvalService(ServiceConfig(scheduler=preset, workers=4))
        try:
            assert threading.active_count() == before
            service.handle({"expr": WORK})
            assert threading.active_count() == before
        finally:
            service.close()
        assert threading.active_count() == before
