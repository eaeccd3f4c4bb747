"""Fuel-sliced execution parity (`repro.machine.slices`).

The contract the cooperative scheduler stands on: driving an
evaluation in bounded slices — any slice size, any interleaving —
must be observationally identical to running it in one piece, on
every backend and on the closure tier.  Outcome, counters, trace events, Shuffled RNG stream
and provenance records are all compared; parking must add *nothing*
to the observable surface, and interrupts delivered through the gate
or an injected governor trip must land through the ordinary §5.1
``AsyncInterrupt`` path at deterministic steps.
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
from repro.machine.slices import (
    SLICE_DONE,
    SLICE_YIELDED,
    SliceRunner,
    run_sliced,
)
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


class TestSliceProtocol:
    @EVERY
    def test_yield_then_done_accounting(self, backend):
        machine, program, env = prepare(WORK, backend)
        runner = SliceRunner.for_machine(
            machine, lambda: observe(program, env=env, machine=machine)
        )
        statuses = []
        while True:
            status = runner.run_slice(40)
            statuses.append(status)
            if status.done:
                break
        assert statuses[0].state == SLICE_YIELDED
        assert statuses[-1].state == SLICE_DONE
        assert len(statuses) > 2
        assert sum(s.steps for s in statuses) == machine.stats.steps
        out = runner.finish()
        assert isinstance(out, Normal)

    @EVERY
    def test_interrupt_while_parked(self, backend):
        sink = RingBufferSink(capacity=10_000)
        machine, program, env = prepare(SPIN, backend, sink=sink)
        runner = SliceRunner.for_machine(
            machine, lambda: observe(program, env=env, machine=machine)
        )
        assert runner.run_slice(100).state == SLICE_YIELDED
        runner.interrupt(CONTROL_C)
        # The parked continuation wakes just to unwind; pump until
        # the runner reports completion.
        while not runner.run_slice(100).done:
            pass
        out = runner.finish()
        assert isinstance(out, Exceptional)
        assert out.exc == CONTROL_C
        delivered = [
            e for e in sink.events if e["event"] == "async-interrupt"
        ]
        assert delivered and delivered[0]["exc"] == "ControlC"

    def test_interrupt_delivery_step_parity(self):
        # Interrupt a parked evaluation after exactly one 100-step
        # slice: delivery must land at the same step on every backend.
        at = {}
        for backend in LOWERINGS:
            sink = RingBufferSink(capacity=10_000)
            machine, program, env = prepare(SPIN, backend, sink=sink)
            runner = SliceRunner.for_machine(
                machine,
                lambda p=program, env=env, machine=machine: observe(
                    p, env=env, machine=machine
                ),
            )
            assert runner.run_slice(100).state == SLICE_YIELDED
            runner.interrupt(CONTROL_C)
            while not runner.run_slice(100).done:
                pass
            runner.finish()
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
        # The scheduler's preemption path: an injected governor trip is
        # delivered mid-slice through poll() -> _interrupt, and
        # registers as an ordinary TripRecord.
        machine, program, env = prepare(SPIN, backend)
        governor = ResourceGovernor(GovernorLimits())
        machine.attach_governor(governor)
        governor.start()
        runner = SliceRunner.for_machine(
            machine, lambda: observe(program, env=env, machine=machine)
        )
        assert runner.run_slice(50).state == SLICE_YIELDED
        governor.inject("tenant-steps", TIMEOUT)
        status = runner.run_slice(1_000_000)
        assert status.done
        # Delivered on the first tick of the new slice, not after the
        # whole grant: the preemption was mid-slice.
        assert status.steps <= 2
        out = runner.finish()
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
        # Two evaluations round-robined on one driving thread: each
        # must produce exactly its solo outcome and counters.
        ref_out, ref_machine = plain_run(WORK, "ast")
        machines, runners = [], []
        for _ in range(2):
            machine = Machine(backend="ast")
            env = machine_env(machine)
            runners.append(
                SliceRunner.for_machine(
                    machine,
                    lambda env=env, machine=machine: observe(
                        compile_expr(WORK), env=env, machine=machine
                    ),
                )
            )
            machines.append(machine)
        pending = list(runners)
        while pending:
            pending = [
                r for r in pending if not r.run_slice(11).done
            ]
        for machine, runner in zip(machines, runners):
            assert runner.finish() == ref_out
            assert (
                machine.stats.snapshot() == ref_machine.stats.snapshot()
            )

    def test_thunk_error_propagates(self):
        def boom(_gate):
            raise ValueError("front-end exploded")

        runner = SliceRunner(boom)
        assert runner.run_slice(10).done
        with pytest.raises(ValueError, match="front-end exploded"):
            runner.finish()

    def test_active_clock_excludes_parked_time(self):
        ticks = [0.0]

        def clock():
            return ticks[0]

        machine = Machine(backend="ast")
        env = machine_env(machine)
        runner = SliceRunner(
            lambda gate: (
                machine.attach_slice_gate(gate),
                observe(
                    compile_expr(SPIN), env=env, machine=machine
                ),
            )[-1],
            clock=clock,
        )
        runner.machine = machine
        assert runner.run_slice(50).state == SLICE_YIELDED
        parked_at = runner.gate.active_clock()
        ticks[0] += 100.0  # a long wait in the run queue
        assert runner.gate.active_clock() == parked_at
        runner.interrupt(CONTROL_C)
        while not runner.run_slice(10).done:
            pass
        runner.finish()

    def test_run_slice_after_done_is_noop(self):
        machine = Machine(backend="ast")
        env = machine_env(machine)
        runner = SliceRunner.for_machine(
            machine,
            lambda: observe(
                compile_expr("1 + 2"), env=env, machine=machine
            ),
        )
        while not runner.run_slice(1_000_000).done:
            pass
        again = runner.run_slice(10)
        assert again.done and again.steps == 0
        assert isinstance(runner.finish(), Normal)

    def test_parked_continuations_are_cheap_threads(self):
        # A worker can hold many parked evaluations at once — the
        # 1000-in-flight architecture in miniature.
        runners = []
        for _ in range(25):
            machine = Machine(backend="ast")
            env = machine_env(machine)
            runners.append(
                SliceRunner.for_machine(
                    machine,
                    lambda env=env, machine=machine: observe(
                        compile_expr(WORK), env=env, machine=machine
                    ),
                )
            )
        for runner in runners:
            assert runner.run_slice(5).state == SLICE_YIELDED
        assert threading.active_count() >= 25
        pending = list(runners)
        while pending:
            pending = [
                r for r in pending if not r.run_slice(200).done
            ]
        for runner in runners:
            assert isinstance(runner.finish(), Normal)
