"""The response's ``events`` block is read off machine counters, not a
trace sink: ``MachineStats.event_counts()`` must report exactly what a
``CountingSink`` attached to the same run counts — same names, same
totals, same (sorted) key order, zero counts omitted — on every
backend and the closure tier a served program first runs on, with and
without chaos faults, for pure and IO programs."""

import pytest

from repro.api import compile_expr
from repro.chaos.faults import FaultPlan
from repro.core.excset import TIMEOUT
from repro.fuzz.gen import generate_case
from repro.io.run import IOExecutor
from repro.machine.heap import AsyncInterrupt, Cell, MachineDiverged, ObjRaise
from repro.machine.snapshot import shared_snapshot
from repro.machine.values import VIO
from repro.obs.events import (
    ASYNC_INTERRUPT,
    BLACKHOLE_ENTER,
    FUEL_GRANT,
    IO_ACTION,
    MEMO_RERAISE,
    PRIM_RAISE,
)
from repro.obs.sinks import CountingSink
from repro.serve import EvalService, ServiceConfig
from repro.serve.governor import GovernorLimits, ResourceGovernor
from tests.conftest import LOWERINGS, backend_of, lower_for, machine_for

SEEDS = range(40)


def _run(source, backend, stdin, fault_seed, sink):
    machine, env = shared_snapshot(backend_of(backend)).fork(fuel=8_000_000)
    if sink is not None:
        machine.attach_sink(sink)
    governor = ResourceGovernor(
        GovernorLimits(max_steps=2_000_000, max_allocations=1_000_000)
    )
    if fault_seed is not None:
        machine.attach_fault_plan(
            FaultPlan.seeded(
                fault_seed,
                horizon=2_000,
                interrupts=1,
                latencies=1,
                sleep=lambda s: None,
            )
        )
    machine.attach_governor(governor)
    governor.start()
    try:
        value = machine.eval(
            *lower_for(backend, compile_expr(source), env, machine)
        )
        if isinstance(value, VIO):
            IOExecutor(machine=machine, stdin=stdin).run_cell(
                Cell.ready(value)
            )
    except (ObjRaise, AsyncInterrupt, MachineDiverged):
        pass
    return machine.stats.event_counts()


def _served_run(source, backend, stdin="", fault_seed=None):
    """The same evaluation twice, instrumented the way the service
    instruments it (governor with the default limits, optional seeded
    fault plan): once with a CountingSink, once — as served — without.
    Returns (the sink's counts, the sink-free run's counter counts)."""
    sink = CountingSink()
    traced = _run(source, backend, stdin, fault_seed, sink)
    assert traced == sink.as_dict()
    return sink.as_dict(), _run(source, backend, stdin, fault_seed, None)


def _assert_lockstep(sink_counts, counter_counts):
    assert list(counter_counts.items()) == list(sink_counts.items())


@pytest.mark.parametrize("faults", [None, 7], ids=["clean", "faults"])
@pytest.mark.parametrize("backend", LOWERINGS)
def test_fuzz_cases_counters_match_sink(backend, faults):
    kinds = set()
    for seed in SEEDS:
        case = generate_case(seed)
        kinds.add(case.kind)
        fault_seed = None if faults is None else faults + seed
        _assert_lockstep(
            *_served_run(case.source, backend, case.stdin, fault_seed)
        )
    assert kinds == {"pure", "io"}


# Hand-picked programs for the rare events the fuzz corpus may miss.
RARE = {
    PRIM_RAISE: "1 + (2 `div` 0)",
    MEMO_RERAISE: (
        'let { x = error "boom" } in '
        "getException x >>= (\\a -> getException x >>= (\\b -> returnIO 0))"
    ),
    BLACKHOLE_ENTER: "let { x = x + 1 } in x",
    IO_ACTION: 'putStr "a" >>= (\\u -> putStr "b")',
}


@pytest.mark.parametrize("backend", LOWERINGS)
@pytest.mark.parametrize("event", sorted(RARE))
def test_rare_events_are_counted(backend, event):
    sink_counts, counter_counts = _served_run(RARE[event], backend)
    assert counter_counts.get(event, 0) >= 1
    _assert_lockstep(sink_counts, counter_counts)


@pytest.mark.parametrize("backend", LOWERINGS)
def test_async_interrupt_and_fuel_grant_are_counted(backend):
    # An event plan interrupts the run; a watchdog-style fuel grant
    # follows a divergence inside getException.
    machine = machine_for(backend, fuel=500, event_plan={50: TIMEOUT})
    sink = CountingSink()
    machine.attach_sink(sink)
    loop = compile_expr("let { loop = \\x -> loop x } in loop 1")
    with pytest.raises(AsyncInterrupt):
        machine.eval(*lower_for(backend, loop, {}, machine))
    expr = compile_expr(
        "getException (let { loop = \\x -> loop x } in loop 1)"
    )
    executor = IOExecutor(machine=machine, timeout_as_exception=True)
    executor.run_value(machine.eval(*lower_for(backend, expr, {}, machine)))
    counts = machine.stats.event_counts()
    assert counts[ASYNC_INTERRUPT] == 1
    assert counts[FUEL_GRANT] == 1
    _assert_lockstep(sink.as_dict(), counts)


def test_counters_stay_out_of_the_stats_block():
    service = EvalService(ServiceConfig(backend="super"))
    try:
        _status, body, _ = service.handle({"expr": "1 + (2 `div` 0)"})
    finally:
        service.close()
    assert set(body["stats"]) == {
        "steps",
        "allocations",
        "thunks_forced",
        "raises",
        "prim_ops",
        "force_depth",
        "max_force_depth",
    }
    assert body["events"][PRIM_RAISE] == 1
    assert body["events"]["step"] == body["stats"]["steps"]
