"""Unit tests for the span profiler (cost attribution)."""

from repro.api import compile_expr
from repro.lang.ast import Span
from repro.machine import Machine
from repro.machine.observe import observe
import pytest

from repro.obs import (
    ALLOC,
    FORCE,
    FORCE_END,
    PRIM_RAISE,
    RAISE,
    STEP,
    SpanProfiler,
    is_live,
)
from repro.obs.attribution import NO_SPAN, ROOT
from repro.prelude.loader import machine_env
from tests.conftest import LOWERINGS, prepare


class TestStackMachine:
    def test_steps_outside_any_force_go_to_root(self):
        profiler = SpanProfiler()
        profiler.emit(STEP, n=1)
        profiler.emit(STEP, n=2)
        assert profiler.totals[ROOT]["steps"] == 2
        assert profiler.folded == {(ROOT,): 2}

    def test_steps_inside_a_force_charge_its_span(self):
        profiler = SpanProfiler()
        span = Span(1, 1, 1, 5)
        profiler.emit(FORCE, depth=1, span=span)
        profiler.emit(STEP, n=1)
        profiler.emit(FORCE_END, depth=1)
        profiler.emit(STEP, n=2)
        assert profiler.totals["1:1-5"] == {
            "steps": 1, "allocs": 0, "forces": 1, "raises": 0,
        }
        assert profiler.totals[ROOT]["steps"] == 1
        assert profiler.folded == {(ROOT, "1:1-5"): 1, (ROOT,): 1}

    def test_nested_forces_build_stacks(self):
        profiler = SpanProfiler()
        outer, inner = Span(1, 1, 1, 9), Span(2, 1, 2, 9)
        profiler.emit(FORCE, depth=1, span=outer)
        profiler.emit(FORCE, depth=2, span=inner)
        profiler.emit(STEP, n=1)
        profiler.emit(FORCE_END, depth=2)
        profiler.emit(FORCE_END, depth=1)
        assert profiler.folded == {(ROOT, "1:1-9", "2:1-9"): 1}

    def test_spanless_force_uses_placeholder(self):
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=None)
        profiler.emit(STEP, n=1)
        profiler.emit(FORCE_END, depth=1)
        assert profiler.totals[NO_SPAN]["steps"] == 1

    def test_allocs_and_raises_are_charged(self):
        profiler = SpanProfiler()
        span = Span(1, 1, 1, 5)
        profiler.emit(FORCE, depth=1, span=span)
        profiler.emit(ALLOC, kind="thunk")
        profiler.emit(RAISE, exc="DivideByZero", span=Span(3, 1, 3, 9))
        profiler.emit(FORCE_END, depth=1)
        assert profiler.totals["1:1-5"]["allocs"] == 1
        # A raise with its own span is charged to that span.
        assert profiler.totals["3:1-9"]["raises"] == 1

    def test_spanless_raise_charges_enclosing_frame(self):
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(RAISE, exc="NonTermination", span=None)
        profiler.emit(FORCE_END, depth=1)
        assert profiler.totals["1:1-5"]["raises"] == 1

    def test_prim_raise_charged_to_the_primitive_span(self):
        # `prim-raise` (DivideByZero/Overflow from a checked ⊕) carries
        # the primitive application's span and is charged there, not to
        # the enclosing force frame.
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(PRIM_RAISE, exc="DivideByZero", span=Span(2, 1, 2, 8))
        profiler.emit(FORCE_END, depth=1)
        assert profiler.totals["2:1-8"]["raises"] == 1
        assert profiler.totals["1:1-5"]["raises"] == 0

    def test_spanless_prim_raise_charges_enclosing_frame(self):
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(PRIM_RAISE, exc="Overflow", span=None)
        profiler.emit(FORCE_END, depth=1)
        assert profiler.totals["1:1-5"]["raises"] == 1

    def test_profiler_is_a_live_sink(self):
        assert is_live(SpanProfiler())


class TestOutputs:
    def test_folded_lines_format(self):
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(STEP, n=1)
        profiler.emit(STEP, n=2)
        profiler.emit(FORCE_END, depth=1)
        profiler.emit(STEP, n=3)
        assert profiler.folded_lines() == [
            f"{ROOT} 1",
            f"{ROOT};1:1-5 2",
        ]

    def test_table_rows_hottest_first(self):
        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(STEP, n=1)
        profiler.emit(FORCE_END, depth=1)
        for n in range(3):
            profiler.emit(STEP, n=n)
        rows = profiler.table_rows()
        assert rows[0][0] == ROOT
        assert rows[0][1]["steps"] == 3

    def test_as_dict_round_trips_through_json(self):
        import json

        profiler = SpanProfiler()
        profiler.emit(FORCE, depth=1, span=Span(1, 1, 1, 5))
        profiler.emit(STEP, n=1)
        profiler.emit(FORCE_END, depth=1)
        data = json.loads(json.dumps(profiler.as_dict()))
        assert data["totals"]["1:1-5"]["steps"] == 1
        assert data["folded"][f"{ROOT};1:1-5"] == 1


class TestEndToEnd:
    def test_attribution_of_a_real_run(self):
        # An explicit raise (the RAISE event covers `raise` and
        # pattern-match failure, matching stats.raises) is charged to
        # its own source span.
        profiler = SpanProfiler()
        machine = Machine()
        env = machine_env(machine)
        observe(
            compile_expr("sum [1, raise DivideByZero, 3]"),
            env=env,
            machine=machine,
            sink=profiler,
        )
        raised = {
            label: counters["raises"]
            for label, counters in profiler.totals.items()
            if counters["raises"]
        }
        assert raised, "the raise was not attributed anywhere"
        assert sum(raised.values()) == machine.stats.raises
        # The charged label is a real span, not the fallback frames.
        assert all(
            label not in (ROOT, NO_SPAN) for label in raised
        )
        # Steps were attributed and the totals agree with the machine.
        total_steps = sum(
            c["steps"] for c in profiler.totals.values()
        )
        assert total_steps == machine.stats.steps

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_prim_raise_attribution_end_to_end(self, backend):
        # A division by zero has no `raise` expression; the distinct
        # prim-raise event lets the profiler charge it to the `div`
        # application's span — identically on every lowering.
        profiler = SpanProfiler()
        machine, program, env = prepare(
            "let { f = \\x -> x `div` 0 } in f 3 + 2", backend
        )
        outcome = observe(program, env=env, machine=machine, sink=profiler)
        assert outcome.exc.name == "DivideByZero"
        # The div site (1:17-26) gets the charge; stats.raises stays 0
        # (prim-raise is deliberately not in lockstep with it).
        assert profiler.totals["1:17-26"]["raises"] == 1
        assert machine.stats.raises == 0

    def test_prim_raise_and_raise_streams_agree_across_backends(self):
        streams = {}
        for backend in LOWERINGS:
            profiler = SpanProfiler()
            machine, program, env = prepare(
                "(1 `div` 0) + raise Overflow", backend
            )
            observe(program, env=env, machine=machine, sink=profiler)
            streams[backend] = profiler.as_dict()
        for backend in LOWERINGS[1:]:
            assert streams[backend] == streams["ast"], backend

    def test_attribution_does_not_perturb_counters(self):
        expr = compile_expr("sum [1, 2, 3]")
        plain = Machine()
        observe(expr, env=machine_env(plain), machine=plain)
        profiled = Machine()
        observe(
            expr,
            env=machine_env(profiled),
            machine=profiled,
            sink=SpanProfiler(),
        )
        assert (
            plain.stats.snapshot().as_dict()
            == profiled.stats.snapshot().as_dict()
        )
