"""Backend parity: every machine lowering against the AST walker.

Every test here runs under each backend in
:data:`repro.machine.BACKENDS` — ``ast`` and ``super`` — and under the
closure tier (``super`` running :func:`compile_top` code, a served
program's first use), or runs them all and compares.  The contract
(docs/PERFORMANCE.md): identical outcomes, identical counters,
identical strategy-ordered exception choices, identical async delivery
points — the lowerings must be observationally indistinguishable, only
wall-clock differs.  New backends join the battery by appearing in
``BACKENDS``; no bespoke tests are needed.
"""

import pytest

from repro.api import compile_program
from repro.core.excset import CONTROL_C, NON_TERMINATION, Exc
from repro.io.run import IOExecutor
from repro.machine import (
    BACKENDS,
    Diverged,
    Exceptional,
    LeftToRight,
    Machine,
    Normal,
    RightToLeft,
    Shuffled,
    SuperMachine,
    observe,
    observe_program,
)
from repro.machine.heap import Cell, ObjRaise
from repro.machine.values import VCon, VFun, VInt
from repro.machine.eval import program_env
from repro.prelude.loader import machine_env
from tests.conftest import LOWERINGS, lower_for, machine_for, prepare

BOTH = pytest.mark.parametrize("backend", LOWERINGS)


def run(source, backend, **kwargs):
    machine, program, env = prepare(source, backend, **kwargs)
    return observe(program, env=env, machine=machine), machine


def run_io(source, backend):
    machine, program, env = prepare(source, backend)
    return IOExecutor(machine=machine).run_cell(Cell(program, env))


def normal_int(outcome):
    assert isinstance(outcome, Normal), str(outcome)
    assert isinstance(outcome.value, VInt)
    return outcome.value.value


class TestDispatch:
    def test_backend_selects_subclass(self):
        assert BACKENDS == ("ast", "super")
        assert type(Machine(backend="super")) is SuperMachine
        assert type(Machine(backend="ast")) is Machine
        assert type(Machine()) is Machine

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Machine(backend="jit")

    def test_retired_compiled_backend_rejected(self):
        # The error names the backends that are left.
        with pytest.raises(ValueError, match=r"\('ast', 'super'\)"):
            Machine(backend="compiled")

    def test_backend_attribute(self):
        assert Machine(backend="super").backend == "super"
        assert Machine().backend == "ast"


class TestShadowing:
    @BOTH
    def test_lambda_shadows_lambda(self, backend):
        out, _ = run("(\\x -> (\\x -> x + 1) 10 + x) 100", backend)
        assert normal_int(out) == 111

    @BOTH
    def test_let_shadows_lambda(self, backend):
        out, _ = run("(\\x -> let { x = 5 } in x * x) 3", backend)
        assert normal_int(out) == 25

    @BOTH
    def test_case_pattern_shadows(self, backend):
        src = "(\\x -> case Just 7 of { Just x -> x + x }) 1"
        out, _ = run(src, backend)
        assert normal_int(out) == 14

    @BOTH
    def test_local_shadows_prelude_global(self, backend):
        # `head` is a prelude binding resolved through a global cell in
        # the lowered code; a local binder must still win.
        out, _ = run("let { head = \\x -> 42 } in head [1, 2]", backend)
        assert normal_int(out) == 42

    @BOTH
    def test_inner_shadow_does_not_leak(self, backend):
        out, _ = run(
            "let { y = 1 } in (let { y = 2 } in y) + y", backend
        )
        assert normal_int(out) == 3


class TestRecursionAndKnots:
    @BOTH
    def test_recursive_let(self, backend):
        src = ("let { fac = \\n -> if n < 1 then 1 else n * fac (n - 1) }"
               " in fac 6")
        out, _ = run(src, backend)
        assert normal_int(out) == 720

    @BOTH
    def test_mutual_recursion(self, backend):
        src = ("let { even = \\n -> if n == 0 then True else odd (n - 1)"
               "    ; odd  = \\n -> if n == 0 then False else even (n - 1) }"
               " in even 10")
        out, _ = run(src, backend)
        assert isinstance(out, Normal)
        assert isinstance(out.value, VCon)
        assert out.value.name == "True"

    @BOTH
    def test_fix_knot(self, backend):
        src = ("fix (\\rec -> \\n -> if n < 1 then 0 else n + rec (n - 1))"
               " 10")
        out, _ = run(src, backend)
        assert normal_int(out) == 55

    @BOTH
    def test_infinite_structure_knot(self, backend):
        # The let cell refers to itself *as data*: the frame must be
        # tied before the thunk is forced.
        src = "let { xs = Cons 1 xs } in head (tail (tail xs))"
        out, _ = run(src, backend)
        assert normal_int(out) == 1

    @BOTH
    def test_program_level_recursion(self, backend):
        program = compile_program(
            "main = go 100\n"
            "go n = if n < 1 then 0 else n + go (n - 1)\n"
        )
        if backend in BACKENDS:
            out = observe_program(program, backend=backend)
        else:
            machine = machine_for(backend)
            env = program_env(program, machine, machine_env(machine))
            main, env = lower_for(
                backend, program.bind_map()["main"], env, machine
            )
            out = observe(main, env=env, machine=machine)
        assert normal_int(out) == 5050


class TestClosureCapture:
    @BOTH
    def test_capture_survives_binder_scope(self, backend):
        # The closure escapes the let that bound `secret`; a pruned
        # capture must have copied the slot, not a frame pointer that
        # later evaluation could repurpose.
        src = ("(let { secret = 41 } in \\x -> x + secret) 1")
        out, _ = run(src, backend)
        assert normal_int(out) == 42

    @BOTH
    def test_nested_capture_chain(self, backend):
        src = ("((\\a -> \\b -> \\c -> a * 100 + b * 10 + c) 1 2 3)")
        out, _ = run(src, backend)
        assert normal_int(out) == 123

    @BOTH
    def test_captured_thunk_is_shared(self, backend):
        # Forcing through two different closures must hit one cell.
        src = ("let { x = 2 + 3; f = \\u -> x + u; g = \\u -> x * u }"
               " in f 1 + g 1")
        out, machine = run(src, backend)
        assert normal_int(out) == 11

    @BOTH
    def test_returned_function_value(self, backend):
        out, machine = run("const (\\x -> x + 1) 0", backend)
        assert isinstance(out, Normal)
        fn = out.value
        assert isinstance(fn, VFun)
        # Apply it through the backend-neutral primitive.
        cell = machine.bind_cell(fn, Cell.ready(VInt(9)))
        assert cell.force(machine) == VInt(10)


class TestBlackholes:
    @BOTH
    def test_detected_blackhole_is_non_termination(self, backend):
        out, _ = run("let { x = x + 1 } in x", backend)
        assert isinstance(out, Exceptional)
        assert out.exc == NON_TERMINATION

    @BOTH
    def test_undetected_blackhole_diverges(self, backend):
        out, _ = run(
            "let { x = x + 1 } in x", backend, detect_blackholes=False
        )
        assert isinstance(out, Diverged)

    @BOTH
    def test_fuel_exhaustion(self, backend):
        out, _ = run(
            "let { w = \\u -> w u } in w ()", backend, fuel=10_000
        )
        assert isinstance(out, Diverged)


class TestCounterParity:
    PROGRAMS = [
        "sum (map (\\x -> x * x) (enumFromTo 1 50))",
        "length [1 `div` 0, 2, error \"c\"]",
        "let { fib = \\n -> if n < 2 then n "
        "else fib (n - 1) + fib (n - 2) } in fib 12",
        "foldr (\\x acc -> x + acc) 0 (take 20 (iterate (\\x -> x + 1) 1))",
        "case [1, 2, 3] of { Cons h t -> h + length t; Nil -> 0 }",
    ]

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_stats_identical(self, source):
        snapshots = {}
        for backend in LOWERINGS:
            out, machine = run(source, backend)
            assert isinstance(out, Normal)
            snapshots[backend] = machine.stats.snapshot().as_dict()
        for backend in LOWERINGS[1:]:
            assert snapshots[backend] == snapshots["ast"], backend

    def test_stats_identical_on_exception(self):
        snapshots = {}
        for backend in LOWERINGS:
            out, machine = run("1 + (2 `div` 0)", backend)
            assert isinstance(out, Exceptional)
            snapshots[backend] = machine.stats.snapshot().as_dict()
        for backend in LOWERINGS[1:]:
            assert snapshots[backend] == snapshots["ast"], backend


class TestStrategyParity:
    TWO_FAULTS = "(1 `div` 0) + error \"boom\""

    @pytest.mark.parametrize(
        "strategy, expected",
        [(LeftToRight(), "DivideByZero"), (RightToLeft(), "UserError")],
    )
    def test_ordered_strategies_pick_same_exception(
        self, strategy, expected
    ):
        for backend in LOWERINGS:
            out, _ = run(self.TWO_FAULTS, backend, strategy=strategy)
            assert isinstance(out, Exceptional)
            assert out.exc.name == expected, backend

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    def test_shuffled_rng_stream_parity(self, seed):
        # Shuffled consults its RNG per prim-op execution; both
        # backends must draw in the same order and land on the same
        # representative exception.
        picks = {}
        for backend in LOWERINGS:
            out, _ = run(self.TWO_FAULTS, backend, strategy=Shuffled(seed))
            assert isinstance(out, Exceptional)
            picks[backend] = out.exc
        for backend in LOWERINGS[1:]:
            assert picks[backend] == picks["ast"], backend


class TestAsyncParity:
    @BOTH
    def test_event_plan_interrupts(self, backend):
        out, _ = run(
            "let { w = \\u -> w u } in w ()",
            backend,
            event_plan={50: CONTROL_C},
        )
        assert isinstance(out, Exceptional)
        assert out.exc == CONTROL_C

    def test_delivery_step_parity(self):
        # The interrupt must land at the same step count on both
        # backends — the tick contract, not just the final outcome.
        steps = {}
        for backend in LOWERINGS:
            out, machine = run(
                "let { w = \\u -> w u } in w ()",
                backend,
                event_plan={75: CONTROL_C},
            )
            assert isinstance(out, Exceptional)
            steps[backend] = machine.stats.steps
        for backend in LOWERINGS[1:]:
            assert steps[backend] == steps["ast"], backend


class TestRaiseMemoisation:
    @BOTH
    def test_cell_overwritten_with_raise(self, backend):
        machine, program, env = prepare("1 `div` 0", backend)
        cell = Cell(program, env)
        with pytest.raises(ObjRaise) as first:
            cell.force(machine)
        raises_after_first = machine.stats.raises
        with pytest.raises(ObjRaise) as second:
            cell.force(machine)
        assert first.value.exc == second.value.exc
        # The overwrite (Section 3.3) means no re-evaluation: the raise
        # counter must not move on the second force.
        assert machine.stats.raises == raises_after_first


class TestIOParity:
    @BOTH
    def test_put_str_sequencing(self, backend):
        result = run_io('putStr "a" >> putStr "b"', backend)
        assert result.ok
        assert result.stdout == "ab"

    @BOTH
    def test_catch_io(self, backend):
        src = ('catchIO (ioError (UserError "boom")) '
               '(\\e -> putStr "caught")')
        result = run_io(src, backend)
        assert result.ok
        assert result.stdout == "caught"

    @BOTH
    def test_get_exception(self, backend):
        src = ("getException (1 `div` 0) >>= (\\r -> "
               "case r of { OK v -> putStr \"ok\"; "
               "Bad e -> putStr \"bad\" })")
        result = run_io(src, backend)
        assert result.ok
        assert result.stdout == "bad"

    @BOTH
    def test_map_exception(self, backend):
        out, _ = run(
            'mapException (\\e -> UserError "renamed") (1 `div` 0)', backend
        )
        assert isinstance(out, Exceptional)
        assert out.exc.name == "UserError"


class TestProvenanceParity:
    """Provenance records are part of the observable surface: both
    backends must report the same raise site, chain shape and
    scheduling indices for the same schedule."""

    CASES = [
        "(1 `div` 0) + error \"boom\"",
        "sum [1, 2 `div` 0, 3]",
        "case Just 1 of { Nothing -> 0 }",
        "let { x = 1 `div` 0 } in (x + 0) + (x + 0)",
        "head (filter (\\x -> x `div` 0 > 0) [1, 2, 3])",
    ]

    def _observe_with_provenance(self, source, backend, strategy=None):
        machine, program, env = prepare(source, backend, strategy=strategy)
        return observe(program, env=env, machine=machine, provenance=True)

    @pytest.mark.parametrize("source", CASES)
    def test_records_identical(self, source):
        outcomes = [
            self._observe_with_provenance(source, backend)
            for backend in LOWERINGS
        ]
        reference = outcomes[0]
        assert isinstance(reference, Exceptional)
        for backend, outcome in zip(LOWERINGS[1:], outcomes[1:]):
            assert outcome == reference, backend
            assert outcome.provenance == reference.provenance, backend

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_identical_under_shuffle(self, seed):
        source = "(1 `div` 0) + error \"boom\""
        records = [
            self._observe_with_provenance(
                source, backend, strategy=Shuffled(seed)
            ).provenance
            for backend in LOWERINGS
        ]
        for backend, record in zip(LOWERINGS[1:], records[1:]):
            assert record == records[0], backend


class TestAttributionParity:
    """Span-level cost attribution is computed from the event stream,
    so both backends must produce identical per-span totals and
    identical folded stacks."""

    CASES = [
        "let { fib = \\n -> if n < 2 then n "
        "else fib (n - 1) + fib (n - 2) } in fib 10",
        "sum (map (\\x -> x * x) (enumFromTo 1 40))",
        "sum [1, 2 `div` 0, 3]",
    ]

    def _attribute(self, source, backend):
        from repro.obs import SpanProfiler

        profiler = SpanProfiler()
        machine, program, env = prepare(source, backend)
        observe(program, env=env, machine=machine, sink=profiler)
        return profiler

    @pytest.mark.parametrize("source", CASES)
    def test_totals_identical(self, source):
        profilers = [
            self._attribute(source, backend) for backend in LOWERINGS
        ]
        assert profilers[0].totals  # non-empty: attribution happened
        for backend, prof in zip(LOWERINGS[1:], profilers[1:]):
            assert prof.totals == profilers[0].totals, backend

    @pytest.mark.parametrize("source", CASES)
    def test_folded_stacks_identical(self, source):
        profilers = [
            self._attribute(source, backend) for backend in LOWERINGS
        ]
        reference = profilers[0].folded_lines()
        for backend, prof in zip(LOWERINGS[1:], profilers[1:]):
            assert prof.folded_lines() == reference, backend
