"""The superinstruction backend's own surface: fusion sites, constant
folding through memoised prelude cells, the source-keyed code-object
cache, and decision-decorated flamegraph parity.

Observable parity with the other backends lives in
tests/machine/test_backends.py (every test there runs under
``backend="super"`` too); this module pins the knobs that exist *only*
on the super backend.
"""

from repro.api import compile_expr
from repro.machine import Machine, Normal, observe
from repro.machine.superop import CODE_CACHE_SIZE, _compile_fused, compile_super
from repro.prelude.loader import machine_env
from tests.conftest import CLOSURE, lower_for, machine_for

FIB = (
    "let { fib = \\n -> if n < 2 then n "
    "else fib (n - 1) + fib (n - 2) } in fib 10"
)


def run(source):
    machine = Machine(backend="super")
    env = machine_env(machine)
    out = observe(compile_expr(source), env=env, machine=machine)
    return out, machine


class TestFusionSites:
    def test_default_fuses_hot_shapes(self):
        out, machine = run(FIB)
        assert isinstance(out, Normal)
        report = machine.fusion_report()
        assert report["prim"] > 0
        assert report["case"] > 0
        assert report["app"] > 0


class TestConstantFolding:
    def test_forced_prelude_cells_fold(self):
        # machine_env leaves prelude cells memoised only after use;
        # force one, then compile a fresh expression against the same
        # environment — the state-2 global bakes in as a constant.
        machine = Machine(backend="super")
        env = machine_env(machine)
        observe(compile_expr("const 1 2"), env=env, machine=machine)
        before = machine.fusion_report()["folded-cells"]
        observe(compile_expr("const 3 4"), env=env, machine=machine)
        assert machine.fusion_report()["folded-cells"] > before

    def test_folding_preserves_counters(self):
        # Warm-heap parity: re-evaluating against an already-memoised
        # environment lets the super compiler fold the forced globals,
        # but its second-run counters must still match the unfused
        # closure tier doing the same warm re-evaluation — folding
        # removes indirections, not ticks.
        expr = compile_expr("sum (enumFromTo 1 5)")
        second = {}
        for backend in (CLOSURE, "super"):
            machine = machine_for(backend)
            env = machine_env(machine)
            for _ in range(2):
                out = observe(
                    *lower_for(backend, expr, env, machine), machine=machine
                )
            assert isinstance(out, Normal)
            second[backend] = machine.stats.snapshot().as_dict()
        assert second["super"] == second[CLOSURE]


class TestCodeCache:
    def test_identical_sources_share_code_objects(self):
        expr = compile_expr("1 + 2 * 3")
        machine = Machine(backend="super")
        env = machine_env(machine)
        compile_super(expr, env, machine.strategy)
        misses = _compile_fused.cache_info().misses
        other = Machine(backend="super")
        compile_super(expr, machine_env(other), other.strategy)
        assert _compile_fused.cache_info().misses == misses

    def test_memo_is_bounded(self):
        # A long-lived daemon compiles an open-ended stream of distinct
        # programs; the code memo must stay at its bound, evicting the
        # least recently used shapes.
        from repro.fuzz.gen import generate_case
        from repro.machine.snapshot import shared_snapshot

        snapshot = shared_snapshot(backend="super")
        machine, _ = snapshot.fork()
        before = _compile_fused.cache_info().misses
        seed = 0
        while _compile_fused.cache_info().misses - before <= CODE_CACHE_SIZE:
            case = generate_case(seed)
            compile_super(case.expr, snapshot.env, machine.strategy)
            seed += 1
        info = _compile_fused.cache_info()
        assert info.maxsize == CODE_CACHE_SIZE
        assert info.currsize <= CODE_CACHE_SIZE

    def test_cached_code_still_gets_fresh_constants(self):
        # The cache keys code *objects* by source text; per-environment
        # constants live in each function's namespace, so two machines
        # sharing cached code must still compute independently.
        a, _ = run("sum (enumFromTo 1 10)")
        b, _ = run("sum (enumFromTo 1 10)")
        assert a == b
        assert str(a.value) == "55"


class TestDecisionDecoratedFlames:
    def _folded(self, backend):
        from repro.obs import SpanProfiler

        profiler = SpanProfiler(decisions=True)
        machine = Machine(backend=backend)
        env = machine_env(machine)
        observe(
            compile_expr(FIB), env=env, machine=machine, sink=profiler
        )
        return profiler.folded_lines()

    def test_decorated_stacks_byte_identical_across_backends(self):
        from repro.machine import BACKENDS

        reference = self._folded("ast")
        assert any("@d" in line for line in reference)
        for backend in BACKENDS[1:]:
            assert self._folded(backend) == reference, backend
