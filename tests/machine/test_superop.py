"""The superinstruction backend's own surface: profile parsing and
heat classification, profile-guided fusion gating, constant folding
through memoised prelude cells, the source-keyed code-object cache,
and decision-decorated flamegraph parity.

Observable parity with the other backends lives in
tests/machine/test_backends.py (every test there runs under
``backend="super"`` too); this module pins the knobs that exist *only*
on the super backend.
"""

import pytest

from repro.api import compile_expr, observe_source
from repro.machine import Machine, Normal, SuperMachine, observe
from repro.machine.superop import (
    CODE_CACHE_SIZE,
    _compile_fused,
    compile_super,
    load_profile,
    normalize_profile,
    span_heat,
)
from repro.prelude.loader import machine_env

FIB = (
    "let { fib = \\n -> if n < 2 then n "
    "else fib (n - 1) + fib (n - 2) } in fib 10"
)


def run(source, **kwargs):
    machine = Machine(backend="super", **kwargs)
    env = machine_env(machine)
    out = observe(compile_expr(source), env=env, machine=machine)
    return out, machine


class TestSpanHeat:
    FOLDED = [
        "<root>;fib 1",
        "<root>;fib;fib 96",
        "<root>;sum 2",
        "",
        "not-a-folded-line",
        "<root> 1",
    ]

    def test_counts_attribute_to_leaf_frames(self):
        heat = span_heat(self.FOLDED)
        # fib collected 97 of 100 leaf steps; the rest are cold at the
        # default 1% cut only if below it — sum (2%) and <root> (1%)
        # clear the bar, so everything here is hot.
        assert heat["fib"] is True
        assert heat["sum"] is True

    def test_fraction_raises_the_bar(self):
        heat = span_heat(self.FOLDED, fraction=0.5)
        assert heat == {"fib": True, "sum": False, "<root>": False}

    def test_decision_decorations_are_stripped(self):
        plain = span_heat(["<root>;fib 10", "<root>;sum 1"])
        decorated = span_heat(["<root>@d0;fib@d3 10", "<root>@d0;sum@d7 1"])
        assert decorated == plain

    def test_empty_profile_is_empty_map(self):
        assert span_heat([]) == {}
        assert span_heat(["garbage", ""]) == {}


class TestNormalizeProfile:
    def test_none_means_fuse_everything(self):
        assert normalize_profile(None) is None

    def test_dict_is_copied_through(self):
        heat = {"fib": True, "sum": False}
        normalized = normalize_profile(heat)
        assert normalized == heat
        assert normalized is not heat

    def test_iterable_of_folded_lines(self):
        assert normalize_profile(["<root>;fib 10"]) == {"fib": True}

    def test_path_loads_folded_file(self, tmp_path):
        path = tmp_path / "profile.folded"
        path.write_text("<root>;fib 99\n<root>;sum 1\n")
        assert normalize_profile(str(path)) == load_profile(str(path))
        assert normalize_profile(str(path))["fib"] is True


class TestProfileGuidedFusion:
    def test_default_fuses_hot_shapes(self):
        out, machine = run(FIB)
        assert isinstance(out, Normal)
        report = machine.fusion_report()
        assert report["prim"] > 0
        assert report["case"] > 0
        assert report["app"] > 0

    def test_all_cold_profile_suppresses_fusion(self):
        # A profile that marks the root region cold (and names no hot
        # span) turns the super backend into the plain compiled
        # lowering: zero fusion sites claimed, identical observations.
        from repro.obs.attribution import ROOT

        out_cold, cold_machine = run(FIB, profile={ROOT: False})
        out_hot, hot_machine = run(FIB)
        assert out_cold == out_hot
        assert cold_machine.stats.snapshot() == hot_machine.stats.snapshot()
        assert sum(cold_machine.fusion_report().values()) == 0
        assert sum(hot_machine.fusion_report().values()) > 0

    def test_machine_dispatch_accepts_profile_kwarg(self):
        machine = Machine(backend="super", profile={"fib": True})
        assert type(machine) is SuperMachine
        assert machine._heat == {"fib": True}

    def test_profile_requires_super_backend(self):
        with pytest.raises(TypeError):
            Machine(backend="compiled", profile={"fib": True})

    def test_observe_source_profile_plumbs_through(self):
        out = observe_source(FIB, backend="super", profile={"fib": False})
        assert isinstance(out, Normal)
        assert str(out.value) == "55"

    def test_observe_source_profile_rejects_other_backends(self):
        with pytest.raises(ValueError):
            observe_source(FIB, backend="compiled", profile={})


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
        # compiled backend doing the same warm re-evaluation — folding
        # removes indirections, not ticks.
        source = "sum (enumFromTo 1 5)"
        second = {}
        for backend in ("compiled", "super"):
            machine = Machine(backend=backend)
            env = machine_env(machine)
            observe(compile_expr(source), env=env, machine=machine)
            out = observe(compile_expr(source), env=env, machine=machine)
            assert isinstance(out, Normal)
            second[backend] = machine.stats.snapshot().as_dict()
        assert second["super"] == second["compiled"]


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

    def test_decorated_profile_steers_like_plain(self):
        decorated = span_heat(self._folded("super"))
        out, machine = run(FIB, profile=decorated)
        assert isinstance(out, Normal)
        assert str(out.value) == "55"
