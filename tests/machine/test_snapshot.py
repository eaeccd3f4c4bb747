"""Warm-vs-cold parity: a forked machine must be observationally
byte-identical to a freshly built one.

The snapshot layer (repro.machine.snapshot) shares a fully memoised
prelude heap between machines.  That is only sound if *nothing
observable* distinguishes a fork from the cold construction — so this
suite compares, across both backends and the closure tier, several
strategies (including
the stateful ``Shuffled`` RNG stream) and the outcome taxonomy:
outcomes, machine counters, trace-event totals and raise provenance.
It also pins the immutability invariant the sharing rests on: no
request, however it ends (value, raise, interrupt, divergence), may
leave a snapshot cell in a writable state.
"""

import pytest

from repro.api import compile_expr
from repro.machine.heap import (
    AsyncInterrupt,
    MachineDiverged,
    ObjRaise,
    _RAISE,
    _VALUE,
)
from repro.machine.observe import Normal, observe, show_value
from repro.machine.snapshot import (
    PreludeSnapshot,
    freeze_env,
    mutable_cells,
    shared_snapshot,
    warm_machine,
)
from repro.machine.strategy import LeftToRight, RightToLeft, Shuffled
from repro.obs.sinks import CountingSink
from tests.conftest import LOWERINGS, backend_of, lower_for

#: (name, source) — exercising values, prelude-heavy evaluation, both
#: raise paths, strategy-sensitive imprecision, and provenance.
PROGRAMS = [
    ("value", "1 + 2 * 3"),
    ("prelude-heavy", "sum (map (\\x -> x * x) (enumFromTo 1 10))"),
    ("prelude-raise", "head Nil"),
    ("prim-raise", "1 `div` 0"),
    ("imprecise", "(1 `div` 0) + head Nil"),
    ("lazy-structure", "take 3 (iterate (\\x -> x + x) 1)"),
]

STRATEGIES = [LeftToRight, RightToLeft, lambda: Shuffled(7)]


def _observe_pair(
    snapshot, source, backend, fuel=200_000, provenance=False
):
    """(warm, cold) observations with full instrumentation attached —
    each entry is (outcome, stats-dict, event-dict, provenance)."""
    results = []
    for maker in (snapshot.fork, snapshot.cold_start):
        machine, env = maker(fuel=fuel)
        expr, env = lower_for(backend, compile_expr(source), env, machine)
        sink = CountingSink()
        machine.attach_sink(sink)
        outcome = observe(
            expr,
            env=env,
            machine=machine,
            reset_stats=False,
            provenance=provenance,
        )
        stats = machine.stats.as_dict()
        events = sink.as_dict()
        if isinstance(outcome, Normal):
            # VCon and friends compare by identity; render to compare
            # across heaps (this also forces the same spine both ways).
            shown = f"Normal({show_value(outcome.value, machine)})"
        else:
            shown = str(outcome)
        results.append(
            (
                shown,
                stats,
                events,
                getattr(outcome, "provenance", None),
            )
        )
    return results


class TestParity:
    @pytest.mark.parametrize("backend", LOWERINGS)
    @pytest.mark.parametrize(
        "name,source", PROGRAMS, ids=[n for n, _ in PROGRAMS]
    )
    def test_fork_matches_cold_start(self, backend, name, source):
        snapshot = shared_snapshot(backend=backend_of(backend))
        warm, cold = _observe_pair(snapshot, source, backend)
        assert warm[0] == cold[0], "outcomes diverged"
        assert warm[1] == cold[1], "machine counters diverged"
        assert warm[2] == cold[2], "trace-event totals diverged"

    @pytest.mark.parametrize("backend", LOWERINGS)
    @pytest.mark.parametrize("make_strategy", STRATEGIES)
    def test_parity_across_strategies(self, backend, make_strategy):
        snapshot = PreludeSnapshot.build(
            backend=backend_of(backend), strategy=make_strategy()
        )
        for _name, source in PROGRAMS:
            warm, cold = _observe_pair(snapshot, source, backend)
            assert warm[:3] == cold[:3], (source, warm, cold)

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_shuffled_rng_stream_is_replayed_per_fork(self, backend):
        """Every fork (and every cold start) consumes the Shuffled RNG
        from the same post-warm-up point: repeat forks observe the same
        member of ``{DivideByZero, UserError}``, and so does cold."""
        snapshot = PreludeSnapshot.build(
            backend=backend_of(backend), strategy=Shuffled(3)
        )
        source = "(1 `div` 0) + head Nil"
        outcomes = []
        for _ in range(3):
            (warm, cold) = _observe_pair(snapshot, source, backend)
            assert warm[0] == cold[0]
            outcomes.append(warm[0])
        assert len({str(o) for o in outcomes}) == 1

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_provenance_parity(self, backend):
        """The recorded raise journey — site span, force chain, depth,
        decision index — is identical on a fork and a cold machine."""
        snapshot = shared_snapshot(backend=backend_of(backend))
        for source in ("head Nil", "1 `div` 0", "sum (Cons 1 (Cons (2 `div` 0) Nil))"):
            warm, cold = _observe_pair(
                snapshot, source, backend, provenance=True
            )
            assert warm[3] is not None
            assert warm[3] == cold[3], source

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_divergence_parity(self, backend):
        snapshot = shared_snapshot(backend=backend_of(backend))
        source = "let { loop = \\x -> loop x } in loop 1"
        warm, cold = _observe_pair(snapshot, source, backend, fuel=5_000)
        assert str(warm[0]) == "Diverged" == str(cold[0])
        assert warm[1] == cold[1]
        assert warm[2] == cold[2]


class TestImmutability:
    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_snapshot_heap_is_fully_memoised(self, backend):
        snapshot = PreludeSnapshot.build(backend=backend_of(backend))
        assert mutable_cells(snapshot.env) == []
        for cell in snapshot.env.values():
            assert cell.state in (_VALUE, _RAISE)

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_requests_cannot_perturb_the_snapshot(self, backend):
        """Values, raises, async interrupts and divergence all leave
        the shared heap untouched — the property that makes concurrent
        forking safe."""
        snapshot = PreludeSnapshot.build(backend=backend_of(backend))
        sources = [s for _, s in PROGRAMS]
        sources.append("let { loop = \\x -> loop x } in loop 1")
        for source in sources:
            machine, env = snapshot.fork(fuel=5_000)
            expr, env = lower_for(backend, compile_expr(source), env, machine)
            try:
                machine.eval(expr, env)
            except (ObjRaise, AsyncInterrupt, MachineDiverged):
                pass
            assert mutable_cells(snapshot.env) == [], source

    @pytest.mark.parametrize("backend", LOWERINGS)
    def test_forks_are_isolated(self, backend):
        """One fork's counters and heap writes never leak into
        another's — request cells are per-fork allocations."""
        snapshot = shared_snapshot(backend=backend_of(backend))
        expr = compile_expr("sum (enumFromTo 1 30)")
        first, env = snapshot.fork()
        first.eval(*lower_for(backend, expr, env, first))
        second, env2 = snapshot.fork()
        assert second.stats.steps == 0
        second.eval(*lower_for(backend, expr, env2, second))
        assert first.stats.as_dict() == second.stats.as_dict()


class TestHelpers:
    def test_freeze_env_reaches_nested_cells(self):
        """freeze_env drives *transitively* reachable cells — closure
        captures included — to a memoised state."""
        machine, env = warm_machine(backend="ast")
        assert mutable_cells(env) == []
        # freezing an already-frozen env is a no-op
        before = machine.stats.as_dict()
        freeze_env(env, machine)
        assert machine.stats.as_dict() == before

    def test_warm_machine_restores_fuel_and_counters(self):
        machine, _env = warm_machine(backend="ast", fuel=12_345)
        assert machine.stats.steps == 0
        assert machine.fuel == 12_345

    def test_shared_snapshot_is_cached_per_backend(self):
        assert shared_snapshot(backend="ast") is shared_snapshot(
            backend="ast"
        )
        assert shared_snapshot(backend="ast") is not shared_snapshot(
            backend="super"
        )

    def test_strategy_key_names_the_strategy(self):
        snap = PreludeSnapshot.build(strategy=Shuffled(9))
        assert snap.strategy_key() == "shuffled(seed=9)"
