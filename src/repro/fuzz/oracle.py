"""The multi-way differential oracle.

Every generated program is run through several evaluators and each
lane's outcome is compared against a *reference*:

* pure programs — the imprecise denotational semantics (Section 4) is
  the reference; lanes are the lazy machine under every standard
  strategy plus a per-case ``Shuffled`` with a recorded seed, the
  explicit ``ExVal`` encoding (Section 2), the fixed-order baseline
  (Sections 3.4/6), and the ``super`` backend's two lowering tiers —
  the closure lowering a served program runs on first use and the
  fused frames it runs once hot (docs/PERFORMANCE.md) — under the
  default strategy, classified against the denotation exactly like the
  AST machine, so any behavioural drift in either lowering surfaces as
  a divergence here;
* IO programs — the left-to-right executor run is the reference and
  the other strategies are the lanes (the denotational reference for
  IO is the Section 4.4 LTS, already property-tested in
  ``tests/io/test_transition.py``), plus the two ``super`` tiers under
  the reference strategy.

Each comparison lands on a three-point lattice:

* ``agree`` — identical observables;
* ``refinement`` — different observables, but legal under a documented
  contract: the machine observed *one member* of the denoted exception
  set (Section 3.5), the fixed-order denotation refines the imprecise
  one (``⊑``, Section 4.5), the ``ExVal`` encoding exercised its
  documented increased strictness (Section 2.2), or the reference is
  the fuel-bounded ⊥ approximation (below everything);
* ``divergence`` — a genuine disagreement no contract licenses; the
  engine shrinks and persists these.

``skipped`` marks lanes that could not run (unencodable fragment, fuel
exhaustion in a non-reference lane); it never influences the verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.fixed_order import fixed_order_ctx
from repro.core.denote import (
    DenoteContext,
    denote,
    ensure_recursion_headroom,
)
from repro.core.domains import (
    BOTTOM,
    Bad,
    ConVal,
    FunVal,
    IOVal,
    Ok,
    SemVal,
    is_bottom,
)
from repro.core.excset import Exc, NON_TERMINATION, OVERFLOW
from repro.core.ordering import refines, sem_equal
from repro.encoding.exval import EncodeError, encode_expr
from repro.fuzz.gen import FuzzCase
from repro.io.run import IOExecutor, IOResult, IORunError
from repro.lang.ast import Expr
from repro.lang.names import free_vars
from repro.machine.eval import Machine
from repro.machine.heap import (
    AsyncInterrupt,
    Cell,
    MachineDiverged,
    ObjRaise,
)
from repro.machine.strategy import Shuffled, Strategy, standard_strategies
from repro.machine.values import VCon, VFun, VInt, VIO, VStr, Value
from repro.prelude.loader import denote_env, machine_env
from repro.transform.base import Transformation, rewrite_everywhere

AGREE = "agree"
REFINEMENT = "refinement"
DIVERGENCE = "divergence"
SKIPPED = "skipped"

_RANK = {AGREE: 0, REFINEMENT: 1, DIVERGENCE: 2}


@dataclass(frozen=True)
class Observation:
    """One lane's outcome, with enough detail to reproduce it.

    ``seed`` records the RNG seed of a ``Shuffled`` strategy lane so a
    disagreement is re-runnable (the historic irreproducibility bug —
    see docs/FUZZING.md).  ``exc`` and ``payload`` carry the raw
    objects for classification; only the printable fields are
    serialised.
    """

    lane: str
    kind: str  # ok | ok-con | ok-fun | ok-io | exc | diverged | skipped
    detail: str = ""
    seed: Optional[int] = None
    stdout: Optional[str] = None
    exc: Optional[Exc] = field(default=None, compare=False)
    payload: object = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out = {"lane": self.lane, "kind": self.kind, "detail": self.detail}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.stdout is not None:
            out["stdout"] = self.stdout
        return out


@dataclass(frozen=True)
class Comparison:
    """One lane classified against the reference."""

    lane: str
    verdict: str
    reason: str
    observation: Observation

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "verdict": self.verdict,
            "reason": self.reason,
            "observation": self.observation.to_dict(),
        }


@dataclass
class OracleReport:
    """All lanes of one case, with the worst verdict pre-computed.

    ``lane_seconds`` is wall-clock spent per lane (the ``reference``
    key covers the denotation / reference run).  It is deliberately
    *excluded* from :meth:`to_dict`: corpus entries and fleet payloads
    must stay byte-identical across runs, so timing travels only
    through the engine's aggregate ``timing`` block.
    """

    case: FuzzCase
    reference: Observation
    comparisons: List[Comparison]
    lane_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        worst = AGREE
        for comparison in self.comparisons:
            rank = _RANK.get(comparison.verdict)
            if rank is not None and rank > _RANK[worst]:
                worst = comparison.verdict
        return worst

    @property
    def worst_comparison(self) -> Optional[Comparison]:
        worst = None
        for comparison in self.comparisons:
            rank = _RANK.get(comparison.verdict)
            if rank is None:
                continue
            if worst is None or rank > _RANK[worst.verdict]:
                worst = comparison
        return worst

    def to_dict(self) -> dict:
        return {
            "seed": self.case.seed,
            "kind": self.case.kind,
            "source": self.case.source,
            "verdict": self.verdict,
            "reference": self.reference.to_dict(),
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


@dataclass(frozen=True)
class OracleConfig:
    """Fuel budgets and lane knobs.

    The machine gets much more fuel than the denotational reference so
    that when fuel *does* run out, it is the reference that bottoms
    out first — and a ⊥ reference classifies every lane as refinement
    (⊥ is below everything), never as a false divergence.
    """

    denote_fuel: int = 50_000
    machine_fuel: int = 400_000
    exval_fuel: int = 600_000
    io_fuel: int = 400_000
    extra_shuffled: bool = True
    warm_lane: bool = True

    def strategies(self, seed: int) -> Sequence[Strategy]:
        base = list(standard_strategies())
        if self.extra_shuffled:
            base.append(Shuffled(1_000 + seed % 9_973))
        return base


# -- helpers -------------------------------------------------------------


def _safe_denote(expr: Expr, env, ctx: DenoteContext) -> SemVal:
    ensure_recursion_headroom()
    try:
        return denote(expr, env, ctx)
    except RecursionError:
        return BOTTOM


def _value_observation(lane: str, value: Value,
                       seed: Optional[int]) -> Observation:
    if isinstance(value, VInt):
        return Observation(lane, "ok", str(value.value), seed=seed,
                           payload=value.value)
    if isinstance(value, VStr):
        return Observation(lane, "ok", repr(value.value), seed=seed,
                           payload=value.value)
    if isinstance(value, VCon):
        return Observation(lane, "ok-con", value.name, seed=seed,
                           payload=value.name)
    if isinstance(value, VFun):
        return Observation(lane, "ok-fun", "<function>", seed=seed)
    if isinstance(value, VIO):
        return Observation(lane, "ok-io", value.tag, seed=seed,
                           payload=value.tag)
    return Observation(lane, "ok", str(value), seed=seed)


def _closure_tier(expr: Expr, env, machine: Machine):
    """``(code, frame)``: ``expr`` in the closure lowering, run on a
    ``super`` machine exactly as a served program's first use runs it
    (``CachedProgram.lower``)."""
    from repro.machine.compile import compile_top

    return compile_top(expr, env, machine.strategy), ()


def _machine_observation(
    expr: Expr, strategy: Strategy, fuel: int, sink,
    lane: Optional[str] = None, backend: str = "ast",
    closure: bool = False,
) -> Observation:
    machine = Machine(strategy=strategy, fuel=fuel, sink=sink,
                      backend=backend)
    env = machine_env(machine)
    if lane is None:
        lane = f"machine:{strategy.name}"
    seed = getattr(strategy, "seed", None)
    try:
        if closure:
            expr, env = _closure_tier(expr, env, machine)
        value = machine.eval(expr, env)
    except (ObjRaise, AsyncInterrupt) as err:
        return Observation(lane, "exc", str(err.exc), seed=seed,
                           exc=err.exc)
    except (MachineDiverged, RecursionError):
        return Observation(lane, "diverged", seed=seed)
    return _value_observation(lane, value, seed)


def _warm_lane_observation(maker, lane: str, expr: Expr, fuel: int):
    """Run ``expr`` on a machine built by ``maker`` (snapshot.fork or
    snapshot.cold_start) with a private counting sink; returns the
    observation plus the counter block and trace-event totals."""
    from repro.obs.sinks import CountingSink

    machine, env = maker(fuel=fuel)
    counting = CountingSink()
    machine.attach_sink(counting)
    try:
        value = machine.eval(expr, env)
        obs = _value_observation(lane, value, None)
    except (ObjRaise, AsyncInterrupt) as err:
        obs = Observation(lane, "exc", str(err.exc), exc=err.exc)
    except (MachineDiverged, RecursionError):
        obs = Observation(lane, "diverged")
    return obs, machine.stats.as_dict(), counting.as_dict()


def _classify_warm_lane(
    expr: Expr, config: OracleConfig, backend: str
) -> Comparison:
    """The serving layer's parity contract as a fuzz lane: a machine
    forked from the shared prelude snapshot must be *byte-identical*
    to a cold-built one — same outcome, same counter block, same
    trace-event totals — on every generated program
    (docs/SERVING.md).  Unlike the semantic lanes, any difference at
    all is a divergence: no refinement contract licenses the warm path
    changing even one counter."""
    from repro.machine.snapshot import shared_snapshot

    lane = f"machine:warm-fork[{backend}]"
    snapshot = shared_snapshot(backend=backend)
    warm = _warm_lane_observation(
        snapshot.fork, lane, expr, config.machine_fuel
    )
    cold = _warm_lane_observation(
        snapshot.cold_start, lane, expr, config.machine_fuel
    )
    (w_obs, w_stats, w_events) = warm
    (c_obs, c_stats, c_events) = cold
    if (w_obs.kind, w_obs.detail) != (c_obs.kind, c_obs.detail):
        return Comparison(
            lane,
            DIVERGENCE,
            f"fork observed {w_obs.kind}:{w_obs.detail} but cold "
            f"start observed {c_obs.kind}:{c_obs.detail}",
            w_obs,
        )
    if w_stats != c_stats:
        return Comparison(
            lane,
            DIVERGENCE,
            f"counter mismatch: fork {w_stats} vs cold {c_stats}",
            w_obs,
        )
    if w_events != c_events:
        return Comparison(
            lane,
            DIVERGENCE,
            f"trace-event mismatch: fork {w_events} vs cold "
            f"{c_events}",
            w_obs,
        )
    return Comparison(
        lane,
        AGREE,
        "fork and cold start byte-identical "
        "(outcome, counters, events)",
        w_obs,
    )


def _semval_matches(denoted_value: object, obs: Observation) -> bool:
    """Does a machine observation match a normal denotation (at the
    same granularity the soundness property uses: exact base values,
    constructor names, function/IO-ness)?"""
    if isinstance(denoted_value, ConVal):
        return obs.kind == "ok-con" and obs.payload == denoted_value.name
    if isinstance(denoted_value, FunVal):
        return obs.kind == "ok-fun"
    if isinstance(denoted_value, IOVal):
        return obs.kind == "ok-io"
    return obs.kind == "ok" and obs.payload == denoted_value


def _singleton(excs) -> bool:
    return excs.is_finite() and len(excs.finite_members()) == 1


def _classify_machine_lane(
    denoted: SemVal, obs: Observation
) -> Comparison:
    lane = obs.lane
    if is_bottom(denoted):
        if obs.kind == "diverged":
            return Comparison(lane, AGREE, "both ⊥", obs)
        return Comparison(
            lane,
            REFINEMENT,
            "reference is the fuel-bounded ⊥ approximation; "
            "every behaviour refines ⊥",
            obs,
        )
    if isinstance(denoted, Ok):
        if obs.kind.startswith("ok"):
            if _semval_matches(denoted.value, obs):
                return Comparison(lane, AGREE, "same normal value", obs)
            return Comparison(
                lane,
                DIVERGENCE,
                f"machine computed {obs.detail} but denotation is "
                f"{denoted}",
                obs,
            )
        if obs.kind == "exc":
            return Comparison(
                lane,
                DIVERGENCE,
                f"machine raised {obs.detail} but denotation is "
                f"{denoted}",
                obs,
            )
        return Comparison(
            lane,
            DIVERGENCE,
            f"machine diverged but denotation is {denoted}",
            obs,
        )
    assert isinstance(denoted, Bad)
    excs = denoted.excs
    if obs.kind == "exc":
        assert obs.exc is not None
        if obs.exc in excs:
            if _singleton(excs):
                return Comparison(
                    lane, AGREE, "the single denoted exception", obs
                )
            return Comparison(
                lane,
                REFINEMENT,
                f"one member of the denoted set {excs} (§3.5)",
                obs,
            )
        return Comparison(
            lane,
            DIVERGENCE,
            f"machine raised {obs.detail} ∉ denoted set {excs}",
            obs,
        )
    if obs.kind == "diverged":
        if NON_TERMINATION in excs:
            return Comparison(
                lane,
                REFINEMENT,
                "NonTermination is a member of the denoted set",
                obs,
            )
        return Comparison(
            lane,
            DIVERGENCE,
            f"machine diverged but NonTermination ∉ {excs}",
            obs,
        )
    return Comparison(
        lane,
        DIVERGENCE,
        f"machine computed {obs.detail} but denotation is Bad {excs}",
        obs,
    )


def _classify_exval_lane(
    expr: Expr, denoted: SemVal, config: OracleConfig, sink
) -> Comparison:
    lane = "exval"
    free = free_vars(expr)
    if free:
        # Prelude calls resolve to *unencoded* definitions, which return
        # raw values where the encoding expects ExVals — no encoded
        # prelude exists, so the fragment is closed terms only.
        obs = Observation(lane, "skipped", f"free prelude vars {sorted(free)}")
        return Comparison(
            lane, SKIPPED,
            "prelude calls are outside the encodable fragment", obs,
        )
    try:
        encoded = encode_expr(expr)
    except EncodeError as err:
        obs = Observation(lane, "skipped", str(err))
        return Comparison(lane, SKIPPED, "outside the encodable fragment",
                          obs)
    machine = Machine(fuel=config.exval_fuel, sink=sink)
    env = machine_env(machine)
    try:
        value = machine.eval(encoded, env)
        if not isinstance(value, VCon) or value.name not in ("OK", "Bad"):
            obs = Observation(lane, "exc", f"non-ExVal result {value}")
            return Comparison(
                lane, DIVERGENCE,
                "encoded program did not return an ExVal", obs
            )
        payload = value.args[0].force(machine)
    except (MachineDiverged, RecursionError):
        obs = Observation(lane, "diverged")
        return Comparison(
            lane, SKIPPED,
            "encoded run exhausted its fuel (the encoding's overhead is "
            "the point of E2)", obs,
        )
    except (ObjRaise, AsyncInterrupt) as err:
        if err.exc.name == "NonTermination":
            obs = Observation(lane, "diverged", str(err.exc), exc=err.exc)
            return Comparison(
                lane, SKIPPED,
                "blackhole: divergence is the one failure the value "
                "encoding cannot capture", obs,
            )
        obs = Observation(lane, "exc", str(err.exc), exc=err.exc)
        return Comparison(
            lane, DIVERGENCE,
            f"encoded program raised {err.exc} natively", obs,
        )
    if value.name == "OK":
        obs = _value_observation(lane, payload, None)
        if is_bottom(denoted):
            return Comparison(
                lane, REFINEMENT,
                "reference is the fuel-bounded ⊥ approximation", obs,
            )
        if isinstance(denoted, Ok):
            if _semval_matches(denoted.value, obs):
                return Comparison(lane, AGREE, "same normal value", obs)
            return Comparison(
                lane, DIVERGENCE,
                f"encoded OK {obs.detail} but denotation is {denoted}",
                obs,
            )
        assert isinstance(denoted, Bad)
        if OVERFLOW in denoted.excs:
            return Comparison(
                lane, SKIPPED,
                "overflow checking is elided by the encoding baseline "
                "(DESIGN.md)", obs,
            )
        return Comparison(
            lane, DIVERGENCE,
            f"encoded OK {obs.detail} but denotation is Bad "
            f"{denoted.excs} — the encoding forces strictly more, it "
            "can never succeed where the lazy semantics fails", obs,
        )
    # value.name == "Bad"
    exc = machine.exc_of_value(payload)
    obs = Observation(lane, "exc", str(exc), exc=exc)
    if is_bottom(denoted):
        return Comparison(
            lane, REFINEMENT,
            "reference is the fuel-bounded ⊥ approximation", obs,
        )
    if isinstance(denoted, Bad):
        if exc in denoted.excs:
            if _singleton(denoted.excs):
                return Comparison(
                    lane, AGREE, "the single denoted exception", obs
                )
            return Comparison(
                lane, REFINEMENT,
                f"one member of the denoted set {denoted.excs}", obs,
            )
    return Comparison(
        lane, REFINEMENT,
        "legal increased strictness of the encoding (§2.2): arguments "
        "are checked when passed, so the encoding may fail where the "
        "lazy semantics succeeds, or meet a different fault first", obs,
    )


def _classify_fixed_lane(
    expr: Expr, denoted: SemVal, config: OracleConfig, sink
) -> Comparison:
    lane = "fixed-order"
    ctx = fixed_order_ctx(config.denote_fuel)
    if sink is not None:
        # Re-derive the tracing flag: it was compiled from the sink in
        # __post_init__, before this sink existed.
        ctx.sink = sink
        ctx.__post_init__()
    fixed = _safe_denote(expr, denote_env(ctx), ctx)
    obs = Observation(lane, "denote", str(fixed))
    if is_bottom(fixed) and not is_bottom(denoted):
        return Comparison(
            lane, SKIPPED,
            "fixed-order evaluation exhausted its fuel", obs,
        )
    if sem_equal(denoted, fixed):
        return Comparison(lane, AGREE, "identical denotations", obs)
    if refines(denoted, fixed):
        return Comparison(
            lane, REFINEMENT,
            "fixed order commits to one evaluation path, so its "
            "exception set is a subset (⊑, §4.5)", obs,
        )
    return Comparison(
        lane, DIVERGENCE,
        f"fixed-order denotation {fixed} is not a refinement of "
        f"imprecise {denoted}", obs,
    )


# -- IO lane -------------------------------------------------------------


def _io_observation(
    case: FuzzCase, strategy: Strategy, fuel: int, sink,
    lane: Optional[str] = None, backend: str = "ast",
    closure: bool = False,
) -> Observation:
    machine = Machine(strategy=strategy, fuel=fuel, sink=sink,
                      backend=backend)
    env = machine_env(machine)
    if lane is None:
        lane = f"io:{strategy.name}"
    seed = getattr(strategy, "seed", None)
    executor = IOExecutor(machine=machine, stdin=case.stdin)
    try:
        expr = case.expr
        if closure:
            expr, env = _closure_tier(expr, env, machine)
        result: IOResult = executor.run_cell(Cell(expr, env))
    except IORunError as err:
        return Observation(lane, "skipped", f"ill-formed IO: {err}",
                           seed=seed)
    except RecursionError:
        return Observation(lane, "diverged", seed=seed)
    if result.status == "ok":
        base = _value_observation(lane, result.value, seed)
        return Observation(
            lane, base.kind, base.detail, seed=seed,
            stdout=result.stdout, payload=base.payload,
        )
    if result.status == "exception":
        return Observation(lane, "exc", str(result.exc), seed=seed,
                           stdout=result.stdout, exc=result.exc)
    return Observation(lane, "diverged", seed=seed, stdout=result.stdout)


def _classify_io_lane(
    reference: Observation, obs: Observation
) -> Comparison:
    lane = obs.lane
    if obs.kind == "skipped" or reference.kind == "skipped":
        return Comparison(lane, SKIPPED, "lane could not run", obs)
    ref_ok = reference.kind.startswith("ok")
    obs_ok = obs.kind.startswith("ok")
    if ref_ok and obs_ok:
        if (reference.stdout == obs.stdout
                and reference.kind == obs.kind
                and reference.payload == obs.payload):
            return Comparison(lane, AGREE, "same value and output", obs)
        return Comparison(
            lane, DIVERGENCE,
            f"strategies disagree on a normal run: "
            f"{reference.kind}/{reference.stdout!r} vs "
            f"{obs.kind}/{obs.stdout!r}", obs,
        )
    if reference.kind == "exc" and obs.kind == "exc":
        if reference.exc == obs.exc and reference.stdout == obs.stdout:
            return Comparison(lane, AGREE, "same exception and output",
                              obs)
        return Comparison(
            lane, REFINEMENT,
            "a different member of the denoted exception set surfaced "
            "(§3.5: recompiling may change which exception is raised)",
            obs,
        )
    if reference.kind == "diverged" and obs.kind == "diverged":
        return Comparison(lane, AGREE, "both diverged", obs)
    if {"exc", "diverged"} == {reference.kind, obs.kind}:
        return Comparison(
            lane, REFINEMENT,
            "⊥'s exception set contains both NonTermination and every "
            "synchronous exception, so an exception under one strategy "
            "and divergence under another are both legal members", obs,
        )
    return Comparison(
        lane, DIVERGENCE,
        f"one strategy completed normally, another did not: reference "
        f"{reference.kind} vs {obs.kind}", obs,
    )


# -- entry points --------------------------------------------------------


def run_oracle(
    case: FuzzCase,
    config: Optional[OracleConfig] = None,
    sink=None,
) -> OracleReport:
    """Run every lane for one case and classify the outcomes."""
    if config is None:
        config = OracleConfig()
    if case.kind == "io":
        return _run_io_oracle(case, config, sink)
    return _run_pure_oracle(case, config, sink)


def _run_pure_oracle(
    case: FuzzCase, config: OracleConfig, sink
) -> OracleReport:
    # The sink must go through the constructor: ``_tracing`` is
    # computed in ``__post_init__``, so assigning ``ctx.sink`` after
    # the fact would silently drop every denote-layer event.
    lane_seconds: Dict[str, float] = {}
    comparisons: List[Comparison] = []

    def timed(thunk: Callable[[], Comparison]) -> None:
        lane_started = time.perf_counter()
        comparison = thunk()
        lane_seconds[comparison.lane] = (
            lane_seconds.get(comparison.lane, 0.0)
            + time.perf_counter()
            - lane_started
        )
        comparisons.append(comparison)

    started = time.perf_counter()
    ctx = DenoteContext(fuel=config.denote_fuel, sink=sink)
    denoted = _safe_denote(case.expr, denote_env(ctx), ctx)
    reference = Observation("denote", "denote", str(denoted))
    lane_seconds["reference"] = time.perf_counter() - started
    strategies = list(config.strategies(case.seed))
    for index, strategy in enumerate(strategies):
        # The per-case shuffle gets a stable lane label so summaries
        # aggregate; its exact seed lives in the observation.
        lane = f"machine:{strategy.name}"
        if config.extra_shuffled and index == len(strategies) - 1:
            lane = "machine:shuffled(per-case)"
        timed(lambda: _classify_machine_lane(denoted, _machine_observation(
            case.expr, strategy, config.machine_fuel, sink, lane
        )))
    # Both super tiers run under the *default* strategy, so each must
    # land on the same verdict as the machine:left-to-right lane above
    # — the differential check on the two lowerings: neither closures
    # nor fused frames may change the observed member of the exception
    # set (docs/PERFORMANCE.md, "Superinstructions").
    timed(lambda: _classify_machine_lane(denoted, _machine_observation(
        case.expr, strategies[0], config.machine_fuel, sink,
        "machine:closure", backend="super", closure=True,
    )))
    timed(lambda: _classify_machine_lane(denoted, _machine_observation(
        case.expr, strategies[0], config.machine_fuel, sink,
        "machine:super", backend="super",
    )))
    if config.warm_lane:
        # The warm serving path's parity contract, checked as its own
        # differential: fork-vs-cold must be byte-identical, not just
        # semantically equivalent.
        timed(lambda: _classify_warm_lane(case.expr, config, "ast"))
        timed(lambda: _classify_warm_lane(case.expr, config, "super"))
    timed(lambda: _classify_exval_lane(case.expr, denoted, config, sink))
    timed(lambda: _classify_fixed_lane(case.expr, denoted, config, sink))
    return OracleReport(case, reference, comparisons, lane_seconds)


def _run_io_oracle(
    case: FuzzCase, config: OracleConfig, sink
) -> OracleReport:
    lane_seconds: Dict[str, float] = {}
    comparisons: List[Comparison] = []

    def timed(thunk: Callable[[], Comparison]) -> None:
        lane_started = time.perf_counter()
        comparison = thunk()
        lane_seconds[comparison.lane] = (
            lane_seconds.get(comparison.lane, 0.0)
            + time.perf_counter()
            - lane_started
        )
        comparisons.append(comparison)

    strategies = list(config.strategies(case.seed))
    started = time.perf_counter()
    reference = _io_observation(case, strategies[0], config.io_fuel, sink)
    lane_seconds["reference"] = time.perf_counter() - started
    for index, strategy in enumerate(strategies[1:], start=1):
        lane = f"io:{strategy.name}"
        if config.extra_shuffled and index == len(strategies) - 1:
            lane = "io:shuffled(per-case)"
        timed(lambda: _classify_io_lane(reference, _io_observation(
            case, strategy, config.io_fuel, sink, lane
        )))
    # Same strategy as the reference run, different evaluator: any
    # disagreement (beyond §3.5's exception-choice refinement) is a
    # lowering bug, not a strategy effect.
    timed(lambda: _classify_io_lane(reference, _io_observation(
        case, strategies[0], config.io_fuel, sink, "io:closure",
        backend="super", closure=True,
    )))
    timed(lambda: _classify_io_lane(reference, _io_observation(
        case, strategies[0], config.io_fuel, sink, "io:super",
        backend="super",
    )))
    return OracleReport(case, reference, comparisons, lane_seconds)


# -- transform differentials ---------------------------------------------


def classify_transform_pair(
    before: Expr,
    after: Expr,
    ctx_factory: Optional[Callable[[int], DenoteContext]] = None,
    fuel: int = 30_000,
) -> str:
    """Classify a rewrite ``before -> after`` on closed expressions:
    ``agree`` (identity), ``refinement`` (legitimate, ``⊑``) or
    ``divergence`` (unsound) — the §4.5 verdict, computed directly on
    the two denotations under the chosen semantics."""
    factory = ctx_factory or (lambda f: DenoteContext(fuel=f))
    ctx_a = factory(fuel)
    denoted_before = _safe_denote(before, denote_env(ctx_a), ctx_a)
    ctx_b = factory(fuel)
    denoted_after = _safe_denote(after, denote_env(ctx_b), ctx_b)
    if sem_equal(denoted_before, denoted_after):
        return AGREE
    if refines(denoted_before, denoted_after):
        return REFINEMENT
    return DIVERGENCE


def divergence_predicate(
    case: FuzzCase,
    config: Optional[OracleConfig] = None,
    sink=None,
) -> Callable[[Expr], bool]:
    """The shrink predicate for a divergent case: does the oracle still
    report a genuine divergence on a candidate expression?"""
    from repro.lang.pretty import pretty

    def predicate(expr: Expr) -> bool:
        trial = case.with_expr(expr, pretty(expr))
        return run_oracle(trial, config, sink).verdict == DIVERGENCE

    return predicate


def transform_divergence_predicate(
    rule: Transformation,
    ctx_factory: Optional[Callable[[int], DenoteContext]] = None,
    fuel: int = 30_000,
) -> Callable[[Expr], bool]:
    """The shrink predicate for an unsound transformation: does
    applying ``rule`` everywhere still change the denotation
    illegally?"""

    def predicate(expr: Expr) -> bool:
        rewritten = rewrite_everywhere(expr, rule)
        if rewritten == expr:
            return False
        return (
            classify_transform_pair(expr, rewritten, ctx_factory, fuel)
            == DIVERGENCE
        )

    return predicate
