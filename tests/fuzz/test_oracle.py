"""The differential oracle: known identity / refinement / unsound
triples, lane classification, and seed recording."""

from repro.api import compile_expr
from repro.baselines.fixed_order import fixed_order_ctx
from repro.fuzz.gen import FuzzCase
from repro.fuzz.oracle import (
    AGREE,
    DIVERGENCE,
    REFINEMENT,
    SKIPPED,
    OracleConfig,
    classify_transform_pair,
    run_oracle,
    transform_divergence_predicate,
)
from repro.lang.pretty import pretty
from repro.transform.pedantic import DropSeqOnNonBottom


def case_of(source: str, kind: str = "pure", stdin: str = "") -> FuzzCase:
    expr = compile_expr(source)
    return FuzzCase(
        seed=0, kind=kind, expr=expr, source=pretty(expr), stdin=stdin
    )


def lane_verdicts(report) -> dict:
    return {c.lane: c.verdict for c in report.comparisons}


class TestPureLattice:
    def test_identity_program_agrees_everywhere(self):
        report = run_oracle(case_of("1 + 2"))
        assert report.verdict == AGREE
        assert set(lane_verdicts(report).values()) == {AGREE}

    def test_two_member_set_is_refinement_not_divergence(self):
        """The paper's Section 3.4 program: every machine strategy
        observes *one member* of {DivideByZero, UserError}."""
        report = run_oracle(
            case_of('(1 `div` 0) + (raise (UserError "Urk"))')
        )
        assert report.verdict == REFINEMENT
        verdicts = lane_verdicts(report)
        assert all(
            v == REFINEMENT
            for lane, v in verdicts.items()
            # Semantic lanes only: the warm-fork lanes compare fork vs
            # cold start (not machine vs denotation), and both paths
            # observing the same member is their AGREE.
            if lane.startswith("machine:")
            and not lane.startswith("machine:warm-fork")
        )

    def test_single_member_set_agrees(self):
        report = run_oracle(case_of("seq (raise DivideByZero) 5"))
        assert report.verdict == AGREE

    def test_exval_increased_strictness_is_refinement(self):
        """Section 2.2's first documented flaw: the encoding checks
        arguments when passed, so a lazily discarded exception
        surfaces.  Legal, never a divergence."""
        report = run_oracle(case_of("(\\w -> 3) (1 `div` 0)"))
        verdicts = lane_verdicts(report)
        assert verdicts["exval"] == REFINEMENT
        assert report.verdict == REFINEMENT

    def test_prelude_calls_skip_the_exval_lane(self):
        """No encoded prelude exists; the lane must skip, not produce
        a false positive (found by the fuzzer during bring-up)."""
        report = run_oracle(case_of("sum (Cons 1 Nil)"))
        assert lane_verdicts(report)["exval"] == SKIPPED
        assert report.verdict == AGREE

    def test_tight_knot_is_never_a_divergence(self):
        report = run_oracle(case_of("let { loop = loop + 1 } in loop"))
        assert report.verdict in (AGREE, REFINEMENT)

    def test_pattern_match_failure_agrees(self):
        report = run_oracle(case_of("case Nothing of { Just v -> v }"))
        assert report.verdict == AGREE

    def test_shuffled_seed_recorded_in_observation(self):
        """The historic irreproducibility bug: a shuffled lane's
        observation must carry the strategy seed so any disagreement
        can be re-run."""
        report = run_oracle(case_of("1 + 2"))
        shuffled = [
            c
            for c in report.comparisons
            if "shuffled" in c.lane and c.lane.startswith("machine:")
        ]
        assert shuffled, "no shuffled lanes ran"
        for comparison in shuffled:
            assert comparison.observation.seed is not None
            assert (
                comparison.observation.to_dict()["seed"]
                == comparison.observation.seed
            )

    def test_report_to_dict_is_json_ready(self):
        import json

        report = run_oracle(case_of("1 + 2"))
        encoded = json.dumps(report.to_dict())
        assert "verdict" in encoded


class TestIOLattice:
    def test_plain_output_agrees(self):
        report = run_oracle(case_of('putStr "ok"', kind="io"))
        assert report.verdict == AGREE

    def test_get_exception_on_a_set_agrees(self):
        """An exception-agnostic consumer prints the same constant no
        matter which member each strategy observes."""
        src = (
            "bindIO (getException ((1 `div` 0) + (raise Overflow))) "
            '(\\r -> case r of { OK v -> putStr (showInt v); '
            'Bad e -> seq e (putStr "caught") })'
        )
        report = run_oracle(case_of(src, kind="io"))
        assert report.verdict == AGREE

    def test_catch_forcing_handler_agrees(self):
        src = "catchIO (ioError DivideByZero) (\\e -> seq e (returnIO 1))"
        report = run_oracle(case_of(src, kind="io"))
        assert report.verdict == AGREE


class TestTransformPairs:
    """classify_transform_pair is the §4.5 verdict on a rewrite."""

    def test_identity_pair(self):
        before = compile_expr("1 + 2")
        after = compile_expr("3")
        assert classify_transform_pair(before, after) == AGREE

    def test_refinement_pair(self):
        """Narrowing the exception set is ⊑ (§4.5): legal."""
        before = compile_expr("(1 `div` 0) + (raise Overflow)")
        after = compile_expr("1 `div` 0")
        assert classify_transform_pair(before, after) == REFINEMENT

    def test_unsound_pair(self):
        """Dropping a forced exception changes Bad to Ok: unsound."""
        before = compile_expr("seq (raise DivideByZero) 5")
        after = compile_expr("5")
        assert classify_transform_pair(before, after) == DIVERGENCE

    def test_fixed_order_context(self):
        """Under fixed order, swapping operands picks a different
        member: unsound there, identity under imprecise — the paper's
        central comparison."""
        before = compile_expr("(1 `div` 0) + (raise Overflow)")
        after = compile_expr("(raise Overflow) + (1 `div` 0)")
        assert classify_transform_pair(before, after) == AGREE
        assert (
            classify_transform_pair(
                before, after, ctx_factory=fixed_order_ctx
            )
            == DIVERGENCE
        )


class TestTransformPredicate:
    def test_fires_on_unsound_rule(self):
        predicate = transform_divergence_predicate(DropSeqOnNonBottom())
        assert predicate(compile_expr("seq (raise DivideByZero) 5"))

    def test_quiet_when_rule_does_not_fire(self):
        predicate = transform_divergence_predicate(DropSeqOnNonBottom())
        assert not predicate(compile_expr("1 + 2"))

    def test_quiet_when_rewrite_is_legal(self):
        predicate = transform_divergence_predicate(DropSeqOnNonBottom())
        assert not predicate(compile_expr("seq 1 5"))


class TestConfig:
    def test_per_case_shuffle_varies_with_seed(self):
        config = OracleConfig()
        a = [s.name for s in config.strategies(1)]
        b = [s.name for s in config.strategies(2)]
        assert a != b

    def test_extra_shuffled_can_be_disabled(self):
        config = OracleConfig(extra_shuffled=False)
        assert len(list(config.strategies(1))) == len(
            list(config.strategies(2))
        )
        report = run_oracle(case_of("1 + 2"), config)
        assert "machine:shuffled(per-case)" not in lane_verdicts(report)

    def test_fuel_asymmetry_default(self):
        """The false-positive guard: the reference must bottom out
        before any machine lane does."""
        config = OracleConfig()
        assert config.machine_fuel > 4 * config.denote_fuel


class TestWarmLane:
    """The warm-fork parity lane: snapshot fork vs cold start must be
    byte-identical (outcome, counters, trace events) on every case —
    the serving layer's contract (docs/SERVING.md), fuzzed."""

    def test_warm_lane_runs_on_both_backends_by_default(self):
        report = run_oracle(case_of("sum (enumFromTo 1 5)"))
        verdicts = lane_verdicts(report)
        assert verdicts["machine:warm-fork[ast]"] == AGREE
        assert verdicts["machine:warm-fork[super]"] == AGREE
        assert "machine:warm-fork[compiled]" not in verdicts

    def test_warm_lane_agrees_on_raises_and_imprecision(self):
        for source in (
            "head Nil",
            "1 `div` 0",
            '(1 `div` 0) + (raise (UserError "Urk"))',
        ):
            verdicts = lane_verdicts(run_oracle(case_of(source)))
            assert verdicts["machine:warm-fork[ast]"] == AGREE, source

    def test_warm_lane_can_be_disabled(self):
        config = OracleConfig(warm_lane=False)
        verdicts = lane_verdicts(run_oracle(case_of("1 + 2"), config))
        assert not any(
            lane.startswith("machine:warm-fork") for lane in verdicts
        )


class TestTierLanes:
    """Both lowering tiers of the ``super`` backend are lanes: the
    closure code a served program runs on first use and the fused
    frames it runs once hot."""

    def test_pure_case_runs_both_tiers(self):
        verdicts = lane_verdicts(run_oracle(case_of("sum (enumFromTo 1 5)")))
        assert verdicts["machine:closure"] == AGREE
        assert verdicts["machine:super"] == AGREE
        assert "machine:compiled" not in verdicts

    def test_tiers_pick_the_default_strategys_member(self):
        report = run_oracle(
            case_of('(1 `div` 0) + (raise (UserError "Urk"))')
        )
        observed = {
            c.lane: c.observation.detail for c in report.comparisons
        }
        assert (
            observed["machine:closure"]
            == observed["machine:super"]
            == observed["machine:left-to-right"]
        )

    def test_io_case_runs_both_tiers(self):
        report = run_oracle(case_of('putStr "ab"', kind="io"))
        verdicts = lane_verdicts(report)
        assert verdicts["io:closure"] == AGREE
        assert verdicts["io:super"] == AGREE
        assert "io:compiled" not in verdicts
