"""Raise provenance: recorded alongside the semantics, never inside it.

Locks in the two halves of the provenance contract
(docs/OBSERVABILITY.md, "Provenance & attribution"):

* **fidelity** — under ``observe(..., provenance=True)`` an
  ``Exceptional`` outcome carries the member's raise site, force
  chain and scheduling indices, including through memoised re-raises
  (§3.3's raise-overwriting) and blackhole-detected loops;
* **invisibility** — provenance is ``compare=False`` metadata: outcome
  equality, ``Exc``/``ExcSet`` equality and oracle verdicts are
  byte-identical with recording on or off, and a machine without a
  recorder doesn't even construct the records.
"""

import pytest

from repro.api import compile_expr
from repro.core.denote import DenoteContext
from repro.core.excset import Exc, ExcSet
from repro.lang.ast import Span
from repro.machine import Machine
from repro.machine.observe import Exceptional, observe
from repro.machine.strategy import LeftToRight, RightToLeft
from repro.obs.provenance import (
    CHAIN_LIMIT,
    ExcOrigins,
    ProvenanceRecorder,
    RaiseProvenance,
    format_provenance,
)
from repro.prelude.loader import machine_env
from tests.conftest import LOWERINGS, prepare

TWO_FAULTS = '(1 `div` 0) + error "boom"'

BOTH = pytest.mark.parametrize("backend", LOWERINGS)


def run(source, backend="ast", strategy=None, provenance=True, fuel=200_000):
    machine, program, env = prepare(
        source, backend, strategy=strategy, fuel=fuel
    )
    return observe(program, env=env, machine=machine, provenance=provenance)


class TestRecording:
    @BOTH
    def test_raise_site_span(self, backend):
        outcome = run(TWO_FAULTS, backend)
        assert isinstance(outcome, Exceptional)
        assert outcome.exc == Exc("DivideByZero")
        record = outcome.provenance
        assert isinstance(record, RaiseProvenance)
        assert record.exc_name == "DivideByZero"
        assert record.span == Span(1, 2, 1, 11)

    @BOTH
    def test_strategy_changes_member_and_site(self, backend):
        left = run(TWO_FAULTS, backend, strategy=LeftToRight())
        right = run(TWO_FAULTS, backend, strategy=RightToLeft())
        assert left.exc != right.exc
        assert left.provenance.span != right.provenance.span

    @BOTH
    def test_force_chain_records_demanding_spans(self, backend):
        # The raise happens while forcing the list element demanded by
        # sum: the chain must mention an in-flight force.
        outcome = run("sum [1, 2 `div` 0, 3]", backend)
        assert isinstance(outcome, Exceptional)
        record = outcome.provenance
        assert record is not None
        assert len(record.chain) >= 1
        assert record.force_depth >= 1

    @BOTH
    def test_memoised_reraise_keeps_original_provenance(self, backend):
        # `x` raises once; the second demand re-raises from the
        # overwritten cell (§3.3) and must carry the ORIGINAL record.
        source = "let { x = 1 `div` 0 } in (x + 0) + (x + 0)"
        outcome = run(source, backend)
        assert isinstance(outcome, Exceptional)
        assert outcome.provenance is not None
        assert outcome.provenance.exc_name == "DivideByZero"

    @BOTH
    def test_blackhole_nontermination_is_annotated(self, backend):
        outcome = run("let { x = x + 1 } in x", backend)
        assert isinstance(outcome, Exceptional)
        assert outcome.exc.name == "NonTermination"
        assert outcome.provenance is not None

    @BOTH
    def test_pattern_match_failure_site(self, backend):
        outcome = run("case Just 1 of { Nothing -> 0 }", backend)
        assert isinstance(outcome, Exceptional)
        assert outcome.exc.name == "PatternMatchFail"
        assert outcome.provenance is not None

    def test_chain_is_truncated(self):
        recorder = ProvenanceRecorder()
        recorder.stack.extend(
            Span(1, i, 1, i + 1) for i in range(1, 30)
        )

        class _Stats:
            force_depth = 29
            prim_ops = 0

        record = recorder.make(Exc("Overflow"), None, _Stats())
        assert len(record.chain) == CHAIN_LIMIT


class TestInvisibility:
    def test_exceptional_equality_ignores_provenance(self):
        bare = Exceptional(Exc("DivideByZero"))
        annotated = Exceptional(
            Exc("DivideByZero"),
            provenance=RaiseProvenance("DivideByZero", Span(1, 1, 1, 2)),
        )
        assert bare == annotated
        assert str(bare) == str(annotated)

    @BOTH
    def test_outcome_identical_with_recording_on_and_off(self, backend):
        on = run(TWO_FAULTS, backend, provenance=True)
        off = run(TWO_FAULTS, backend, provenance=False)
        assert on == off
        assert off.provenance is None

    @BOTH
    def test_counters_identical_with_recording_on_and_off(self, backend):
        snapshots = []
        for provenance in (False, True):
            machine, program, env = prepare("sum [1, 2 `div` 0, 3]", backend)
            observe(program, env=env, machine=machine, provenance=provenance)
            snapshots.append(machine.stats.snapshot().as_dict())
        assert snapshots[0] == snapshots[1]

    def test_recorder_detached_after_observe(self):
        machine = Machine()
        observe(
            compile_expr("1 `div` 0"),
            env=machine_env(machine),
            machine=machine,
            provenance=True,
        )
        assert machine._prov is None

    def test_off_by_default(self):
        machine = Machine()
        assert machine._prov is None
        outcome = observe(
            compile_expr("1 `div` 0"),
            env=machine_env(machine),
            machine=machine,
        )
        assert outcome.provenance is None

    def test_exc_and_excset_equality_untouched(self):
        # Provenance lives on outcomes and Python exceptions, never on
        # the semantic values: Exc has no provenance attribute, so the
        # lattice and oracle comparisons cannot see it.
        exc = Exc("DivideByZero")
        assert not hasattr(exc, "provenance")
        assert ExcSet.of(exc) == ExcSet.of(Exc("DivideByZero"))


class TestFormatting:
    def test_format_with_record(self):
        record = RaiseProvenance(
            "DivideByZero",
            span=Span(1, 2, 1, 11),
            chain=(Span(1, 1, 1, 20),),
            force_depth=1,
            decision_index=3,
        )
        lines = format_provenance(Exc("DivideByZero"), record)
        assert lines[0] == "DivideByZero raised at 1:2-11"
        assert "forced from 1:1-20" in lines[1]
        assert "force depth 1" in lines[-1]
        assert "decision index 3" in lines[-1]

    def test_format_without_record(self):
        lines = format_provenance(Exc("Overflow"), None)
        assert lines == ["Overflow: <no provenance recorded>"]

    def test_user_error_shows_message(self):
        record = RaiseProvenance("UserError", span=None)
        lines = format_provenance(Exc("UserError", "boom"), record)
        assert lines[0] == "UserError 'boom' raised at <unknown>"


class TestDenoteOrigins:
    def test_origins_recorded_per_member(self):
        from repro.api import denote_source

        origins = ExcOrigins()
        ctx = DenoteContext(fuel=200_000, provenance=origins)
        value = denote_source(TWO_FAULTS, ctx=ctx)
        members = {exc.name for exc in value.excs.finite_members()}
        assert members == {"DivideByZero", "UserError"}
        div = next(
            exc for exc in origins.origins if exc.name == "DivideByZero"
        )
        assert str(origins.origin_of(div)) == "1:2-11"

    def test_first_introduction_wins(self):
        origins = ExcOrigins()
        origins.note(Exc("Overflow"), Span(1, 1, 1, 2))
        origins.note(Exc("Overflow"), Span(9, 9, 9, 10))
        assert origins.origin_of(Exc("Overflow")) == Span(1, 1, 1, 2)

    def test_denotation_unchanged_by_origins(self):
        from repro.api import denote_source

        plain = denote_source(TWO_FAULTS)
        tracked = denote_source(
            TWO_FAULTS,
            ctx=DenoteContext(fuel=200_000, provenance=ExcOrigins()),
        )
        assert plain == tracked
