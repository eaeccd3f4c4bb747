"""Tests for the interrupt-schedule explorer (repro.chaos.explore)."""

import pytest

from repro.chaos.explore import (
    delivery_points,
    plant_unsound,
    self_test,
    sweep_source,
)
from repro.core.excset import HEAP_OVERFLOW, TIMEOUT
from repro.machine import BACKENDS


class TestDeliveryPoints:
    def test_default_is_every_step(self):
        assert delivery_points(5) == [1, 2, 3, 4, 5]

    def test_zero_steps_is_empty(self):
        assert delivery_points(0) == []

    def test_limit_keeps_a_prefix(self):
        assert delivery_points(100, limit=3) == [1, 2, 3]

    def test_sample_includes_both_edges(self):
        points = delivery_points(1000, sample=10)
        assert points[0] == 1
        assert points[-1] == 1000
        assert len(points) <= 12  # 10 strided + forced edges

    def test_sample_larger_than_total_checks_everything(self):
        assert delivery_points(5, sample=50) == [1, 2, 3, 4, 5]


class TestSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_small_expression_is_sound_everywhere(self, backend):
        report = sweep_source("1 + 2 * 3", backend=backend)
        assert report.ok
        assert report.baseline == "Normal(7)"
        assert report.points_checked == report.baseline_steps

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptional_baseline_is_sound_everywhere(self, backend):
        # A program whose uninterrupted outcome is itself exceptional:
        # every interrupted run must observe the injected exception
        # (the interrupt always lands before the raise completes the
        # run, or the outcome equals the baseline).
        report = sweep_source("(1 `div` 0) + 2", backend=backend)
        assert report.ok

    def test_injected_exception_is_configurable(self):
        report = sweep_source("1 + 2", exc=HEAP_OVERFLOW)
        assert report.ok
        assert report.exc == "HeapOverflow"

    def test_sampled_sweep_checks_fewer_points(self):
        full = sweep_source("1 + 2 * 3")
        sampled = sweep_source("1 + 2 * 3", sample=2)
        assert sampled.ok
        assert sampled.points_checked < full.points_checked

    def test_report_round_trips_to_dict(self):
        report = sweep_source("1 + 2", exc=TIMEOUT, limit=3)
        data = report.as_dict()
        assert data["ok"] is True
        assert data["exc"] == "Timeout"
        assert data["points_checked"] == 3
        assert data["violations"] == []

    def test_backends_agree_on_baseline_steps(self):
        ast = sweep_source("1 + 2 * 3", backend="ast", limit=1)
        fused = sweep_source("1 + 2 * 3", backend="super", limit=1)
        assert ast.baseline_steps == fused.baseline_steps
        assert ast.baseline == fused.baseline


class TestPlantedUnsound:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_self_test_catches_the_plant(self, backend):
        caught, report = self_test(backend=backend)
        assert caught
        assert len(report.violations) == 1
        assert "chaos-plant" in report.violations[0].observed

    def test_plant_harness_flags_exactly_one_point(self):
        report = sweep_source(
            "1 + 2 * 3", harness=plant_unsound(2)
        )
        assert not report.ok
        assert [v.step for v in report.violations] == [2]
        violation = report.violations[0]
        assert "Exceptional(ControlC)" in violation.expected
        assert "chaos-plant" in violation.observed

    def test_identity_harness_changes_nothing(self):
        report = sweep_source(
            "1 + 2 * 3", harness=lambda _step, outcome: outcome
        )
        assert report.ok

    def test_render_mentions_violations(self):
        report = sweep_source("1 + 2", harness=plant_unsound(1))
        text = report.render()
        assert "VIOLATIONS" in text
        assert "step 1" in text
