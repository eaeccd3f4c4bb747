"""The alloc-fail and latency sweep axes: sound on healthy builds,
and the planted-unsound self-test is caught on every axis — on both
backends — mirroring the interrupt-schedule self-test."""

import pytest

from repro.chaos.explore import (
    SWEEP_AXES,
    self_test,
    sweep_alloc_source,
    sweep_axis,
    sweep_latency_source,
)
from repro.machine import BACKENDS


#: Small but allocation-bearing, so every axis has sweep points.
SOURCE = "let { x = 1 + 2 ; y = x + x } in y * y"


class TestAllocSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sound_on_healthy_build(self, backend):
        report = sweep_alloc_source(SOURCE, backend=backend)
        assert report.ok
        assert report.axis == "alloc"
        assert report.exc == "HeapOverflow"
        assert report.points_checked >= 1

    def test_low_threshold_actually_overflows(self):
        """The sweep must not be vacuous: at threshold 1 the heap
        refuses service and the observed outcome is HeapOverflow."""
        seen = []

        def recorder(threshold, outcome):
            seen.append((threshold, str(outcome)))
            return outcome

        report = sweep_alloc_source(SOURCE, harness=recorder)
        assert report.ok
        assert any("HeapOverflow" in rendered for _, rendered in seen)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_planted_unsound_caught(self, backend):
        caught, report = self_test(backend=backend, axis="alloc")
        assert caught, report.as_dict()
        assert report.axis == "alloc"
        assert len(report.violations) == 1


class TestLatencySweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sound_on_healthy_build(self, backend):
        report = sweep_latency_source(SOURCE, backend=backend)
        assert report.ok
        assert report.axis == "latency"
        # Latency sweeps every step of the baseline.
        assert report.points_checked == report.baseline_steps

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_planted_unsound_caught(self, backend):
        caught, report = self_test(backend=backend, axis="latency")
        assert caught, report.as_dict()
        assert report.axis == "latency"

    def test_latency_demands_exact_baseline(self):
        """A harness that perturbs the outcome at one stall point is
        flagged even though the perturbed outcome would be sound on
        the interrupt axis — latency licenses no deviation at all."""
        from repro.chaos.explore import plant_unsound

        report = sweep_latency_source(
            SOURCE, harness=plant_unsound(2)
        )
        assert not report.ok
        assert [v.step for v in report.violations] == [2]


class TestAxisDispatch:
    def test_all_axes_reachable(self):
        for axis in SWEEP_AXES:
            report = sweep_axis(axis, SOURCE)
            assert report.ok
            assert report.axis == axis

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep_axis("cosmic-rays", SOURCE)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupt_self_test_still_caught(self, backend):
        """The original axis keeps its planted-unsound guarantee after
        the axis refactor."""
        caught, report = self_test(backend=backend, axis="interrupt")
        assert caught, report.as_dict()
        assert report.axis == "interrupt"

    def test_as_dict_carries_axis(self):
        data = sweep_axis("latency", SOURCE).as_dict()
        assert data["axis"] == "latency"
        assert data["ok"] is True
