"""Behavioural tests for ``repro.obs.profile.profile_source``."""

import json

import pytest

from repro.obs import EXCSET_JOIN, STEP, read_trace
from repro.obs.profile import ProfileReport, profile_source


class TestMachineLayer:
    def test_basic_report(self):
        report = profile_source("sum [1, 2, 3]")
        assert report.layer == "machine"
        assert report.outcome == "6"
        assert report.machine_stats is not None
        assert report.machine_stats["steps"] > 0
        # The sink saw exactly what the machine counted.
        assert report.events[STEP] == report.machine_stats["steps"]
        assert {"parse", "prelude-env", "machine-eval"} <= set(
            report.phases
        )

    def test_exceptional_outcome(self):
        report = profile_source("1 `div` 0")
        assert "DivideByZero" in report.outcome

    def test_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        report = profile_source("1 + 2", trace=path)
        records = read_trace(path)
        steps = [r for r in records if r["event"] == STEP]
        assert len(steps) == report.machine_stats["steps"]
        assert report.trace_path == path


class TestDenoteLayer:
    def test_denote_report(self):
        report = profile_source(
            "(1 `div` 0) + raise Overflow", layer="denote"
        )
        assert report.machine_stats is None
        assert "DivideByZero" in report.denotation
        assert "Overflow" in report.denotation
        assert report.denote_stats["steps"] > 0
        assert report.denote_stats["excset_joins"] >= 1
        # A two-exception union lands in the width histogram.
        assert 2 in report.set_width_histogram

    def test_both_layers(self):
        report = profile_source("1 + 2", layer="both")
        assert report.outcome == "3"
        assert report.denotation == "Ok 3"
        assert report.machine_stats is not None
        assert report.denote_stats is not None

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            profile_source("1", layer="compile")


class TestRendering:
    def test_json_is_valid_and_complete(self):
        report = profile_source("1 + 2")
        data = json.loads(report.to_json())
        assert data["source"] == "1 + 2"
        assert data["outcome"] == "3"
        assert data["machine_stats"]["steps"] == report.events[STEP]

    def test_table_mentions_key_sections(self):
        table = profile_source("1 + 2", layer="both").to_table()
        assert "machine stats" in table
        assert "denotational stats" in table
        assert "events" in table
        assert "phases (seconds)" in table

    def test_report_is_plain_dataclass(self):
        report = ProfileReport(source="x", layer="machine")
        assert report.as_dict()["source"] == "x"


class TestCompiledBackendProfile:
    """``repro profile --backend super``: the compiled backend's report
    names its backend and reports exactly the AST walker's numbers."""

    SOURCE = (
        "let { fib = \\n -> if n < 2 then n "
        "else fib (n - 1) + fib (n - 2) } in fib 9"
    )

    def test_report_names_its_backend(self):
        ast = profile_source(self.SOURCE, backend="ast")
        compiled = profile_source(self.SOURCE, backend="super")
        assert ast.backend == "ast"
        assert compiled.backend == "super"
        assert "backend  super" in compiled.to_table()
        assert compiled.as_dict()["backend"] == "super"

    def test_counters_match_ast_exactly(self):
        ast = profile_source(self.SOURCE, backend="ast")
        compiled = profile_source(self.SOURCE, backend="super")
        assert ast.machine_stats == compiled.machine_stats
        assert ast.events == compiled.events
        assert ast.outcome == compiled.outcome

    def test_attribution_matches_ast_exactly(self):
        ast = profile_source(
            self.SOURCE, backend="ast", attribution=True
        )
        compiled = profile_source(
            self.SOURCE, backend="super", attribution=True
        )
        assert ast.span_totals == compiled.span_totals
        assert ast.span_totals  # attribution actually ran

    def test_flame_output_identical(self, tmp_path):
        paths = {}
        for backend in ("ast", "super"):
            path = tmp_path / f"{backend}.folded"
            report = profile_source(
                self.SOURCE, backend=backend, flame=str(path)
            )
            assert report.flame_path == str(path)
            paths[backend] = path.read_text()
        assert paths["ast"] == paths["super"]
        assert paths["ast"].strip(), "folded output is empty"

    def test_attribution_off_by_default(self):
        report = profile_source(self.SOURCE)
        assert report.span_totals is None
        assert report.flame_path is None
        assert "span attribution" not in report.to_table()
