"""Unit tests for the ``repro bench`` comparison engine."""

import json

import pytest

from repro.benchcompare import (
    DEFAULT_SEED_DIR,
    EXPERIMENT_SOURCES,
    compare_records,
    load_records,
)


def _write(dir_path, experiment, rows):
    path = dir_path / f"BENCH_{experiment}.json"
    path.write_text(
        json.dumps({"experiment": experiment, "rows": rows})
    )


class TestLoadRecords:
    def test_loads_bench_files(self, tmp_path):
        _write(tmp_path, "E1", [{"workload": "fib", "steps": 10}])
        _write(tmp_path, "E2", [{"workload": "fib", "ratio": 2.0}])
        (tmp_path / "unrelated.json").write_text("{}")
        records = load_records(str(tmp_path))
        assert set(records) == {"E1", "E2"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_records(str(tmp_path / "nope")) == {}


class TestCompare:
    def test_identical_records_pass(self):
        rows = {"E1": [{"workload": "fib", "steps": 100}]}
        comparison = compare_records(rows, rows)
        assert comparison.ok
        assert not comparison.regressions
        assert comparison.deltas[0].pct == 0.0

    def test_regression_over_threshold_fails(self):
        seed = {"E1": [{"workload": "fib", "steps": 100}]}
        fresh = {"E1": [{"workload": "fib", "steps": 121}]}
        comparison = compare_records(seed, fresh)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.metric == "steps"
        assert delta.pct == 21.0

    def test_within_threshold_passes(self):
        seed = {"E1": [{"workload": "fib", "steps": 100}]}
        fresh = {"E1": [{"workload": "fib", "steps": 119}]}
        assert compare_records(seed, fresh).ok

    def test_improvement_is_not_a_regression(self):
        seed = {"E1": [{"workload": "fib", "steps": 100}]}
        fresh = {"E1": [{"workload": "fib", "steps": 50}]}
        assert compare_records(seed, fresh).ok

    def test_exact_metrics_fail_on_any_growth(self):
        row = {"workload": "served-fib15", "backend": "super"}
        seed = {"E19": [{**row, "served_slow_ticks": 308}]}
        grown = {"E19": [{**row, "served_slow_ticks": 309}]}
        shrunk = {"E19": [{**row, "served_slow_ticks": 300}]}
        (delta,) = compare_records(seed, grown).regressions
        assert delta.metric == "served_slow_ticks"
        assert compare_records(seed, shrunk).ok
        assert compare_records(seed, seed).ok

    @pytest.mark.parametrize(
        "metric",
        [
            "fused_compiles_first_pass",
            "fused_compiles_second_pass",
            "prelude_env_builds",
        ],
    )
    def test_tiered_lowering_counters_fail_on_any_growth(self, metric):
        row = {"workload": "cold-front-end", "backend": "super"}
        counts = {
            "fused_compiles_first_pass": 0,
            "fused_compiles_second_pass": 35,
            "prelude_env_builds": 1,
        }
        seed = {"E16": [{**row, **counts}]}
        grown = {"E16": [{**row, **counts, metric: counts[metric] + 1}]}
        (delta,) = compare_records(seed, grown).regressions
        assert delta.metric == metric
        assert compare_records(seed, seed).ok

    def test_wallclock_fields_never_gate(self):
        seed = {
            "E18": [
                {"workload": "fib", "ast_seconds": 0.01, "speedup": 3.0}
            ]
        }
        fresh = {
            "E18": [
                {"workload": "fib", "ast_seconds": 9.99, "speedup": 0.1}
            ]
        }
        comparison = compare_records(seed, fresh)
        assert comparison.ok
        assert all(not d.gated for d in comparison.deltas)
        assert "(not gated)" in comparison.table()

    def test_zero_seed_turning_nonzero_is_infinite_regression(self):
        seed = {"E1b": [{"workload": "fib", "overhead_pct": 0.0}]}
        fresh = {"E1b": [{"workload": "fib", "overhead_pct": 0.5}]}
        comparison = compare_records(seed, fresh)
        assert not comparison.ok

    def test_rows_matched_by_string_fields(self):
        seed = {
            "E2": [
                {"workload": "fib", "axis": "steps", "native": 10},
                {"workload": "fib", "axis": "code-size", "native": 5},
            ]
        }
        fresh = {
            "E2": [
                {"workload": "fib", "axis": "code-size", "native": 5},
                {"workload": "fib", "axis": "steps", "native": 10},
            ]
        }
        assert compare_records(seed, fresh).ok

    def test_missing_fresh_row_is_a_problem(self):
        seed = {"E1": [{"workload": "fib", "steps": 10}]}
        fresh = {"E1": []}
        comparison = compare_records(seed, fresh)
        assert not comparison.ok
        assert any("missing" in p for p in comparison.problems)

    def test_missing_experiment_is_a_problem(self):
        comparison = compare_records(
            {"E1": [{"workload": "fib", "steps": 10}]}, {}
        )
        assert not comparison.ok

    def test_unseeded_experiment_is_a_problem(self):
        comparison = compare_records(
            {}, {"E99": [{"workload": "fib", "steps": 10}]}
        )
        assert not comparison.ok
        assert any("E99" in p for p in comparison.problems)

    def test_as_dict_is_json_serialisable(self):
        seed = {"E1": [{"workload": "fib", "steps": 100}]}
        fresh = {"E1": [{"workload": "fib", "steps": 130}]}
        payload = json.loads(
            json.dumps(compare_records(seed, fresh).as_dict())
        )
        assert payload["ok"] is False
        assert payload["regressions"][0]["metric"] == "steps"


class TestCheckedInSeeds:
    """The seed records shipped in benchmarks/records/ stay coherent."""

    def test_seeds_exist_for_every_gated_experiment(self):
        records = load_records(DEFAULT_SEED_DIR)
        assert set(records) == set(EXPERIMENT_SOURCES)

    def test_seed_overhead_rows_are_zero(self):
        records = load_records(DEFAULT_SEED_DIR)
        for row in records["E1b"]:
            assert row["overhead_pct"] == 0.0


class TestParallelRuns:
    """``--jobs`` must be a pure speed knob: a parallel run writes
    byte-identical records to a serial one (the determinism gate for
    the parallelised ``repro bench``)."""

    def test_parallel_records_match_serial_exactly(self, tmp_path):
        # Wall-clock fields differ between *any* two runs (that is why
        # the gate never looks at them); every deterministic metric
        # must agree to the digit, and the row/file structure must be
        # identical.
        from repro.benchcompare import _is_wallclock, run_benchmarks

        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        experiments = ["E1", "E19"]
        assert run_benchmarks(str(serial), experiments, jobs=1) == 0
        assert run_benchmarks(str(parallel), experiments, jobs=0) == 0
        serial_files = sorted(p.name for p in serial.iterdir())
        parallel_files = sorted(p.name for p in parallel.iterdir())
        assert serial_files == parallel_files
        assert serial_files == ["BENCH_E1.json", "BENCH_E19.json"]

        def deterministic(directory):
            return {
                experiment: [
                    {
                        k: v
                        for k, v in row.items()
                        if not _is_wallclock(k)
                    }
                    for row in rows
                ]
                for experiment, rows in load_records(
                    str(directory)
                ).items()
            }

        assert deterministic(serial) == deterministic(parallel)

    def test_unknown_experiment_rejected_before_spawning(self, tmp_path):
        import pytest

        from repro.benchcompare import run_benchmarks

        with pytest.raises(ValueError):
            run_benchmarks(str(tmp_path), ["E99"], jobs=4)
