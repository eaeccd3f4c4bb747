"""CLI tests: every subcommand through main()."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDenote:
    def test_simple(self, capsys):
        code, out, _err = run_cli(capsys, "denote", "1 + 2")
        assert code == 0
        assert out.strip() == "Ok 3"

    def test_exception_set(self, capsys):
        _code, out, _ = run_cli(
            capsys, "denote", '(1 `div` 0) + error "Urk"'
        )
        assert "DivideByZero" in out and "Urk" in out

    def test_fixed_order_semantics(self, capsys):
        _code, out, _ = run_cli(
            capsys,
            "denote",
            '(1 `div` 0) + error "Urk"',
            "--semantics",
            "fixed-order",
        )
        assert "DivideByZero" in out and "Urk" not in out


class TestEval:
    def test_normal(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "sum [1, 2, 3]")
        assert code == 0
        assert out.strip() == "6"

    def test_strategy_changes_exception(self, capsys):
        _c, left, _ = run_cli(
            capsys, "eval", '(1 `div` 0) + error "Urk"'
        )
        _c, right, _ = run_cli(
            capsys,
            "eval",
            '(1 `div` 0) + error "Urk"',
            "--strategy",
            "right-to-left",
        )
        assert "DivideByZero" in left
        assert "Urk" in right

    def test_shuffled_strategy(self, capsys):
        code, _out, _ = run_cli(
            capsys, "eval", "1 + 1", "--strategy", "shuffled:3"
        )
        assert code == 0

    def test_unknown_strategy(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "eval", "1", "--strategy", "nope")

    def test_lazy_structure_rendering(self, capsys):
        _c, out, _ = run_cli(capsys, "eval", "[1 `div` 0, 2]")
        assert "<raise DivideByZero>" in out


class TestRetiredOptions:
    """``compiled`` is no backend and ``--profile-in`` no option: each
    is a usage error (exit 2) naming what is left."""

    @pytest.mark.parametrize("command", [["eval", "1"], ["serve"]])
    def test_compiled_backend_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--backend", "compiled"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'compiled'" in err
        assert "'ast', 'super'" in err

    def test_profile_in_is_a_usage_error(self, capsys, tmp_path):
        script = tmp_path / "hi.hs"
        script.write_text('main = putStr "hi"\n')
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(script), "--profile-in", "x"])
        assert exit_info.value.code == 2
        assert "--profile-in" in capsys.readouterr().err


class TestLaw:
    def test_identity_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "law", "a + b", "b + a")
        assert code == 0
        assert "identity" in out

    def test_unsound_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "law", "a + b", "b + a", "--semantics", "fixed-order"
        )
        assert code == 1
        assert "unsound" in out

    def test_function_vars(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "law",
            "(\\x -> f x) a",
            "f a",
            "--functions",
            "f",
        )
        assert code == 0
        assert "identity" in out


class TestTrace:
    def test_enumerates(self, capsys):
        _c, out, _ = run_cli(
            capsys,
            "trace",
            "getException (1 `div` 0) >>= (\\r -> returnIO r)",
        )
        assert "ok" in out

    def test_branching(self, capsys):
        _c, out, _ = run_cli(
            capsys,
            "trace",
            "getException ((1 `div` 0) + raise Overflow) >>= "
            "(\\r -> case r of { OK v -> putChar 'k'; "
            "Bad e -> case e of { DivideByZero -> putChar 'd'; "
            "_ -> putChar 'o' } })",
        )
        assert "!d" in out and "!o" in out


class TestOptimise:
    def test_beta(self, capsys):
        _c, out, _ = run_cli(
            capsys, "optimise", "(\\x -> x + 1) 2", "--level", "O1"
        )
        assert out.strip() == "2 + 1"

    def test_o0_echo(self, capsys):
        _c, out, _ = run_cli(
            capsys, "optimise", "a + b", "--level", "O0"
        )
        assert out.strip() == "a + b"


class TestFileCommands:
    def test_run_program(self, capsys, tmp_path):
        script = tmp_path / "hello.hs"
        script.write_text('main = putStr "hi"\n')
        code, out, _ = run_cli(capsys, "run", str(script))
        assert code == 0
        assert out == "hi"

    def test_run_uncaught_exit_code(self, capsys, tmp_path):
        script = tmp_path / "boom.hs"
        script.write_text("main = putStr (showInt (1 `div` 0))\n")
        code, _out, err = run_cli(capsys, "run", str(script))
        assert code == 1
        assert "DivideByZero" in err

    def test_run_with_stdin(self, capsys, tmp_path):
        script = tmp_path / "echo.hs"
        script.write_text(
            "main = getChar >>= (\\c -> putChar c)\n"
        )
        code, out, _ = run_cli(
            capsys, "run", str(script), "--stdin", "z"
        )
        assert out == "z"

    def test_typecheck_file(self, capsys, tmp_path):
        script = tmp_path / "mod.hs"
        script.write_text("double x = x + x\n")
        code, out, _ = run_cli(capsys, "typecheck", str(script))
        assert code == 0
        assert "double :: Int -> Int" in out


class TestDenoteDeep:
    def test_deep_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "denote", "[1, 2 `div` 0, 3]", "--deep"
        )
        assert code == 0
        assert out.strip() == "[1, <Bad {DivideByZero}>, 3]"

    def test_shallow_default(self, capsys):
        _c, out, _ = run_cli(capsys, "denote", "[1, 2]")
        assert "Cons" in out


class TestProfile:
    def test_table_default(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "sum [1, 2, 3]")
        assert code == 0
        assert "outcome  6" in out
        assert "machine stats" in out
        assert "steps" in out

    def test_json_format(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "profile", "1 + 2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["outcome"] == "3"
        assert data["machine_stats"]["steps"] == data["events"]["step"]

    def test_denote_layer(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile",
            "(1 `div` 0) + raise Overflow",
            "--layer",
            "denote",
        )
        assert code == 0
        assert "DivideByZero" in out
        assert "set-width histogram" in out

    def test_both_layers(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "1 + 2", "--layer", "both"
        )
        assert code == 0
        assert "machine stats" in out
        assert "denotational stats" in out

    def test_trace_file(self, capsys, tmp_path):
        from repro.obs import read_trace

        path = str(tmp_path / "out.jsonl")
        code, out, _ = run_cli(
            capsys, "profile", "1 + 2", "--trace", path
        )
        assert code == 0
        assert path in out
        records = read_trace(path)
        assert any(r["event"] == "step" for r in records)

    def test_strategy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile",
            '(1 `div` 0) + error "Urk"',
            "--strategy",
            "right-to-left",
        )
        assert code == 0
        assert "Urk" in out


class TestLawTypedConvention:
    def test_case_switch_via_cli(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "law",
            "case x of { Tuple2 a b -> "
            "case y of { Tuple2 s t -> a + s } }",
            "case y of { Tuple2 s t -> "
            "case x of { Tuple2 a b -> a + s } }",
        )
        assert code == 0
        assert "identity" in out

    def test_plain_disables_convention(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "law",
            "case x of { Tuple2 a b -> a }",
            "case x of { Tuple2 a b -> a }",
            "--plain",
        )
        # Reflexive, so still identity even with scalar x.
        assert code == 0


class TestFuzz:
    def test_bounded_run_json(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "fuzz", "--iterations", "25", "--seed", "0",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["iterations"] == 25
        assert data["findings"] == []
        assert data["machine"]["steps"] > 0
        assert set(data["verdicts"]) <= {"agree", "refinement"}
        assert sum(data["case_steps"]["buckets"]) == 25
        assert data["timing"]["cases_per_second"] > 0
        assert data["timing"]["lane_seconds"]["reference"] > 0

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--iterations", "10", "--seed", "4",
        )
        assert code == 0
        assert "verdicts:" in out
        assert "machine:" in out

    def test_replay_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--replay",
            "tests/fuzz/corpus/regressions.jsonl",
        )
        assert code == 0
        assert "0 mismatches" in out


class TestTop:
    def test_unreachable_service_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "top", "--url", "http://127.0.0.1:1",
            "--iterations", "1", "--no-clear",
        )
        assert code == 1
        assert "unreachable" in out


class TestExplain:
    def test_distinct_raise_sites_per_member(self, capsys, tmp_path):
        script = tmp_path / "two.hs"
        script.write_text('main = (1 `div` 0) + error "boom"\n')
        code, out, _ = run_cli(capsys, "explain", str(script))
        assert code == 0
        # Each member prints its own raise site, and they differ.
        assert "DivideByZero raised at 1:9-18" in out
        assert "UserError 'boom' raised at" in out
        sites = {
            line.rsplit("raised at ", 1)[1].split()[0]
            for line in out.splitlines()
            if "raised at" in line
        }
        assert len(sites) == 2
        assert "observed:" in out

    def test_expression_entry(self, capsys, tmp_path):
        script = tmp_path / "expr.hs"
        script.write_text("main = sum [1, 2 `div` 0, 3]\n")
        code, out, _ = run_cli(capsys, "explain", str(script))
        assert code == 0
        assert "DivideByZero" in out

    def test_normal_value_reported(self, capsys, tmp_path):
        script = tmp_path / "ok.hs"
        script.write_text("main = 1 + 2\n")
        code, out, _ = run_cli(capsys, "explain", str(script))
        assert code == 0
        assert "no exception observed" in out

    def test_compiled_backend(self, capsys, tmp_path):
        script = tmp_path / "two.hs"
        script.write_text('main = (1 `div` 0) + error "boom"\n')
        code, out, _ = run_cli(
            capsys, "explain", str(script), "--backend", "super"
        )
        assert code == 0
        assert "DivideByZero" in out


class TestProfileAttribution:
    def test_attribution_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "sum [1, 2, 3]", "--attribution"
        )
        assert code == 0
        assert "span attribution" in out

    def test_flame_writes_folded_stacks(self, capsys, tmp_path):
        path = str(tmp_path / "out.folded")
        code, out, _ = run_cli(
            capsys, "profile", "sum [1, 2, 3]", "--flame", path
        )
        assert code == 0
        assert path in out
        lines = (tmp_path / "out.folded").read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack.startswith("<top>")
            assert int(count) > 0

    def test_compiled_backend_named_in_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "1 + 2", "--backend", "super"
        )
        assert code == 0
        assert "backend  super" in out


class TestChaos:
    def test_default_sweeps_every_backend(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "chaos", "1 + 2", "--limit", "2", "--format", "json"
        )
        assert code == 0
        assert [report["backend"] for report in json.loads(out)] == [
            "ast",
            "super",
        ]

    def test_both_is_retired(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "1 + 2", "--backend", "both"])
        assert exit_info.value.code == 2


class TestBench:
    def test_compare_checked_in_seeds_against_themselves(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--records", "benchmarks/records"
        )
        assert code == 0
        assert "0 regression(s)" in out

    def test_regression_exits_one(self, capsys, tmp_path):
        import json as _json

        seed = _json.loads(
            open("benchmarks/records/BENCH_E1.json").read()
        )
        for row in seed["rows"]:
            for key, value in row.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    row[key] = value * 10 + 1
        (tmp_path / "BENCH_E1.json").write_text(_json.dumps(seed))
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--experiments",
            "E1",
            "--records",
            str(tmp_path),
        )
        assert code == 1
        assert "REGRESSION" in out

    def test_missing_seed_errors(self, capsys, tmp_path, monkeypatch):
        code, _out, err = run_cli(
            capsys,
            "bench",
            "--records",
            "benchmarks/records",
            "--seed-dir",
            str(tmp_path),
        )
        assert code == 1
        assert "--update" in err

    def test_json_format(self, capsys):
        import json as _json

        code, out, _ = run_cli(
            capsys,
            "bench",
            "--records",
            "benchmarks/records",
            "--format",
            "json",
        )
        assert code == 0
        data = _json.loads(out)
        assert data["ok"] is True
