"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run FILE        perform a program's ``main`` (IO) action
eval EXPR       evaluate an expression on the lazy machine
denote EXPR     print the denotation (the exception *set*)
law LHS RHS     classify a law: identity / refinement / unsound
trace EXPR      enumerate every behaviour the §4.4 LTS permits
profile EXPR    run under the tracing/metrics layer (docs/OBSERVABILITY.md)
explain FILE    provenance: where each member of the exception set comes from
bench           re-run the claim benchmarks and diff against the seeds
optimise EXPR   run an optimisation level and pretty-print the result
typecheck FILE  infer and print the types of a module's bindings
fuzz            differential fuzzing: cross-evaluator oracle + shrinker
chaos EXPR      interrupt-schedule explorer: §5.1 soundness at every step
serve           resilient evaluate-as-a-service HTTP daemon
top             live dashboard: poll a daemon's /healthz + /metrics

Examples
--------
    python -m repro denote '(1 `div` 0) + error "Urk"'
    python -m repro eval   '(1 `div` 0) + error "Urk"' --strategy right-to-left
    python -m repro law    'a + b' 'b + a' --semantics fixed-order
    python -m repro run    examples/hello.hs --stdin "x"
    python -m repro profile 'sum [1, 2, 3]' --trace out.jsonl --format json
    python -m repro profile 'fib 12' --flame out.folded --backend super
    python -m repro explain examples/two_faults.hs
    python -m repro bench  --experiments E1b,E18
    python -m repro fuzz   --iterations 500 --seed 0 --format json
    python -m repro fuzz   --replay tests/fuzz/corpus/regressions.jsonl
    python -m repro chaos  'fib 10' --backend all --sample 100
    python -m repro serve  --port 8080 --max-concurrency 4
    python -m repro top    --url http://127.0.0.1:8080 --interval 1
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.api import (
    check_law_sources,
    compile_expr,
    compile_program,
    denote_source,
    observe_source,
    run_io_program,
)
from repro.baselines.fixed_order import fixed_order_ctx, naive_case_ctx
from repro.core.denote import DenoteContext
from repro.io.transition import enumerate_outcomes
from repro.lang.pretty import pretty
from repro.machine.strategy import LeftToRight, RightToLeft, Shuffled

_STRATEGIES = {
    "left-to-right": LeftToRight,
    "right-to-left": RightToLeft,
}

_SEMANTICS = {
    "imprecise": lambda fuel: DenoteContext(fuel=fuel),
    "fixed-order": fixed_order_ctx,
    "naive-case": naive_case_ctx,
}


def _strategy(name: str):
    if name in _STRATEGIES:
        return _STRATEGIES[name]()
    if name.startswith("shuffled:"):
        return Shuffled(int(name.split(":", 1)[1]))
    raise SystemExit(
        f"unknown strategy {name!r} "
        f"(choose from {sorted(_STRATEGIES)} or shuffled:<seed>)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "A Semantics for Imprecise Exceptions (PLDI 1999) — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="perform a program's main action")
    run.add_argument("file")
    run.add_argument("--stdin", default="")
    run.add_argument("--entry", default="main")
    run.add_argument("--strategy", default="left-to-right")
    run.add_argument("--fuel", type=int, default=2_000_000)
    run.add_argument("--typecheck", action="store_true")
    run.add_argument(
        "--backend",
        default="ast",
        choices=["ast", "super"],
        help="machine backend (docs/PERFORMANCE.md)",
    )

    ev = sub.add_parser("eval", help="evaluate on the lazy machine")
    ev.add_argument("expr")
    ev.add_argument("--strategy", default="left-to-right")
    ev.add_argument("--fuel", type=int, default=2_000_000)
    ev.add_argument("--deep", action="store_true")
    ev.add_argument(
        "--backend",
        default="ast",
        choices=["ast", "super"],
        help="machine backend (docs/PERFORMANCE.md)",
    )

    de = sub.add_parser("denote", help="print the denotation")
    de.add_argument("expr")
    de.add_argument("--fuel", type=int, default=200_000)
    de.add_argument(
        "--semantics", default="imprecise", choices=sorted(_SEMANTICS)
    )
    de.add_argument(
        "--deep",
        action="store_true",
        help="force through constructor fields (lurking exceptions "
        "render as <Bad {...}>)",
    )

    law = sub.add_parser(
        "law",
        help="classify lhs -> rhs",
        description=(
            "Laws quantify over well-typed environments.  Variable "
            "naming convention: p/q/r range over Booleans, x/y over "
            "pairs, names passed via --functions over total "
            "functions, everything else over scalars "
            "(ints/bools/Bads/bottom).  Use --plain to disable the "
            "convention."
        ),
    )
    law.add_argument("lhs")
    law.add_argument("rhs")
    law.add_argument(
        "--semantics", default="imprecise", choices=sorted(_SEMANTICS)
    )
    law.add_argument("--functions", default="",
                     help="comma-separated function-valued variables")
    law.add_argument(
        "--plain",
        action="store_true",
        help="disable the p/q/r + x/y typed-variable convention",
    )

    tr = sub.add_parser(
        "trace", help="enumerate permitted IO behaviours"
    )
    tr.add_argument("expr")
    tr.add_argument("--stdin", default="")
    tr.add_argument("--fuel", type=int, default=100_000)

    pro = sub.add_parser(
        "profile",
        help="evaluate with the observability layer attached",
        description=(
            "Run EXPR under a counting trace sink with per-phase "
            "timers, on the lazy machine, the denotational evaluator, "
            "or both.  The event taxonomy and overhead guarantee are "
            "documented in docs/OBSERVABILITY.md."
        ),
    )
    pro.add_argument("expr")
    pro.add_argument("--strategy", default="left-to-right")
    pro.add_argument("--fuel", type=int, default=2_000_000)
    pro.add_argument(
        "--denote-fuel",
        type=int,
        default=200_000,
        help="fuel for the denotational layer (--layer denote/both)",
    )
    pro.add_argument(
        "--layer",
        default="machine",
        choices=["machine", "denote", "both"],
    )
    pro.add_argument(
        "--trace",
        default=None,
        metavar="OUT.jsonl",
        help="stream every event to a JSON Lines file",
    )
    pro.add_argument(
        "--format", default="table", choices=["table", "json"]
    )
    pro.add_argument("--deep", action="store_true")
    pro.add_argument(
        "--backend",
        default="ast",
        choices=["ast", "super"],
        help="machine backend (docs/PERFORMANCE.md)",
    )
    pro.add_argument(
        "--attribution",
        action="store_true",
        help="aggregate machine cost per source span",
    )
    pro.add_argument(
        "--flame",
        default=None,
        metavar="OUT.folded",
        help="write folded stacks (steps per span stack) for "
        "flamegraph viewers; implies --attribution",
    )

    ex = sub.add_parser(
        "explain",
        help="provenance for every member of an exception set",
        description=(
            "Denote FILE to its full exception set, then observe it "
            "under several strategies with provenance recording on.  "
            "Prints, per member, the raise site (source span), an "
            "abbreviated force chain, and the strategy that surfaced "
            "it; members no sampled strategy surfaced are listed with "
            "their denotational introduction site instead "
            "(docs/OBSERVABILITY.md, 'Provenance & attribution')."
        ),
    )
    ex.add_argument("file", help="file containing an expression or module")
    ex.add_argument("--entry", default="main",
                    help="entry binding when FILE is a module")
    ex.add_argument("--fuel", type=int, default=2_000_000)
    ex.add_argument("--denote-fuel", type=int, default=200_000)
    ex.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="number of shuffled strategies to sample besides "
        "left-to-right and right-to-left",
    )
    ex.add_argument(
        "--backend",
        default="ast",
        choices=["ast", "super"],
        help="machine backend (docs/PERFORMANCE.md)",
    )

    be = sub.add_parser(
        "bench",
        help="re-run claim benchmarks, diff against checked-in seeds",
        description=(
            "Run the E1/E1b/E2/E16/E18 benchmark files into a fresh "
            "records directory, compare the BENCH_*.json rows against "
            "benchmarks/records/, and exit 1 when a deterministic "
            "metric regressed by more than 20%% — or at all, for "
            "E19's served_slow_ticks (wall-clock fields are reported "
            "but not gated)."
        ),
    )
    be.add_argument(
        "--experiments",
        default="",
        help="comma-separated subset (e.g. E1b,E18); default all",
    )
    be.add_argument(
        "--seed-dir",
        default=None,
        help="seed records directory (default benchmarks/records)",
    )
    be.add_argument(
        "--records",
        default=None,
        metavar="DIR",
        help="compare an existing records directory instead of "
        "re-running the benchmarks",
    )
    be.add_argument(
        "--update",
        action="store_true",
        help="refresh the seed records from this run instead of "
        "comparing",
    )
    be.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments in parallel, one pytest "
        "subprocess each (0 = one worker per experiment); records "
        "and gate verdict are identical to a serial run",
    )
    be.add_argument(
        "--format", default="table", choices=["table", "json"]
    )

    opt = sub.add_parser("optimise", help="apply an optimisation level")
    opt.add_argument("expr")
    opt.add_argument("--level", default="O2")

    tc = sub.add_parser("typecheck", help="infer a module's types")
    tc.add_argument("file")

    fz = sub.add_parser(
        "fuzz",
        help="differential fuzzing across all evaluators",
        description=(
            "Generate seeded random programs and run each through the "
            "denotational reference, the lazy machine under every "
            "strategy, the ExVal encoding, and the fixed-order "
            "baseline, classifying every lane as agree / refinement / "
            "divergence (docs/FUZZING.md).  Genuine divergences are "
            "shrunk and the exit status is non-zero.  With --replay, "
            "re-run a corpus instead and check the recorded verdicts."
        ),
    )
    fz.add_argument("--iterations", type=int, default=None,
                    help="number of cases (default 200 unless --seconds)")
    fz.add_argument("--seconds", type=float, default=None,
                    help="wall-clock budget; combines with --iterations")
    fz.add_argument("--seed", type=int, default=0,
                    help="base seed; case i uses seed+i")
    fz.add_argument("--replay", metavar="CORPUS.jsonl", default=None,
                    help="replay a corpus instead of generating")
    fz.add_argument("--save", metavar="CORPUS.jsonl", default=None,
                    help="append shrunk divergences to this corpus")
    fz.add_argument("--max-depth", type=int, default=5)
    fz.add_argument("--io-fraction", type=float, default=0.25)
    fz.add_argument("--no-fix", action="store_true",
                    help="disable Fix/recursion arms")
    fz.add_argument("--no-io", action="store_true",
                    help="pure programs only")
    fz.add_argument("--no-strings", action="store_true",
                    help="disable string literals and primitives")
    fz.add_argument("--no-prelude", action="store_true",
                    help="disable prelude-calling arms")
    fz.add_argument("--no-catch", action="store_true",
                    help="disable catchIO wrapping in IO programs")
    fz.add_argument("--no-warm-lane", action="store_true",
                    help="disable the warm-fork parity lane (the "
                    "snapshot fork vs cold start differential, "
                    "docs/SERVING.md)")
    fz.add_argument("--no-shrink", action="store_true",
                    help="report divergences unshrunk")
    fz.add_argument("--max-findings", type=int, default=10,
                    help="stop after this many divergences")
    fz.add_argument("--jobs", type=int, default=1,
                    help="shard across N worker processes with "
                    "deterministic per-shard case indices "
                    "(docs/FUZZING.md)")
    fz.add_argument("--guided", action="store_true",
                    help="coverage-guided generation: retarget the "
                    "generator weights from feature-map deficits")
    fz.add_argument("--retarget-every", type=int, default=25,
                    help="guided mode: recompute weights every N "
                    "iterations per shard")
    fz.add_argument("--no-probe", action="store_true",
                    help="skip the per-case interrupt probe")
    fz.add_argument("--probe-sample", type=float, default=1.0,
                    metavar="R",
                    help="probe only a seeded R-fraction of cases "
                    "(0 < R <= 1; selection is a per-case hash of "
                    "the base seed, so it is identical across "
                    "--jobs shardings)")
    fz.add_argument(
        "--format", default="table", choices=["table", "json"]
    )

    ch = sub.add_parser(
        "chaos",
        help="interrupt-schedule explorer (§5.1 soundness)",
        description=(
            "Evaluate EXPR once uninterrupted, then once per delivery "
            "point with an asynchronous exception scheduled exactly "
            "there, asserting that every interrupted run observes "
            "either the uninterrupted outcome or the injected "
            "exception (docs/ROBUSTNESS.md).  --self-test instead "
            "runs the sweep against a deliberately unsound harness "
            "and requires the checker to catch it."
        ),
    )
    ch.add_argument("expr", nargs="?", default=None,
                    help="expression to sweep (or use --file)")
    ch.add_argument("--file", default=None,
                    help="read the expression from a file")
    ch.add_argument(
        "--exc",
        default="ControlC",
        choices=["ControlC", "Timeout", "StackOverflow", "HeapOverflow"],
        help="the asynchronous exception to inject",
    )
    ch.add_argument(
        "--backend",
        default="all",
        choices=["ast", "super", "all"],
        help="backend(s) to sweep: all = every backend",
    )
    ch.add_argument("--fuel", type=int, default=2_000_000)
    ch.add_argument("--limit", type=int, default=None,
                    help="check only the first N delivery points")
    ch.add_argument("--sample", type=int, default=None,
                    help="check N evenly spaced delivery points instead "
                    "of all of them")
    ch.add_argument("--self-test", action="store_true",
                    help="verify the checker catches a planted-unsound "
                    "harness (on every selected --sweep axis)")
    ch.add_argument(
        "--sweep",
        default="interrupt",
        choices=["interrupt", "alloc", "latency", "schedule", "all"],
        help="which fault axis to sweep: interrupt delivery steps, "
        "alloc-fail thresholds, latency-stall placements, "
        "cooperative-scheduler interleavings (slice sizes × rotation "
        "seeds over a built-in mixed-tenant workload — EXPR is "
        "ignored), or all four (docs/ROBUSTNESS.md)",
    )
    ch.add_argument(
        "--format", default="table", choices=["table", "json"]
    )

    sv = sub.add_parser(
        "serve",
        help="resilient evaluate-as-a-service HTTP daemon",
        description=(
            "Serve POST /eval (evaluate an expression — or a "
            '{"programs": [...]} batch — under a per-request resource '
            "governor), GET /healthz (service counters) and GET "
            "/metrics (Prometheus text exposition) on a "
            "stdlib-only threaded HTTP server.  Requests fork a warm "
            "prelude snapshot and repeat programs are served from a "
            "content-addressed compile cache "
            "(docs/SERVING.md); deadlines and allocation caps are "
            "delivered as the paper's Section 5.1 fictitious "
            "exceptions (docs/ROBUSTNESS.md).  Flags and response "
            "fields are generated from repro.serve.schema — the same "
            "source of truth as the documentation."
        ),
    )
    # One source of truth for the flag surface: repro.serve.schema
    # (the sync test pins --help against the docs tables).
    from repro.serve.schema import add_serve_flags

    add_serve_flags(sv)

    tp = sub.add_parser(
        "top",
        help="live dashboard for a running repro serve daemon",
        description=(
            "Poll GET /healthz and GET /metrics on a running daemon "
            "and render a top-style screen: request rate, in-flight, "
            "breaker state, cache hit ratio, governor trips and "
            "latency percentiles re-derived from the exposition's "
            "histogram buckets (docs/OBSERVABILITY.md)."
        ),
    )
    tp.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the daemon (default %(default)s)",
    )
    tp.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default %(default)s)",
    )
    tp.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    tp.add_argument(
        "--no-clear",
        action="store_false",
        dest="clear",
        default=True,
        help="append frames instead of clearing the screen",
    )
    return parser


def _cmd_run(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    result = run_io_program(
        source,
        entry=args.entry,
        stdin=args.stdin,
        strategy=_strategy(args.strategy),
        fuel=args.fuel,
        typecheck=args.typecheck,
        backend=args.backend,
    )
    sys.stdout.write(result.stdout)
    if result.status == "exception":
        print(f"\n*** uncaught exception: {result.exc}", file=sys.stderr)
        return 1
    if result.status == "diverged":
        print("\n*** diverged (fuel exhausted)", file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args) -> int:
    outcome = observe_source(
        args.expr,
        strategy=_strategy(args.strategy),
        fuel=args.fuel,
        deep=args.deep,
        backend=args.backend,
    )
    from repro.machine import Machine, Normal
    from repro.machine.observe import show_value

    if isinstance(outcome, Normal):
        # Re-run to render with a machine in hand (outputs lazily).
        machine = Machine(
            strategy=_strategy(args.strategy),
            fuel=args.fuel,
            backend=args.backend,
        )
        from repro.prelude.loader import machine_env

        value = machine.eval(
            compile_expr(args.expr), machine_env(machine)
        )
        print(show_value(value, machine))
        return 0
    print(str(outcome))
    return 0


def _cmd_denote(args) -> int:
    ctx = _SEMANTICS[args.semantics](args.fuel)
    value = denote_source(args.expr, ctx=ctx)
    if args.deep:
        from repro.core.render import show_semval

        print(show_semval(value))
    else:
        print(str(value))
    return 0


def _cmd_law(args) -> int:
    from repro.core.laws import (
        BOOL_BATTERY,
        PAIR_BATTERY,
        TOTAL_FUNCTION_BATTERY,
    )

    kwargs = {}
    if args.semantics != "imprecise":
        factory = _SEMANTICS[args.semantics]
        kwargs["ctx_factory"] = factory
    if not args.plain:
        var_batteries = {
            "p": BOOL_BATTERY,
            "q": BOOL_BATTERY,
            "r": BOOL_BATTERY,
            "x": PAIR_BATTERY,
            "y": PAIR_BATTERY,
        }
        if args.functions:
            for name in args.functions.split(","):
                name = name.strip()
                if name:
                    var_batteries[name] = TOTAL_FUNCTION_BATTERY
        kwargs["var_batteries"] = var_batteries
    elif args.functions:
        kwargs["function_vars"] = [
            f.strip() for f in args.functions.split(",") if f.strip()
        ]
    report = check_law_sources(
        args.lhs, args.rhs, name=f"{args.lhs} -> {args.rhs}", **kwargs
    )
    print(str(report))
    return 0 if report.holds else 1


def _cmd_trace(args) -> int:
    io_value = denote_source(args.expr, fuel=args.fuel)
    for result in sorted(
        enumerate_outcomes(io_value, stdin=args.stdin), key=str
    ):
        print(str(result))
    return 0


def _cmd_profile(args) -> int:
    import sys

    from repro.obs.profile import profile_source

    if args.trace is not None:
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as err:
            print(
                f"error: cannot open trace file {args.trace}: {err}",
                file=sys.stderr,
            )
            return 1
    report = profile_source(
        args.expr,
        strategy=_strategy(args.strategy),
        fuel=args.fuel,
        denote_fuel=args.denote_fuel,
        layer=args.layer,
        trace=args.trace,
        deep=args.deep,
        backend=args.backend,
        attribution=args.attribution,
        flame=args.flame,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def _cmd_explain(args) -> int:
    from repro.explain import explain_source

    with open(args.file) as handle:
        source = handle.read()
    report = explain_source(
        source,
        entry=args.entry,
        fuel=args.fuel,
        denote_fuel=args.denote_fuel,
        shuffle_seeds=args.seeds,
        backend=args.backend,
    )
    print(report.render())
    return 0


def _cmd_bench(args) -> int:
    import json
    import shutil
    import tempfile

    from repro.benchcompare import (
        DEFAULT_SEED_DIR,
        compare_records,
        load_records,
        run_benchmarks,
    )

    experiments = [
        e.strip() for e in args.experiments.split(",") if e.strip()
    ] or None
    seed_dir = args.seed_dir or DEFAULT_SEED_DIR

    scratch: Optional[str] = None
    try:
        if args.records is not None:
            fresh_dir = args.records
        else:
            scratch = tempfile.mkdtemp(prefix="repro-bench-")
            status = run_benchmarks(scratch, experiments, jobs=args.jobs)
            if status != 0:
                print(
                    f"error: benchmark run failed (pytest exit {status})",
                    file=sys.stderr,
                )
                return status
            fresh_dir = scratch
        fresh = load_records(fresh_dir)
        if not fresh:
            print(
                f"error: no BENCH_*.json records in {fresh_dir}",
                file=sys.stderr,
            )
            return 1

        if args.update:
            os.makedirs(seed_dir, exist_ok=True)
            for name in sorted(os.listdir(fresh_dir)):
                if name.startswith("BENCH_") and name.endswith(".json"):
                    shutil.copyfile(
                        os.path.join(fresh_dir, name),
                        os.path.join(seed_dir, name),
                    )
                    print(f"updated {os.path.join(seed_dir, name)}")
            return 0

        seed = load_records(seed_dir)
        if experiments is not None:
            seed = {k: v for k, v in seed.items() if k in experiments}
            fresh = {k: v for k, v in fresh.items() if k in experiments}
        if not seed:
            print(
                f"error: no seed records in {seed_dir} "
                "(run `repro bench --update` to create them)",
                file=sys.stderr,
            )
            return 1
        comparison = compare_records(seed, fresh)
        if args.format == "json":
            print(json.dumps(comparison.as_dict(), indent=2))
        else:
            print(comparison.table())
        return 0 if comparison.ok else 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _cmd_optimise(args) -> int:
    from repro.transform.pipeline import pipeline_for

    level = pipeline_for(args.level)
    expr = compile_expr(args.expr)
    print(pretty(level.optimise(expr)))
    return 0


def _cmd_typecheck(args) -> int:
    from repro.api import typecheck_program

    with open(args.file) as handle:
        source = handle.read()
    program = compile_program(source)
    env = typecheck_program(program)
    for name, _rhs in program.binds:
        print(f"{name} :: {env[name]}")
    return 0


def _fuzz_table(summary_dict: dict) -> str:
    lines = []
    shards = (
        f", {summary_dict['jobs']} shards" if "jobs" in summary_dict
        else ""
    )
    guided = " (guided)" if summary_dict.get("guided") else ""
    lines.append(
        f"fuzz: {summary_dict['iterations']} cases, seed "
        f"{summary_dict['seed']}{shards}{guided}, "
        f"{summary_dict['elapsed_seconds']}s"
    )
    verdicts = summary_dict["verdicts"]
    lines.append(
        "verdicts: "
        + ", ".join(f"{k}={v}" for k, v in verdicts.items())
    )
    machine = summary_dict["machine"]
    lines.append(
        f"machine: steps={machine['steps']} raises={machine['raises']} "
        f"allocs={machine['allocs']}"
    )
    for lane, counts in summary_dict["lanes"].items():
        lines.append(
            f"  {lane}: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
    coverage = summary_dict.get("coverage")
    if coverage and coverage.get("iterations"):
        total = coverage["iterations"]
        lines.append(f"coverage ({total} iterations):")
        for name, hits in coverage["hits"].items():
            rate = hits / total if total else 0.0
            lines.append(f"  {name}: {hits} ({rate:.1%})")
    sampled = summary_dict.get("probe_sampled", 0)
    total = summary_dict.get("probe_total", 0)
    if total and sampled != total:
        lines.append(f"probe: sampled {sampled} of {total} cases")
    for violation in summary_dict.get("probe_violations", []):
        lines.append(f"PROBE VIOLATION: {violation}")
    for finding in summary_dict["findings"]:
        lines.append(
            f"DIVERGENCE (seed {finding['seed']}, "
            f"{finding['original_size']} -> {finding['shrunk_size']} "
            f"nodes): {finding['shrunk_source']}"
        )
    if summary_dict.get("corpus_added"):
        lines.append(f"corpus: {summary_dict['corpus_added']} new entries")
    return "\n".join(lines)


def _cmd_fuzz(args) -> int:
    import json

    from repro.fuzz.corpus import replay_corpus
    from repro.fuzz.engine import run_fuzz
    from repro.fuzz.gen import GenConfig
    from repro.fuzz.oracle import OracleConfig

    if args.replay is not None:
        results = replay_corpus(args.replay)
        payload = {
            "corpus": args.replay,
            "entries": len(results),
            "mismatches": [
                r.to_dict() for r in results if not r.matches
            ],
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"replayed {payload['entries']} entries from "
                f"{args.replay}: "
                f"{len(payload['mismatches'])} mismatches"
            )
            for mismatch in payload["mismatches"]:
                print(
                    f"  MISMATCH {mismatch['id']}: expected "
                    f"{mismatch['expected']}, observed "
                    f"{mismatch['observed']}: {mismatch['source']}"
                )
        return 1 if payload["mismatches"] else 0

    gen_config = GenConfig(
        max_depth=args.max_depth,
        io_fraction=0.0 if args.no_io else args.io_fraction,
        allow_fix=not args.no_fix,
        allow_strings=not args.no_strings,
        allow_prelude=not args.no_prelude,
        allow_io=not args.no_io,
        allow_catch=not args.no_catch,
    )
    if not 0.0 < args.probe_sample <= 1.0:
        print(
            "error: --probe-sample must be in (0, 1]",
            file=sys.stderr,
        )
        return 2
    if args.jobs > 1:
        from repro.fuzz.fleet import run_fleet

        if args.iterations is None:
            print(
                "error: --jobs requires --iterations (sharding is "
                "index-based)",
                file=sys.stderr,
            )
            return 2
        fleet = run_fleet(
            jobs=args.jobs,
            iterations=args.iterations,
            seed=args.seed,
            guided=args.guided,
            shrink=not args.no_shrink,
            max_findings=args.max_findings,
            probe=not args.no_probe,
            probe_sample=args.probe_sample,
            gen_config=gen_config,
            oracle_config={"warm_lane": not args.no_warm_lane},
            save_path=args.save,
        )
        payload = fleet.to_dict()
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(_fuzz_table(payload))
        return 0 if fleet.ok else 1
    summary = run_fuzz(
        iterations=args.iterations,
        seconds=args.seconds,
        seed=args.seed,
        gen_config=gen_config,
        oracle_config=OracleConfig(warm_lane=not args.no_warm_lane),
        save_path=args.save,
        shrink_findings=not args.no_shrink,
        max_findings=args.max_findings,
        guided=args.guided,
        retarget_every=args.retarget_every,
        probe=not args.no_probe,
        probe_sample=args.probe_sample,
    )
    payload = summary.to_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_fuzz_table(payload))
    return 1 if summary.divergences or summary.probe_violations else 0


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos.explore import (
        ASYNC_BY_NAME,
        SWEEP_AXES,
        self_test,
        sweep_axis,
    )

    from repro.machine import BACKENDS

    backends = list(BACKENDS) if args.backend == "all" else [args.backend]
    axes = list(SWEEP_AXES) if args.sweep == "all" else [args.sweep]

    if args.self_test:
        all_caught = True
        payload = []
        for backend in backends:
            for axis in axes:
                caught, report = self_test(backend=backend, axis=axis)
                all_caught = all_caught and caught
                payload.append(
                    {"backend": backend, "axis": axis, "caught": caught,
                     "report": report.as_dict()}
                )
                if args.format != "json":
                    verdict = "caught" if caught else "MISSED"
                    print(
                        f"self-test [{axis}/{backend}]: planted-unsound "
                        f"harness {verdict}"
                    )
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        return 0 if all_caught else 1

    if args.file is not None:
        with open(args.file) as handle:
            source = handle.read().strip()
    elif args.expr is not None:
        source = args.expr
    else:
        print("error: provide an expression or --file", file=sys.stderr)
        return 2

    exc = ASYNC_BY_NAME[args.exc]
    ok = True
    payload = []
    for backend in backends:
        for axis in axes:
            report = sweep_axis(
                axis,
                source,
                exc=exc,
                backend=backend,
                fuel=args.fuel,
                limit=args.limit,
                sample=args.sample,
            )
            ok = ok and report.ok
            payload.append(report.as_dict())
            if args.format != "json":
                print(report.render())
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    from repro.serve.http import serve_forever
    from repro.serve.schema import SERVE_FLAGS
    from repro.serve.service import ServiceConfig

    config = ServiceConfig(
        **{
            spec.dest: getattr(args, spec.dest)
            for spec in SERVE_FLAGS
            if spec.dest is not None
        }
    )
    return serve_forever(args.host, args.port, config)


def _cmd_top(args) -> int:
    from repro.serve.top import run_top

    return run_top(
        url=args.url.rstrip("/"),
        interval=args.interval,
        iterations=args.iterations,
        clear=args.clear,
    )


_COMMANDS = {
    "run": _cmd_run,
    "eval": _cmd_eval,
    "denote": _cmd_denote,
    "law": _cmd_law,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "optimise": _cmd_optimise,
    "typecheck": _cmd_typecheck,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "top": _cmd_top,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
