"""The ``repro profile`` engine.

Runs an expression under a counting sink — on the lazy machine, the
denotational evaluator, or both — with per-phase wall-clock timers,
and renders the result as a table or JSON.  An optional JSONL sink
streams the full event sequence for offline analysis.

Measurement discipline: the prelude environment is built *before* the
sink is attached and stats are reset, so the report covers the
expression's own cost, not setup; and the outcome is rendered (which
may force further structure) only *after* counters are snapshotted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.attribution import SpanProfiler
from repro.obs.events import (
    CASE_EXCEPTION_MODE_ENTER,
    EXCSET_JOIN,
)
from repro.obs.sinks import CountingSink, JsonlSink, TeeSink, TraceSink

LAYERS = ("machine", "denote", "both")

#: How many spans the table rendering shows before eliding; the JSON
#: form and the folded-stack file always carry everything.
_TABLE_SPAN_LIMIT = 15


@dataclass
class ProfileReport:
    """Everything one profiling run measured."""

    source: str
    layer: str
    backend: str = "ast"  # which machine evaluator produced the numbers
    outcome: Optional[str] = None  # machine observation, rendered
    denotation: Optional[str] = None  # denoted SemVal, rendered
    machine_stats: Optional[Dict[str, int]] = None
    denote_stats: Optional[Dict[str, int]] = None
    events: Dict[str, int] = field(default_factory=dict)
    set_width_histogram: Dict[int, int] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None
    span_totals: Optional[Dict[str, Dict[str, int]]] = None
    flame_path: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "source": self.source,
            "layer": self.layer,
            "backend": self.backend,
            "events": dict(sorted(self.events.items())),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
        }
        if self.outcome is not None:
            data["outcome"] = self.outcome
        if self.machine_stats is not None:
            data["machine_stats"] = self.machine_stats
        if self.denotation is not None:
            data["denotation"] = self.denotation
        if self.denote_stats is not None:
            data["denote_stats"] = self.denote_stats
        if self.set_width_histogram:
            data["set_width_histogram"] = {
                str(w): n
                for w, n in sorted(self.set_width_histogram.items())
            }
        if self.trace_path is not None:
            data["trace_path"] = self.trace_path
        if self.span_totals is not None:
            data["span_totals"] = {
                label: dict(counters)
                for label, counters in sorted(self.span_totals.items())
            }
        if self.flame_path is not None:
            data["flame_path"] = self.flame_path
        return data

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def to_table(self) -> str:
        lines = [
            f"profile  {self.source}",
            f"layer    {self.layer}",
            f"backend  {self.backend}",
        ]

        def section(title: str, rows: Dict[str, Any]) -> None:
            if not rows:
                return
            lines.append("")
            lines.append(title)
            width = max(len(str(k)) for k in rows)
            for key, value in rows.items():
                if isinstance(value, float):
                    value = f"{value:.6f}"
                lines.append(f"  {str(key):<{width}}  {value}")

        if self.outcome is not None:
            lines.append(f"outcome  {self.outcome}")
        if self.denotation is not None:
            lines.append(f"denotes  {self.denotation}")
        if self.machine_stats:
            section("machine stats", self.machine_stats)
        if self.denote_stats:
            section("denotational stats", self.denote_stats)
        section("events", dict(sorted(self.events.items())))
        if self.set_width_histogram:
            section(
                "set-width histogram (excset-join)",
                {
                    f"width {w}": n
                    for w, n in sorted(self.set_width_histogram.items())
                },
            )
        if self.span_totals:
            hottest = sorted(
                self.span_totals.items(),
                key=lambda kv: (-kv[1]["steps"], kv[0]),
            )
            rows = {
                label: (
                    f"steps={c['steps']} allocs={c['allocs']} "
                    f"forces={c['forces']} raises={c['raises']}"
                )
                for label, c in hottest[:_TABLE_SPAN_LIMIT]
            }
            section("span attribution (hottest first)", rows)
            elided = len(hottest) - _TABLE_SPAN_LIMIT
            if elided > 0:
                lines.append(
                    f"  ... {elided} more spans (use --format json "
                    "for all)"
                )
        section("phases (seconds)", self.phases)
        if self.trace_path is not None:
            lines.append("")
            lines.append(f"trace written to {self.trace_path}")
        if self.flame_path is not None:
            lines.append("")
            lines.append(f"folded stacks written to {self.flame_path}")
        return "\n".join(lines)


def profile_source(
    source: str,
    strategy=None,
    fuel: int = 2_000_000,
    denote_fuel: int = 200_000,
    layer: str = "machine",
    trace: Optional[str] = None,
    deep: bool = False,
    backend: str = "ast",
    attribution: bool = False,
    flame: Optional[str] = None,
) -> ProfileReport:
    """Profile ``source`` (prelude in scope) on the requested layer(s).

    ``backend`` selects the machine evaluator (``ast`` or ``super``); both
    emit the same counters and events (docs/PERFORMANCE.md).

    ``attribution=True`` additionally aggregates machine cost per
    source span (a :class:`SpanProfiler` joins the sink tee);
    ``flame=PATH`` implies it and writes the folded-stacks file that
    flamegraph viewers consume."""
    # Imports are local: repro.obs must stay importable from the
    # evaluator modules without a cycle through the high-level API.
    from repro.api import compile_expr
    from repro.core.denote import DenoteContext, denote
    from repro.machine.eval import Machine
    from repro.machine.observe import Normal, observe, show_value
    from repro.obs.timers import PhaseTimer
    from repro.prelude.loader import denote_env, machine_env

    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r} (choose from {LAYERS})")

    counting = CountingSink()
    jsonl: Optional[JsonlSink] = None
    spans: Optional[SpanProfiler] = None
    members: list = [counting]
    if trace is not None:
        jsonl = JsonlSink(trace)
        members.append(jsonl)
    if attribution or flame is not None:
        # Folded stacks destined for a flamegraph carry the strategy
        # decision clock (`@d<N>` frame decorations); the aggregate
        # span table stays undecorated either way.
        spans = SpanProfiler(decisions=flame is not None)
        members.append(spans)
    sink: TraceSink = (
        counting if len(members) == 1 else TeeSink(*members)
    )

    report = ProfileReport(
        source=source, layer=layer, backend=backend, trace_path=trace
    )
    timer = PhaseTimer(sink)
    try:
        with timer.phase("parse"):
            expr = compile_expr(source)

        if layer in ("machine", "both"):
            machine = Machine(strategy=strategy, fuel=fuel, backend=backend)
            with timer.phase("prelude-env"):
                env = machine_env(machine)
            # Attaching the sink *after* env construction (and letting
            # observe() reset the counters) scopes the measurement to
            # the expression itself.
            with timer.phase("machine-eval"):
                outcome = observe(
                    expr, env=env, machine=machine, deep=deep, sink=sink
                )
            report.machine_stats = machine.stats.snapshot().as_dict()
            report.events = dict(counting.counts)
            # Rendering may force further structure, so it happens only
            # after the counters are snapshotted; detach the sink so
            # the extra forcing stays out of the event stream too.
            machine.attach_sink(None)
            if isinstance(outcome, Normal):
                report.outcome = show_value(outcome.value, machine)
            else:
                report.outcome = str(outcome)

        if layer in ("denote", "both"):
            ctx = DenoteContext(fuel=denote_fuel, sink=sink)
            with timer.phase("denote-prelude-env"):
                denv = denote_env(ctx)
            with timer.phase("denote-eval"):
                value = denote(expr, denv, ctx)
            report.denote_stats = {
                "steps": ctx.steps,
                "excset_joins": counting.count(EXCSET_JOIN),
                "case_exception_mode_enters": counting.count(
                    CASE_EXCEPTION_MODE_ENTER
                ),
            }
            report.denotation = str(value)

        report.events = dict(counting.counts)
        report.set_width_histogram = dict(
            counting.width_histograms.get(EXCSET_JOIN, {})
        )
        report.phases = timer.as_dict()
        if spans is not None:
            report.span_totals = {
                label: dict(counters)
                for label, counters in spans.totals.items()
            }
            if flame is not None:
                with open(flame, "w", encoding="utf-8") as fh:
                    for line in spans.folded_lines():
                        fh.write(line + "\n")
                report.flame_path = flame
    finally:
        if jsonl is not None:
            jsonl.close()
    return report
