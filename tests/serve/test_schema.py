"""One description of the serve API (repro.serve.schema) — and proof
that every projection of it stays in sync: the generated block in
docs/ROBUSTNESS.md, the ``repro serve --help`` text, and the schema's
own internal consistency."""

import dataclasses
import subprocess
import sys
from pathlib import Path

from repro.serve.schema import (
    DOCS_PATH,
    HEALTH_SCHEMA,
    HTTP_STATUS,
    METRIC_FAMILIES,
    RESPONSE_SCHEMAS,
    SERVE_FLAGS,
    extract_block,
    render_markdown,
    schema_sets,
    sync_docs,
)

REPO = Path(__file__).resolve().parents[2]


class TestDocsSync:
    def test_docs_block_matches_rendered_schema(self):
        """docs/ROBUSTNESS.md carries the generated block verbatim —
        editing the schema without running ``--write`` fails here."""
        text = DOCS_PATH.read_text()
        block = extract_block(text)
        assert block is not None, "serve-schema markers missing"
        assert block == render_markdown(), (
            "stale serve-schema block — regenerate with "
            "PYTHONPATH=src python -m repro.serve.schema --write"
        )

    def test_sync_docs_check_mode_agrees(self):
        assert sync_docs(write=False) is True

    def test_cli_check_exits_zero_when_in_sync(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.schema", "--check"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestHelpSync:
    def test_serve_help_renders_every_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--help"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        )
        assert proc.returncode == 0
        for spec in SERVE_FLAGS:
            assert spec.flag in proc.stdout, spec.flag
            # argparse wraps help text; the first few words survive
            # wrapping and are enough to pin the description's source.
            head = " ".join(spec.help.split()[:3])
            assert head in proc.stdout.replace("\n", " ").replace(
                "  ", " "
            ) or spec.help.split()[0] in proc.stdout, spec.flag


class TestSchemaShape:
    def test_every_status_has_an_http_mapping(self):
        assert set(RESPONSE_SCHEMAS) == set(HTTP_STATUS)

    def test_required_and_optional_are_disjoint(self):
        for status in RESPONSE_SCHEMAS:
            required, optional = schema_sets(status)
            assert not required & optional, status

    def test_status_field_is_always_required(self):
        for status in RESPONSE_SCHEMAS:
            required, _ = schema_sets(status)
            assert "status" in required, status

    def test_flags_are_unique(self):
        flags = [spec.flag for spec in SERVE_FLAGS]
        assert len(flags) == len(set(flags))

    def test_every_service_flag_names_a_config_field(self):
        """Each flag but the socket's own sets one ServiceConfig field
        and takes its default from it."""
        from repro.serve import ServiceConfig

        names = {f.name for f in dataclasses.fields(ServiceConfig)}
        for spec in SERVE_FLAGS:
            if spec.flag in ("--host", "--port"):
                assert spec.dest is None, spec.flag
            else:
                assert spec.dest in names, spec.flag
                assert spec.resolved_default() == getattr(
                    ServiceConfig(), spec.dest
                )

    def test_health_schema_matches_live_health_payload(self):
        """``GET /healthz`` and ``HEALTH_SCHEMA`` are the same set of
        keys — documenting a field that does not exist (or shipping
        one undocumented) fails here."""
        from repro.serve import EvalService, ServiceConfig

        service = EvalService(ServiceConfig())
        assert set(service.health()) == set(HEALTH_SCHEMA)

    def test_metric_families_match_live_exposition(self):
        """Every declared metric family renders (and nothing else):
        the generated docs table is exactly the live /metrics
        surface."""
        from repro.obs.telemetry import parse_exposition
        from repro.serve import EvalService, ServiceConfig

        service = EvalService(ServiceConfig())
        service.handle({"expr": "1 + 2"})
        families = parse_exposition(service.metrics_text())
        assert set(families) == {
            spec.name for spec in METRIC_FAMILIES
        }
        kinds = {spec.name: spec.kind for spec in METRIC_FAMILIES}
        for name, family in families.items():
            assert family["type"] == kinds[name], name

    def test_metric_family_names_are_unique_and_prefixed(self):
        names = [spec.name for spec in METRIC_FAMILIES]
        assert len(names) == len(set(names))
        assert all(name.startswith("repro_") for name in names)

    def test_rendered_block_escapes_table_pipes(self):
        """Descriptions may contain ``|``; the renderer must escape
        them so the markdown tables do not silently gain columns."""
        for line in render_markdown().splitlines():
            if not line.startswith("|"):
                continue
            unescaped = line.replace("\\|", "").count("|")
            assert unescaped == 4, line
