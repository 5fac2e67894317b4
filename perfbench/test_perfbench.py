"""Tests of the benchmark's own parts: generator, oracle and tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _report_links(expected_links: dict) -> list[dict]:
    return [
        {"device_record_id": record, "cloud_event_id": event, "tier": tier}
        for tier, pairs in expected_links.items()
        for record, event in pairs
    ]


def test_repeated_content_is_byte_deterministic_per_seed(tmp_path):
    cases.repeated_content(11, tmp_path / "a", n=40, m=30)
    cases.repeated_content(11, tmp_path / "b", n=40, m=30)
    cases.repeated_content(12, tmp_path / "c", n=40, m=30)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_repeated_content_expects_one_to_one_links(tmp_path):
    case = cases.repeated_content(5, tmp_path, n=40, m=30)
    links = case.expected["links"]
    assert len(links["ExactDigest"]) == 40 and len(links["MetadataWindow"]) == 30
    pairs = links["ExactDigest"] + links["MetadataWindow"]
    assert len({r for r, _ in pairs}) == len({e for _, e in pairs}) == 70
    assert json.loads((tmp_path / cases.EXPECTED_NAME).read_text()) == case.expected


def test_program_output_matches_repeated_content_oracle(tmp_path):
    from synctrail import cli

    case = cases.repeated_content(3, tmp_path / "case", n=30, m=20)
    out = tmp_path / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(["run-all", str(case.bundle), str(case.cloud_log), "--out", str(out)]) == 0
    report = json.loads((out / "rep-3.report.json").read_text())
    assert oracle.report_problems(report, case.expected) == []
    assert report["skew"]["support_count"] == 30 * 30
    assert report["skew"]["offset_seconds"] == 0


def test_oracle_rejects_one_swapped_link(tmp_path):
    case = cases.repeated_content(7, tmp_path, n=6, m=5)
    links = _report_links(case.expected["links"])
    assert oracle.link_problems(links, case.expected["links"]) == []
    links[0]["cloud_event_id"], links[1]["cloud_event_id"] = (
        links[1]["cloud_event_id"],
        links[0]["cloud_event_id"],
    )
    assert oracle.link_problems(links, case.expected["links"])


def test_oracle_rejects_a_reused_event_and_a_wrong_tier(tmp_path):
    case = cases.repeated_content(7, tmp_path, n=6, m=5)
    reused = _report_links(case.expected["links"])
    reused.append(dict(reused[0], device_record_id="extra"))
    assert oracle.link_problems(reused, case.expected["links"])
    wrong_tier = _report_links(case.expected["links"])
    wrong_tier[0]["tier"] = "MetadataWindow"
    assert oracle.link_problems(wrong_tier, case.expected["links"])


def test_oracle_checks_skew():
    skew = {"offset_seconds": 301, "support_count": 9, "spread_seconds": 2, "fallback": False}
    assert oracle.skew_problems(skew, {"min": 300, "max": 302}) == []
    assert oracle.skew_problems(skew, {"min": 302, "max": 304})
    assert oracle.skew_problems(skew, "fallback")
    assert oracle.skew_problems(dict(skew, fallback=True), "fallback") == []


def test_oracle_rejects_a_wrong_tamper_index():
    tampered = {"verdict": "Tampered", "first_divergent_index": 17}
    assert oracle.tamper_problems(3, tampered, 17) == []
    assert oracle.tamper_problems(3, tampered, 16)
    assert oracle.tamper_problems(0, tampered, 17)
    assert oracle.tamper_problems(3, dict(tampered, verdict="Intact"), 17)
    assert oracle.tamper_problems(3, None, 17)


def test_traced_run_forms_one_span_tree_and_restores_the_program(tmp_path):
    from synctrail import cli, evidence, preservation

    def patched():
        return cli.ingest_device_dump, evidence.canonical_encode, preservation.canonical_encode

    before = patched()
    case = cases.repeated_content(4, tmp_path / "case", n=20, m=10)
    tracer = tracing.Tracer()
    argv = ["run-all", str(case.bundle), str(case.cloud_log), "--out", str(tmp_path / "out")]
    with tracing.installed(tracer), contextlib.redirect_stderr(io.StringIO()):
        assert tracer.wrap(tracing.ROOT_SPAN, cli.run)(argv) == 0
    assert patched() == before

    spans = tracer.spans
    assert tracing.span_problems(spans) == []
    root = spans[0][3] - spans[0][2]
    assert sum(tracing.self_times(spans)) == root
    report = (tmp_path / "out" / "rep-4.report.json").read_bytes()
    metrics = tracing.layer_metrics(spans, json.loads(report), len(report))
    stages = sum(metrics[f"cli.stage.{stage}.s"] for stage in tracing.STAGES)
    assert 0 < stages <= metrics["trace.runall_s"]
    assert metrics["acquisition.records"] == 30
    assert metrics["correlation.links.exact"] == 20

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == set(metrics) | {"trace.overhead_s"}
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS


def test_span_problems_flags_a_child_outside_its_parent():
    spans = [[tracing.ROOT_SPAN, -1, 0, 10], ["cli._step_ingest", 0, 5, 12]]
    assert tracing.span_problems(spans)
