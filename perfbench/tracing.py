"""Span tracing of an in-process `run-all`, from outside the program.

For the length of one traced run, `installed` replaces the names that
`run-all` resolves at call time with wrappers that record a span:

- every function `synctrail.cli` imported from a layer module
  (`cli.ingest_device_dump`, `cli.seal_dump`, ...);
- the `cli._step_*` stage boundaries;
- `canonical_encode` as seen from `synctrail.evidence` (record digests)
  and from `synctrail.preservation` (the custody chain).

A span is [name, parent index, start ns, end ns]; a run's spans live in
one list whose index is the span id. Nothing under `src/` changes, and
the original functions are restored when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("acquisition", "evidence", "preservation", "correlation", "osint", "reporting", "cli")
STAGES = ("ingest", "seal", "verify", "correlate", "enrich", "report")
ROOT_SPAN = "cli.run"
MIB = 1024 * 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1], clock(), 0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()

        return traced


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    from synctrail import cli, evidence, preservation

    layer_modules = {f"synctrail.{layer}" for layer in LAYERS if layer != "cli"}
    targets = [
        (cli, name)
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj)
        and (obj.__module__ in layer_modules or name.startswith("_step_"))
    ]
    targets += [(evidence, "canonical_encode"), (preservation, "canonical_encode")]
    saved = [(module, name, getattr(module, name)) for module, name in targets]
    try:
        for module, name, fn in saved:
            setattr(module, name, tracer.wrap(span_name(fn), fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_problems(spans: list[list]) -> list[str]:
    """Spans must form one tree of nested, non-overlapping intervals.

    Then the self times of all spans add up to the root span exactly,
    and the stage spans plus the root's own time add up to the root.
    """
    roots = [i for i, span in enumerate(spans) if span[1] < 0]
    if roots != [0] or spans[0][0] != ROOT_SPAN:
        return [f"want one {ROOT_SPAN} root span, got {[spans[i][0] for i in roots]}"]
    problems = []
    for name, parent, start, end in spans[1:]:
        _, _, parent_start, parent_end = spans[parent]
        if not parent_start <= start <= end <= parent_end:
            problems.append(f"span {name} escapes its parent {spans[parent][0]}")
    negative = [spans[i][0] for i, own in enumerate(self_times(spans)) if own < 0]
    if negative:
        problems.append(f"overlapping children under {negative[0]}")
    return problems[:3]


def layer_metrics(spans: list[list], report: dict, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced `run-all`, named `<layer>.<what>`.

    `X.s` is the inclusive time of every call to X; `<layer>.self_s` is
    the time inside a layer's spans not covered by their child spans.
    `cli.self_s` is the `run-all` span minus every layer call under it:
    stage-file encoding, writing and reading back.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    own_by_layer = dict.fromkeys(LAYERS, 0)
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        own_by_layer[name.partition(".")[0]] += own

    def seconds(*names: str) -> float:
        return sum(total.get(name, 0) for name in names) / 1e9

    records = report["inputs"]["dumps"][0]["record_count"]
    events = report["inputs"]["cloud_logs"][0]["event_count"]
    tiers = [link["tier"] for link in report["links"]]
    exact = tiers.count("ExactDigest")
    support = (report["skew"] or {}).get("support_count", 0)
    encodes = calls.get("evidence.canonical_encode", 0)

    metrics = {
        "acquisition.ingest_device_dump.calls": calls.get("acquisition.ingest_device_dump", 0),
        "acquisition.ingest_device_dump.s": seconds("acquisition.ingest_device_dump"),
        "acquisition.ingest_cloud_log.s": seconds("acquisition.ingest_cloud_log"),
        "acquisition.typed_parse.s": seconds(
            "acquisition.parse_app_inventory",
            "acquisition.parse_comm_artifacts",
            "acquisition.parse_email_accounts",
        ),
        "acquisition.records": records,
        "acquisition.events": events,
        "acquisition.ledger_entries": len(report["error_ledger"]),
        "evidence.canonical_encode.per_record": encodes / records if records else 0.0,
        "preservation.seal_dump.s": seconds("preservation.seal_dump"),
        "preservation.verify_chain.s": seconds("preservation.verify_chain"),
        "preservation.manifest_io.s": seconds(
            "preservation.write_sealed_manifest", "preservation.load_sealed_manifest"
        ),
        "correlation.estimate_clock_skew.s": seconds("correlation.estimate_clock_skew"),
        "correlation.skew_support": support,
        "correlation.exact_pairs_per_link": support / exact if exact else 0.0,
        "correlation.match_synced_artifacts.s": seconds("correlation.match_synced_artifacts"),
        "correlation.links.exact": exact,
        "correlation.links.window": tiers.count("MetadataWindow"),
        "correlation.build_timeline.s": seconds("correlation.build_timeline"),
        "correlation.findings.s": seconds(
            "correlation.detect_uninstall_evidence", "correlation.derive_cloud_usage_findings"
        ),
        "osint.build_identity_graph.s": seconds("osint.build_identity_graph"),
        "reporting.render_report.s": seconds("reporting.render_report"),
        "reporting.report_mib": report_bytes / MIB,
    }
    for stage in STAGES:
        metrics[f"cli.stage.{stage}.s"] = seconds(f"cli._step_{stage}")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own_by_layer[layer] / 1e9
    metrics["trace.runall_s"] = seconds(ROOT_SPAN)
    return metrics


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
