"""Command-line entry point.

Subcommands mirror the pipeline stages: simulate, ingest, seal, verify,
diff, correlate, enrich, report, and run-all which chains them over a
single read of the bundle. Data
goes to files, human diagnostics go to stderr, and the exit code says
what happened: 0 success, 2 usage error, 3 custody violated (tampered
chain), 4 fatal input problem.

Analysis subcommands are deterministic by contract; the only randomness
in the tool lives in the simulator behind an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

from . import __version__, atomic
from .acquisition import (
    AppRecord,
    AppStatus,
    DeviceDump,
    LedgerEntry,
    dump_to_json_dict,
    ingest_cloud_log,
    ingest_device_dump,
    parse_app_inventory,
    parse_comm_artifacts,
    parse_email_accounts,
    profile_format_warnings,
)
from .correlation import (
    DEFAULT_MIN_SKEW_SUPPORT,
    DEFAULT_WINDOW_SECONDS,
    CloudUsageFinding,
    SkewEstimate,
    SyncLink,
    UnifiedTimeline,
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    estimate_clock_skew,
    match_synced_artifacts,
    zero_skew,
)
from .errors import (
    DeviceMismatch,
    DuplicateEventId,
    DuplicateRecordId,
    EmptyBundle,
    ImpossibleDate,
    InsufficientSupport,
    IoFailure,
    MalformedManifest,
    MalformedStageFile,
    MalformedTable,
    MissingManifest,
    RecordCountMismatch,
    UnparseableTimestamp,
    UnsupportedAlgorithm,
)
from .evidence import Locale
from .osint import (
    GeoRecord,
    IdentityGraph,
    build_identity_graph,
    load_geo_table,
    resolve_ip,
)
from .preservation import (
    IsolationMethod,
    Verdict,
    VerificationReport,
    diff_acquisitions,
    load_sealed_manifest,
    seal_dump,
    verify_chain,
    write_sealed_manifest,
)
from .reporting import (
    CaseReport,
    ReportFormat,
    assemble_case_report,
    finding_to_dict,
    identity_graph_to_dict,
    geo_to_list,
    ledger_to_list,
    link_to_dict,
    render_report,
    skew_to_dict,
    timeline_to_list,
)
from .simulator import SimParams, generate_case

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TAMPERED = 3
EXIT_PARSE_FATAL = 4

TIMESTAMP_ASSUMPTION = (
    "All times normalized to UTC; legacy device timestamps read per the locale "
    "flag; sources without zone data are assumed UTC"
)

_LOCALES = {"day-first": Locale.DAY_FIRST, "month-first": Locale.MONTH_FIRST}
_FORMATS = {"json": ReportFormat.JSON, "md": ReportFormat.MARKDOWN, "html": ReportFormat.HTML}
_ISOLATION = {
    "airplane-mode": IsolationMethod.AIRPLANE_MODE,
    "powered-off": IsolationMethod.POWERED_OFF,
    "shielded-container": IsolationMethod.SHIELDED_CONTAINER,
    "radio-isolation": IsolationMethod.RADIO_ISOLATION,
    "none": IsolationMethod.NONE,
}

_FATAL_ERRORS = (
    MissingManifest,
    MalformedManifest,
    MalformedStageFile,
    DuplicateRecordId,
    DuplicateEventId,
    UnsupportedAlgorithm,
    MalformedTable,
    UnparseableTimestamp,
    ImpossibleDate,
    DeviceMismatch,
    EmptyBundle,
    IoFailure,
    OSError,
)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path: Path, payload: object) -> None:
    """Write a stage file: compact UTF-8 JSON on one line, on the C encoder."""
    text = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    atomic.write_bytes(path, (text + "\n").encode("utf-8"))


def _read_stage(path: Path, default: object, required: Sequence[str] = ()) -> object:
    """Load a stage file, or ``default`` when it is absent.

    A stage file holds a JSON list when its default is a list and an
    object otherwise, with at least the ``required`` keys. Anything else,
    including a truncated file, raises MalformedStageFile naming the file.
    """
    if not path.is_file():
        return default
    try:
        data = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise MalformedStageFile(f"stage file {path} is not valid JSON: {exc}") from None
    kind = list if isinstance(default, list) else dict
    if not isinstance(data, kind):
        what = "a JSON list" if kind is list else "a JSON object"
        raise MalformedStageFile(f"stage file {path} must hold {what}")
    missing = [key for key in required if key not in data]
    if missing:
        raise MalformedStageFile(f"stage file {path} missing field {missing[0]!r}")
    return data


def _step_ingest(
    bundle: Path, out: Path, locale: Locale, dump_canonical: Optional[Path] = None
) -> tuple[DeviceDump, list[AppRecord], list[LedgerEntry]]:
    dump = ingest_device_dump(bundle, locale)
    for warning in profile_format_warnings(dump.device):
        _say(f"note: {warning}")
    parse_ledger: list[LedgerEntry] = []
    apps = parse_app_inventory(dump, parse_ledger)
    payload = dump_to_json_dict(dump)
    payload["app_counts"] = {
        "installed": sum(1 for a in apps if a.status is not AppStatus.UNINSTALLED),
        "uninstalled": sum(1 for a in apps if a.status is AppStatus.UNINSTALLED),
    }
    payload["parse_ledger"] = ledger_to_list(parse_ledger)
    _write_json(out / "dump.json", payload)
    if dump_canonical is not None:
        atomic.write_bytes(dump_canonical, b"".join(r.canonical for r in dump.records))
        _say(f"canonical record bytes written to {dump_canonical}")
    _say(
        f"ingested {len(dump.records)} records from {bundle.name} "
        f"({len(dump.ledger)} ledger entries)"
    )
    return dump, apps, parse_ledger


def _step_seal(
    dump: DeviceDump, bundle: Path, examiner: str, isolation: IsolationMethod
) -> None:
    manifest = seal_dump(dump, examiner=examiner, isolation_method=isolation)
    path = write_sealed_manifest(manifest, bundle)
    _say(
        f"sealed {manifest.record_count} records, chain head "
        f"{manifest.chain_head.hex()} -> {path.name}"
    )


def _step_verify(dump: DeviceDump, bundle: Path, out: Optional[Path]) -> VerificationReport:
    manifest = load_sealed_manifest(bundle)
    try:
        report = verify_chain(manifest, dump.records)
    except RecordCountMismatch as exc:
        # A record added or removed after sealing is custody violation,
        # surfaced with the tampered exit code rather than a parse error.
        _say(f"verification failed: {exc}")
        report = VerificationReport(verdict=Verdict.TAMPERED, first_divergent_index=0)
    if out is not None:
        _write_json(
            out / "verification.json",
            {
                "verdict": report.verdict.value,
                "first_divergent_index": report.first_divergent_index,
                "expected": report.expected.hex() if report.expected else None,
                "actual": report.actual.hex() if report.actual else None,
            },
        )
    _say(f"chain verdict: {report.verdict.value}")
    return report


@dataclass(frozen=True)
class _Correlation:
    parameters: dict
    cloud_log_name: str
    event_count: int
    cloud_ledger: list[LedgerEntry]
    skew: SkewEstimate
    links: list[SyncLink]
    timeline: UnifiedTimeline
    findings: list[CloudUsageFinding]


def _step_correlate(
    dump: DeviceDump,
    apps: Sequence[AppRecord],
    cloud_log: Path,
    out: Path,
    locale: Locale,
    window_seconds: int,
    min_support: int,
) -> _Correlation:
    cloud_ledger: list[LedgerEntry] = []
    events = ingest_cloud_log(cloud_log, cloud_ledger)

    try:
        skew = estimate_clock_skew(dump.records, events, min_support)
    except InsufficientSupport as exc:
        _say(f"warning: {exc}; proceeding with offset 0")
        skew = zero_skew()

    links = match_synced_artifacts(dump.records, events, skew, window_seconds)
    timeline = build_timeline(dump.records, events, skew)
    uninstall = detect_uninstall_evidence(apps, events)
    findings = derive_cloud_usage_findings(links, uninstall, events)
    parameters = {
        "window_seconds": window_seconds,
        "min_skew_support": min_support,
        "locale": locale.value,
        "timestamp_assumption": TIMESTAMP_ASSUMPTION,
    }

    _write_json(out / "skew.json", skew_to_dict(skew))
    _write_json(out / "links.json", [link_to_dict(link) for link in links])
    _write_json(
        out / "timeline.json",
        {"entries": timeline_to_list(timeline), "excluded_undated": timeline.excluded_undated},
    )
    _write_json(
        out / "findings.json",
        [finding_to_dict(f, f"F{i + 1:03d}") for i, f in enumerate(findings)],
    )
    _write_json(
        out / "cloud_log.json",
        {
            "name": cloud_log.name,
            "event_count": len(events),
            "ledger": ledger_to_list(cloud_ledger),
        },
    )
    _write_json(out / "parameters.json", parameters)
    _say(
        f"correlated: skew {skew.offset_seconds} s "
        f"({'fallback' if skew.fallback else f'support {skew.support_count}'}), "
        f"{len(links)} links, {len(findings)} findings"
    )
    return _Correlation(
        parameters=parameters,
        cloud_log_name=cloud_log.name,
        event_count=len(events),
        cloud_ledger=cloud_ledger,
        skew=skew,
        links=links,
        timeline=timeline,
        findings=findings,
    )


def _step_enrich(
    dump: DeviceDump, out: Path, geo_table: Optional[Path]
) -> tuple[IdentityGraph, list[GeoRecord]]:
    messages, calls, contacts = parse_comm_artifacts(dump)
    emails = parse_email_accounts(dump)
    graph = build_identity_graph(contacts, messages, calls, emails)
    _write_json(out / "identity_graph.json", identity_graph_to_dict(graph))

    geo_hits = []
    if geo_table is not None:
        table = load_geo_table(geo_table)
        seen = set()
        for record in dump.records:
            ip = record.attributes.get("ip")
            if not ip or ip in seen:
                continue
            seen.add(ip)
            hit = resolve_ip(ip, table)
            if hit is not None:
                geo_hits.append(hit)
    _write_json(out / "geo.json", geo_to_list(geo_hits))
    _say(
        f"enriched: {len(graph.nodes)} identifiers, {len(graph.edges)} edges, "
        f"{len(geo_hits)} geolocated addresses"
    )
    return graph, geo_hits


@dataclass(frozen=True)
class _Analysis:
    """Every stage result of one `run-all`, all from a single ingest."""

    dump: DeviceDump
    apps: list[AppRecord]
    parse_ledger: list[LedgerEntry]
    verification: VerificationReport
    correlation: _Correlation
    identity_graph: IdentityGraph
    geo: list[GeoRecord]


def _load_case_report(out: Path, case_id: Optional[str]) -> CaseReport:
    """Rebuild a report from the stage files that earlier subcommands wrote."""
    dump_data = _read_stage(out / "dump.json", {}, ("dump_id", "collected_at"))
    verification = _read_stage(out / "verification.json", None, ("verdict",))
    parameters = _read_stage(
        out / "parameters.json",
        {
            "window_seconds": DEFAULT_WINDOW_SECONDS,
            "min_skew_support": DEFAULT_MIN_SKEW_SUPPORT,
            "locale": Locale.DAY_FIRST.value,
            "timestamp_assumption": TIMESTAMP_ASSUMPTION,
        },
    )
    timeline_data = _read_stage(out / "timeline.json", {"entries": [], "excluded_undated": 0})
    cloud_meta = _read_stage(out / "cloud_log.json", None, ("name", "event_count"))

    effective_case_id = case_id or dump_data.get("dump_id") or "case"
    device = dict(dump_data.get("device", {}))
    app_counts = dump_data.get("app_counts")
    if app_counts:
        device["installed_app_count"] = app_counts["installed"]
        device["uninstalled_app_count"] = app_counts["uninstalled"]

    inputs: dict = {"dumps": [], "cloud_logs": []}
    ledger = list(dump_data.get("ledger", [])) + list(dump_data.get("parse_ledger", []))
    if dump_data:
        inputs["dumps"].append(
            {
                "dump_id": dump_data["dump_id"],
                "collected_at": dump_data["collected_at"],
                "record_count": len(dump_data.get("records", [])),
                "chain_verdict": verification["verdict"] if verification else "Unverified",
            }
        )
    if cloud_meta:
        inputs["cloud_logs"].append(
            {"name": cloud_meta["name"], "event_count": cloud_meta["event_count"]}
        )
        ledger.extend(cloud_meta.get("ledger", []))

    return CaseReport(
        case_id=effective_case_id,
        tool_version=__version__,
        parameters=parameters,
        inputs=inputs,
        device=device,
        skew=_read_stage(out / "skew.json", None),
        links=_read_stage(out / "links.json", []),
        findings=_read_stage(out / "findings.json", []),
        timeline=timeline_data.get("entries", []),
        excluded_undated=timeline_data.get("excluded_undated", 0),
        identity_graph=_read_stage(out / "identity_graph.json", {"nodes": [], "edges": []}),
        geo=_read_stage(out / "geo.json", []),
        error_ledger=ledger,
    )


def _step_report(
    out: Path, case_id: Optional[str], format: ReportFormat, analysis: Optional[_Analysis] = None
) -> Path:
    if analysis is None:
        report = _load_case_report(out, case_id)
    else:
        correlation = analysis.correlation
        report = assemble_case_report(
            case_id=case_id or analysis.dump.dump_id or "case",
            tool_version=__version__,
            parameters=correlation.parameters,
            dump=analysis.dump,
            apps=analysis.apps,
            cloud_log_names=[correlation.cloud_log_name],
            cloud_event_count=correlation.event_count,
            verification=analysis.verification,
            skew=correlation.skew,
            links=correlation.links,
            findings=correlation.findings,
            timeline=correlation.timeline,
            identity_graph=analysis.identity_graph,
            geo=analysis.geo,
            extra_ledger=[*analysis.parse_ledger, *correlation.cloud_ledger],
        )
    suffix = {"json": ".report.json", "md": ".report.md", "html": ".report.html"}[format.value]
    path = out / f"{report.case_id}{suffix}"
    atomic.write_bytes(path, render_report(report, format))
    _say(f"report written to {path}")
    return path


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, like every other failure."""

    def error(self, message: str) -> NoReturn:
        hint = f"run '{self.prog} --help' for usage"
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message} ({hint})\n")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="synctrail",
        description=(
            "Correlate mobile device artifact dumps with cloud event logs to prove "
            "cloud service usage, under tamper-evident hash chains."
        ),
    )
    parser.add_argument("--version", action="version", version=f"synctrail {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_locale(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--locale",
            choices=sorted(_LOCALES),
            default="day-first",
            help="reading order for legacy DD/MM timestamps (default: day-first)",
        )

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    def add_correlation(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--window-seconds", type=_int_at_least(0), default=DEFAULT_WINDOW_SECONDS
        )
        p.add_argument(
            "--min-skew-support", type=_int_at_least(1), default=DEFAULT_MIN_SKEW_SUPPORT
        )

    p = sub.add_parser("simulate", help="generate a synthetic case with ground truth")
    add_out(p)
    p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p.add_argument("--apps", type=int, default=6)
    p.add_argument("--messages", type=int, default=8)
    p.add_argument("--calls", type=int, default=4)
    p.add_argument("--uploads", type=int, default=10)
    p.add_argument("--skew-seconds", type=int, default=0)
    p.add_argument("--sync-lag-max", type=int, default=2)
    p.add_argument("--uninstall-fraction", type=float, default=0.2)
    p.add_argument("--no-digest-logging", action="store_true")

    p = sub.add_parser("ingest", help="parse a bundle into dump.json")
    p.add_argument("bundle", type=Path)
    add_out(p)
    add_locale(p)
    p.add_argument(
        "--dump-canonical",
        type=Path,
        metavar="FILE",
        help="debug: also write the concatenated canonical record bytes",
    )

    p = sub.add_parser("seal", help="compute the custody chain over a bundle")
    p.add_argument("bundle", type=Path)
    add_locale(p)
    p.add_argument("--examiner", default="unknown")
    p.add_argument("--isolation", choices=sorted(_ISOLATION), default="none")

    p = sub.add_parser("verify", help="verify a sealed bundle (exit 3 when tampered)")
    p.add_argument("bundle", type=Path)
    add_locale(p)
    p.add_argument("--out", type=Path, default=None, help="also write verification.json here")

    p = sub.add_parser("diff", help="compare two acquisitions of the same device")
    p.add_argument("bundle_a", type=Path)
    p.add_argument("bundle_b", type=Path)
    add_out(p)
    add_locale(p)
    p.add_argument("--allow-device-mismatch", action="store_true")

    p = sub.add_parser("correlate", help="estimate skew, match artifacts, derive findings")
    p.add_argument("bundle", type=Path)
    p.add_argument("cloud_log", type=Path)
    add_out(p)
    add_locale(p)
    add_correlation(p)

    p = sub.add_parser("enrich", help="identity graph and offline IP geolocation")
    p.add_argument("bundle", type=Path)
    add_out(p)
    add_locale(p)
    p.add_argument("--geo-table", type=Path, default=None, help="CSV range table")

    p = sub.add_parser("report", help="render the case report from prior stage outputs")
    add_out(p)
    p.add_argument("--case-id", default=None)
    p.add_argument("--format", choices=sorted(_FORMATS), default="json")

    p = sub.add_parser("run-all", help="ingest, seal, verify, correlate, enrich, report")
    p.add_argument("bundle", type=Path)
    p.add_argument("cloud_log", type=Path)
    add_out(p)
    add_locale(p)
    add_correlation(p)
    p.add_argument("--examiner", default="unknown")
    p.add_argument("--isolation", choices=sorted(_ISOLATION), default="none")
    p.add_argument("--geo-table", type=Path, default=None)
    p.add_argument("--case-id", default=None)
    p.add_argument("--format", choices=sorted(_FORMATS), default="json")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute one subcommand, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        if args.command == "simulate":
            try:
                params = SimParams(
                    seed=args.seed,
                    n_apps=args.apps,
                    n_messages=args.messages,
                    n_calls=args.calls,
                    n_uploads=args.uploads,
                    skew_seconds=args.skew_seconds,
                    sync_lag_max_s=args.sync_lag_max,
                    uninstall_fraction=args.uninstall_fraction,
                    digest_logging=not args.no_digest_logging,
                )
            except ValueError as exc:
                _say(f"error: {exc}")
                return EXIT_USAGE
            case = generate_case(params, args.out)
            _say(f"case written: {case.bundle_dir} and {case.cloud_log}")
            return EXIT_OK

        locale = _LOCALES[getattr(args, "locale", "day-first")]

        if args.command == "ingest":
            _step_ingest(args.bundle, args.out, locale, args.dump_canonical)
            return EXIT_OK

        if args.command == "seal":
            dump = ingest_device_dump(args.bundle, locale)
            _step_seal(dump, args.bundle, args.examiner, _ISOLATION[args.isolation])
            return EXIT_OK

        if args.command == "verify":
            dump = ingest_device_dump(args.bundle, locale)
            report = _step_verify(dump, args.bundle, args.out)
            return EXIT_OK if report.verdict is Verdict.INTACT else EXIT_TAMPERED

        if args.command == "diff":
            a = ingest_device_dump(args.bundle_a, locale)
            b = ingest_device_dump(args.bundle_b, locale)
            diff = diff_acquisitions(a, b, allow_device_mismatch=args.allow_device_mismatch)
            _write_json(
                args.out / "diff.json",
                {
                    "added": list(diff.added),
                    "removed": list(diff.removed),
                    "changed": list(diff.changed),
                    "identical_count": diff.identical_count,
                },
            )
            _say(
                f"diff: {len(diff.added)} added, {len(diff.removed)} removed, "
                f"{len(diff.changed)} changed, {diff.identical_count} identical"
            )
            return EXIT_OK

        if args.command == "correlate":
            dump = ingest_device_dump(args.bundle, locale)
            _step_correlate(
                dump,
                parse_app_inventory(dump),
                args.cloud_log,
                args.out,
                locale,
                args.window_seconds,
                args.min_skew_support,
            )
            return EXIT_OK

        if args.command == "enrich":
            _step_enrich(ingest_device_dump(args.bundle, locale), args.out, args.geo_table)
            return EXIT_OK

        if args.command == "report":
            _step_report(args.out, args.case_id, _FORMATS[args.format])
            return EXIT_OK

        if args.command == "run-all":
            # One ingest feeds every stage, so the chain verdict covers
            # exactly the records that are correlated and reported.
            dump, apps, parse_ledger = _step_ingest(args.bundle, args.out, locale)
            # Never re-seal an already sealed bundle: that would launder
            # any modification made since the original seal.
            if (args.bundle / "manifest.sealed.json").is_file():
                _say("bundle already sealed, keeping the existing manifest")
            else:
                _step_seal(dump, args.bundle, args.examiner, _ISOLATION[args.isolation])
            verification = _step_verify(dump, args.bundle, args.out)
            correlation = _step_correlate(
                dump,
                apps,
                args.cloud_log,
                args.out,
                locale,
                args.window_seconds,
                args.min_skew_support,
            )
            graph, geo = _step_enrich(dump, args.out, args.geo_table)
            analysis = _Analysis(
                dump=dump,
                apps=apps,
                parse_ledger=parse_ledger,
                verification=verification,
                correlation=correlation,
                identity_graph=graph,
                geo=geo,
            )
            _step_report(args.out, args.case_id, _FORMATS[args.format], analysis)
            return EXIT_OK if verification.verdict is Verdict.INTACT else EXIT_TAMPERED

    except _FATAL_ERRORS as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE_FATAL

    raise AssertionError(f"unhandled subcommand {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
