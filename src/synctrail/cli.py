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
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional, Sequence

# Every layer function that run-all calls is imported here, at module
# level, and called through this module's globals: the benchmark's
# tracer (perfbench/tracing.py) wraps them through vars(cli). The
# simulator is imported by `simulate` alone, so other commands never
# load it.
from . import __version__, atomic
from .acquisition import (
    UNINSTALLED,
    DeviceDump,
    dump_to_json_dict,
    ingest_cloud_log,
    ingest_device_dump,
    load_json_file,
    lone_surrogate,
    os_name,
    parse_app_inventory,
    profile_format_warnings,
    record_rows,
)
from .correlation import (
    DEFAULT_MIN_SKEW_SUPPORT,
    DEFAULT_WINDOW_SECONDS,
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    digest_index,
    estimate_clock_skew,
    match_synced_artifacts,
)
from .errors import ForensicsError
from .evidence import LOCALES, EvidenceRecord
from .osint import (
    build_identity_graph,
    load_geo_table,
    resolve_ip,
)
from .preservation import (
    INTACT,
    ISOLATION_METHODS,
    SEALED_MANIFEST,
    diff_acquisitions,
    load_sealed_manifest,
    seal_dump,
    verify_bundle,
    write_sealed_manifest,
)
from .reporting import (
    REPORT_FORMATS,
    STAGE_FILES,
    STAGE_JSON,
    build_case_report,
    parameters_to_dict,
    render_report,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TAMPERED = 3
EXIT_PARSE_FATAL = 4

# Only verify_bundle turns a ForensicsError, RecordCountMismatch, into
# a verdict (Tampered); any other that escapes a stage is fatal.
_FATAL_ERRORS = (ForensicsError, OSError)

# Stage payloads by stage-file name, as written to --out.
Stages = dict[str, Any]


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path: Path, payload: object) -> None:
    """Write a stage file: ``json.dumps(payload, ensure_ascii=False,
    separators=(",", ":")) + "\\n"`` in UTF-8, one line, as it is encoded.

    When the encoding fails, the file is left as it was.
    """
    with atomic.replacing(path) as handle:
        write_json(payload, handle, STAGE_JSON)


def _write_stages(out: Path, stages: Stages) -> Stages:
    for name, payload in stages.items():
        _write_json(out / name, payload)
    return stages


def _read_stage(path: Path, shape: object) -> Any:
    """Load a stage file of ``shape``; anything else raises ForensicsError naming it."""
    try:
        return load_json_file(path, shape)
    except ValueError as exc:
        raise ForensicsError(f"stage file {path} {exc}") from None


def _case_id_problem(case_id: str) -> Optional[str]:
    """Why ``case_id`` cannot name a report file inside --out, or None."""
    if case_id in ("", ".", "..") or any(c in case_id for c in "/\\\0"):
        return "must be one path component: not empty, '.' or '..', no '/', '\\' or NUL"
    return None


def _utf8(what: str, text: str) -> str:
    """``text`` as given; ArgumentTypeError if it holds a byte that is not UTF-8."""
    if lone_surrogate(text):
        raise argparse.ArgumentTypeError(f"{what} '{os_name(text)}' is not UTF-8")
    return text


def _examiner(text: str) -> str:
    return _utf8("examiner", text)


def _case_id(text: str) -> str:
    _utf8("case id", text)
    problem = _case_id_problem(text)
    if problem:
        raise argparse.ArgumentTypeError(f"case id {text!r} {problem}")
    return text


def _verdict_exit(stages: Stages) -> int:
    intact = stages["verification.json"]["verdict"] == INTACT
    return EXIT_OK if intact else EXIT_TAMPERED


def _write_records(path: Path, records: Sequence[EvidenceRecord]) -> None:
    """Write ``records.jsonl``: one compact ``record_rows`` row a line, a block at a time."""
    with atomic.replacing(path) as handle:
        for start in range(0, len(records), STAGE_JSON.block):
            rows = record_rows(records[start:start + STAGE_JSON.block])
            handle.write("".join(STAGE_JSON.encode(row) + "\n" for row in rows).encode("utf-8"))


def _step_ingest(bundle: Path, out: Path, locale: str) -> tuple[DeviceDump, Stages]:
    dump = ingest_device_dump(bundle, locale)
    for warning in profile_format_warnings(dump.device):
        _say(f"note: {warning}")
    parse_ledger: list[dict] = []
    apps = parse_app_inventory(dump.records, parse_ledger)
    uninstalled = sum(1 for app in apps if app.attributes["status"].lower() == UNINSTALLED)
    payload = dump_to_json_dict(dump)
    payload["app_counts"] = {"installed": len(apps) - uninstalled, "uninstalled": uninstalled}
    payload["parse_ledger"] = parse_ledger
    _write_json(out / "dump.json", payload)
    _say(
        f"ingested {len(dump.records)} records from {bundle.name} "
        f"({len(dump.ledger)} ledger entries)"
    )
    return dump, {"dump.json": payload}


def _step_seal(dump: DeviceDump, bundle: Path, examiner: str, isolation: str) -> None:
    manifest = seal_dump(dump, examiner=examiner, isolation_method=isolation)
    path = write_sealed_manifest(manifest, bundle)
    _say(
        f"sealed {manifest['record_count']} records, chain head "
        f"{manifest['chain_head']} -> {path.name}"
    )


def _step_verify(
    bundle: Path, out: Optional[Path], locale: str, dump: Optional[DeviceDump] = None
) -> Stages:
    """Check the bundle against its sealed manifest; ``dump`` is the bundle as run-all read it.

    ``verify_bundle`` decides the verdict; this step notes what the
    manifest leaves out or reads differently, and says why a bundle is
    tampered.
    """
    manifest = load_sealed_manifest(bundle)
    if "files" not in manifest:
        _say(
            f"note: {SEALED_MANIFEST} seals no file table, so only the bundle's records are "
            "verified"
        )
    elif manifest["locale"] != locale:
        _say(
            f"note: the bundle was sealed reading --locale {manifest['locale']}; "
            f"its custody is verified with that locale, not {locale}"
        )
    verification, reasons = verify_bundle(bundle, manifest, locale, dump)
    for reason in reasons:
        _say(reason)
    stages = {"verification.json": verification}
    if out is not None:
        _write_stages(out, stages)
    _say(f"chain verdict: {verification['verdict']}")
    return stages


def _step_correlate(
    dump: DeviceDump,
    cloud_log: Path,
    out: Path,
    locale: str,
    window_seconds: int,
    min_support: int,
) -> Stages:
    cloud_ledger: list[dict] = []
    events = ingest_cloud_log(cloud_log, cloud_ledger)
    # One digest index feeds the malformed-digest note, skew and matching.
    index = digest_index(dump.records, events)
    if index[1]:
        _say(
            f"note: {index[1]} device record(s) carry a content_digest that is not 64 hex "
            "characters; such a value gives no skew support and no ExactDigest link"
        )

    skew, short = estimate_clock_skew(index, min_support)
    if short is not None:
        _say(f"warning: {short}; proceeding with offset 0")

    links = match_synced_artifacts(dump.records, events, skew, window_seconds, index)
    del index  # nothing past matching reads it: free it before the timeline is built
    out_of_range: list[str] = []
    timeline = build_timeline(dump.records, events, skew, out_of_range)
    log_name = os_name(cloud_log.name)
    cloud_ledger += (
        {
            "file": log_name,
            "line": 0,
            "message": f"event {event_id!r}: the skew correction moves its time out of "
            "1970-2100, so it is left off the timeline",
        }
        for event_id in out_of_range
    )
    uninstall = detect_uninstall_evidence(dump.records, events)
    findings = derive_cloud_usage_findings(links, uninstall, events, skew)
    stages = _write_stages(out, {
        "skew.json": skew,
        "links.json": links,
        "timeline.json": timeline,
        "findings.json": findings,
        "cloud_log.json": {
            "name": log_name,
            "event_count": len(events),
            "ledger": cloud_ledger,
        },
        "parameters.json": parameters_to_dict(window_seconds, min_support, locale),
    })
    support = "fallback" if skew["fallback"] else f"support {skew['support_count']}"
    _say(
        f"correlated: skew {skew['offset_seconds']} s ({support}), "
        f"{len(links)} links, {len(findings)} findings"
    )
    return stages


def _step_enrich(dump: DeviceDump, out: Path, geo_table: Optional[Path]) -> Stages:
    left_out: list[tuple[str, str]] = []
    graph = build_identity_graph(dump.records, left_out)
    if left_out:
        reasons = Counter(reason for _, reason in left_out)
        _say(
            f"note: {len(left_out)} comm record(s) left out of the identity graph ("
            + ", ".join(f"{reason}: {count}" for reason, count in sorted(reasons.items()))
            + ")"
        )

    geo_hits = []
    if geo_table is not None:
        table = load_geo_table(geo_table)
        seen = set()
        for record in dump.records:
            # resolve_ip reads the address without surrounding whitespace,
            # so " 10.0.0.7" and "10.0.0.7" are one address, resolved once.
            ip = record.attributes.get("ip", "").strip()
            if not ip or ip in seen:
                continue
            seen.add(ip)
            hit = resolve_ip(ip, table)
            if hit is not None:
                geo_hits.append(hit)
        geo_hits.sort(key=lambda hit: hit["ip"])
    stages = _write_stages(out, {"identity_graph.json": graph, "geo.json": geo_hits})
    _say(
        f"enriched: {len(graph['nodes'])} identifiers, {len(graph['edges'])} edges, "
        f"{len(geo_hits)} geolocated addresses"
    )
    return stages


def _step_report(out: Path, stages: Stages, case_id: Optional[str], format: str) -> Path:
    report = build_case_report(stages, __version__, case_id)
    problem = _case_id_problem(report["case_id"])
    if problem:
        raise ForensicsError(
            f"dump id {report['case_id']!r} cannot name the report file: it {problem}"
        )
    path = out / f"{report['case_id']}.report.{format}"
    with atomic.replacing(path) as handle:
        render_report(report, handle, format)
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


# Each subcommand's help line, in the order `--help` lists them.
_COMMANDS = {
    "simulate": "generate a synthetic case with ground truth",
    "ingest": "parse a bundle into dump.json and records.jsonl",
    "seal": "compute the custody chain over a bundle",
    "verify": "verify a sealed bundle (exit 3 when tampered)",
    "diff": "compare two acquisitions of the same device",
    "correlate": "estimate skew, match artifacts, derive findings",
    "enrich": "identity graph and offline IP geolocation",
    "report": "render the case report from prior stage outputs",
    "run-all": "ingest, seal, verify, correlate, enrich, report",
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line's parser.

    Every subcommand is listed, but when ``command`` names one, only it
    gets its arguments: parsing that command, or its ``--help``, reads
    no other. Any other ``command``, None included, gets them all.
    """
    parser = _Parser(
        prog="synctrail",
        description=(
            "Correlate mobile device artifact dumps with cloud event logs to prove "
            "cloud service usage, under tamper-evident hash chains."
        ),
    )
    parser.add_argument("--version", action="version", version=f"synctrail {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command == name or command not in _COMMANDS:
            _add_arguments(name, p)
    return parser


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    """Add the arguments of subcommand ``command`` to its parser ``p``."""

    def add_locale() -> None:
        p.add_argument(
            "--locale",
            choices=LOCALES,
            default="day-first",
            help="reading order for legacy DD/MM timestamps (default: day-first)",
        )

    def add_out() -> None:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    def add_correlation() -> None:
        p.add_argument(
            "--window-seconds", type=_int_at_least(0), default=DEFAULT_WINDOW_SECONDS
        )
        p.add_argument(
            "--min-skew-support", type=_int_at_least(1), default=DEFAULT_MIN_SKEW_SUPPORT
        )

    if command == "simulate":
        add_out()
        p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
        p.add_argument("--apps", type=int, default=6)
        p.add_argument("--messages", type=int, default=8)
        p.add_argument("--calls", type=int, default=4)
        p.add_argument("--uploads", type=int, default=10)
        p.add_argument("--skew-seconds", type=int, default=0)
        p.add_argument("--sync-lag-max", type=int, default=2)
        p.add_argument("--uninstall-fraction", type=float, default=0.2)
        p.add_argument("--no-digest-logging", action="store_true")
    elif command == "ingest":
        p.add_argument("bundle", type=Path)
        add_out()
        add_locale()
        p.add_argument(
            "--dump-canonical",
            type=Path,
            metavar="FILE",
            help="debug: also write the concatenated canonical record bytes",
        )
    elif command == "seal":
        p.add_argument("bundle", type=Path)
        add_locale()
        p.add_argument("--examiner", type=_examiner, default="unknown")
        p.add_argument("--isolation", choices=ISOLATION_METHODS, default="none")
    elif command == "verify":
        p.add_argument("bundle", type=Path)
        add_locale()
        p.add_argument("--out", type=Path, default=None, help="also write verification.json here")
    elif command == "diff":
        p.add_argument("bundle_a", type=Path)
        p.add_argument("bundle_b", type=Path)
        add_out()
        add_locale()
        p.add_argument("--allow-device-mismatch", action="store_true")
    elif command == "correlate":
        p.add_argument("bundle", type=Path)
        p.add_argument("cloud_log", type=Path)
        add_out()
        add_locale()
        add_correlation()
    elif command == "enrich":
        p.add_argument("bundle", type=Path)
        add_out()
        add_locale()
        p.add_argument("--geo-table", type=Path, default=None, help="CSV range table")
    elif command == "report":
        add_out()
        p.add_argument("--case-id", type=_case_id, default=None)
        p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    else:  # run-all
        p.add_argument("bundle", type=Path)
        p.add_argument("cloud_log", type=Path)
        add_out()
        add_locale()
        add_correlation()
        p.add_argument("--examiner", type=_examiner, default="unknown")
        p.add_argument("--isolation", choices=ISOLATION_METHODS, default="none")
        p.add_argument("--geo-table", type=Path, default=None)
        p.add_argument("--case-id", type=_case_id, default=None)
        p.add_argument("--format", choices=REPORT_FORMATS, default="json")


def _command_named(argv: Sequence[str]) -> Optional[str]:
    """The subcommand that ``argv`` runs: its first word that is not an option.

    The tool's own options take no value, so that word is the command.
    """
    return next((word for word in argv if not word.startswith("-")), None)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute one subcommand, return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_command_named(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        if args.command == "simulate":
            from .simulator import SimParams, generate_case

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

        locale = getattr(args, "locale", "day-first")

        if args.command == "ingest":
            dump = _step_ingest(args.bundle, args.out, locale)[0]
            _write_records(args.out / "records.jsonl", dump.records)
            if args.dump_canonical is not None:
                atomic.write_bytes(args.dump_canonical, b"".join(r.canonical for r in dump.records))
                _say(f"canonical record bytes written to {args.dump_canonical}")
            return EXIT_OK

        if args.command == "seal":
            # Sealing again would launder any edit made since the first seal.
            sealed = args.bundle / SEALED_MANIFEST
            if sealed.exists():
                _say(f"error: {sealed} already exists; remove it before sealing again")
                return EXIT_PARSE_FATAL
            dump = ingest_device_dump(args.bundle, locale)
            _step_seal(dump, args.bundle, args.examiner, ISOLATION_METHODS[args.isolation])
            return EXIT_OK

        if args.command == "verify":
            return _verdict_exit(_step_verify(args.bundle, args.out, locale))

        if args.command == "diff":
            a = ingest_device_dump(args.bundle_a, locale)
            b = ingest_device_dump(args.bundle_b, locale)
            diff = diff_acquisitions(a, b, allow_device_mismatch=args.allow_device_mismatch)
            _write_json(args.out / "diff.json", diff)
            _say(
                f"diff: {len(diff['added'])} added, {len(diff['removed'])} removed, "
                f"{len(diff['changed'])} changed, {diff['identical_count']} identical"
            )
            return EXIT_OK

        if args.command == "correlate":
            _step_correlate(
                ingest_device_dump(args.bundle, locale),
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
            stages = {
                name: _read_stage(args.out / name, shape)
                for name, (_, shape) in STAGE_FILES.items()
                if (args.out / name).is_file()
            }
            if not stages:
                # A mistyped --out would otherwise give a report of empty sections.
                _say(f"error: {args.out} holds no stage file to report on")
                return EXIT_PARSE_FATAL
            _step_report(args.out, stages, args.case_id, args.format)
            return EXIT_OK

        if args.command == "run-all":
            # One ingest feeds every stage, so the chain verdict covers
            # exactly the records that are correlated and reported.
            dump, stages = _step_ingest(args.bundle, args.out, locale)
            # Never re-seal an already sealed bundle: that would launder
            # any modification made since the original seal.
            if (args.bundle / SEALED_MANIFEST).exists():
                _say("bundle already sealed, keeping the existing manifest")
            else:
                _step_seal(dump, args.bundle, args.examiner, ISOLATION_METHODS[args.isolation])
            stages.update(_step_verify(args.bundle, args.out, locale, dump))
            stages.update(
                _step_correlate(
                    dump,
                    args.cloud_log,
                    args.out,
                    locale,
                    args.window_seconds,
                    args.min_skew_support,
                )
            )
            stages.update(_step_enrich(dump, args.out, args.geo_table))
            _step_report(args.out, stages, args.case_id, args.format)
            return _verdict_exit(stages)

    except _FATAL_ERRORS as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE_FATAL

    raise AssertionError(f"unhandled subcommand {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
