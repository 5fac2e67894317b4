from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import synctrail
from synctrail import cli, evidence, preservation, reporting
from synctrail.acquisition import ingest_device_dump, record_rows
from synctrail.cli import run
from synctrail.errors import ForensicsError
from synctrail.evidence import canonical_encode
from synctrail.simulator import SimParams, generate_case, inject_tamper

from test_byte_pin import comm_shapes, golden, simulated, simulated_metadata_only, sync_shapes


def simulate(tmp_path, **kwargs):
    params = SimParams(seed=kwargs.pop("seed", 1000), **kwargs)
    return generate_case(params, tmp_path / "case")


def subparsers(parser) -> dict:
    """The parser of each subcommand, by name."""
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return dict(action.choices)


def _forensics_errors() -> list[type]:
    """ForensicsError and every subclass of it, at any depth."""
    found, pending = [], [ForensicsError]
    while pending:
        error = pending.pop()
        found.append(error)
        pending += error.__subclasses__()
    return sorted(found, key=lambda error: error.__name__)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["transmogrify"]) == 2

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "synctrail" in capsys.readouterr().out

    def test_bad_simulate_params_usage_error(self, tmp_path):
        rc = run(["simulate", "--out", str(tmp_path), "--seed", "1", "--uploads", "-3"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window-seconds", "-5"),
            ("--window-seconds", "ten"),
            ("--min-skew-support", "0"),
            ("--min-skew-support", "-2"),
        ],
    )
    @pytest.mark.parametrize("command", ["correlate", "run-all"])
    def test_bad_correlation_values_are_one_line_usage_errors(
        self, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        assert run([command, "bundle", "log.jsonl", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"argument {flag}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_parser_built_for_one_command_reads_its_arguments_only(self, command):
        full, lazy = cli.build_parser(), cli.build_parser(command)
        assert lazy.format_help() == full.format_help()
        assert lazy.format_usage() == full.format_usage()
        for name, parser in subparsers(lazy).items():
            if name == command:
                assert parser.format_help() == subparsers(full)[name].format_help()
            else:
                assert [action.dest for action in parser._actions] == ["help"]

    @pytest.mark.parametrize("command", [None, "transmogrify", "-h"])
    def test_no_command_or_an_unknown_one_builds_every_argument(self, command):
        full, built = subparsers(cli.build_parser()), subparsers(cli.build_parser(command))
        assert {name: p.format_help() for name, p in built.items()} == {
            name: p.format_help() for name, p in full.items()
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"], ["ingest", "--help"], ["run-all", "-h"], ["--version", "run-all"],
            ["-h", "report"], ["run-all", "x"], ["report", "--format", "pdf"], ["verify"],
            ["correlate", "a", "b", "--window-seconds", "-1"], ["--", "seal", "b"],
            ["seal", "b", "--isolation", "zz"], ["transmogrify", "a"], [],
        ],
    )
    def test_output_and_exit_equal_the_full_parser(self, argv, capsys, monkeypatch):
        code = run(argv)
        lazy = capsys.readouterr()
        monkeypatch.setattr(cli, "_command_named", lambda argv: None)
        assert run(argv) == code
        assert capsys.readouterr() == lazy

    def test_run_all_with_no_digests_and_least_support_falls_back(self, tmp_path):
        case = simulate(tmp_path, digest_logging=False)
        out = tmp_path / "out"
        argv = ["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out),
                "--min-skew-support", "1", "--window-seconds", "0"]
        assert run(argv) == 0
        skew = json.loads((out / "skew.json").read_text())
        assert skew["fallback"] is True

    def test_verify_untampered_is_zero(self, tmp_path):
        case = simulate(tmp_path)
        assert run(["seal", str(case.bundle_dir)]) == 0
        assert run(["verify", str(case.bundle_dir)]) == 0

    def test_verify_tampered_is_three(self, tmp_path):
        case = simulate(tmp_path)
        assert run(["seal", str(case.bundle_dir)]) == 0
        inject_tamper(case.bundle_dir, seed=13)
        assert run(["verify", str(case.bundle_dir)]) == 3

    def test_verify_after_append_is_three(self, tmp_path):
        case = simulate(tmp_path)
        run(["seal", str(case.bundle_dir)])
        with open(case.bundle_dir / "messages.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"id":"msg-8888","peer":"+3530","body":"late"}\n')
        assert run(["verify", str(case.bundle_dir)]) == 3

    def test_verify_with_a_link_removed_is_three(self, tmp_path, capsys):
        case = simulate(tmp_path)
        assert run(["seal", str(case.bundle_dir)]) == 0
        sealed = case.bundle_dir / "manifest.sealed.json"
        data = json.loads(sealed.read_text(encoding="utf-8"))
        data["record_links"].pop(5)
        sealed.write_text(json.dumps(data), encoding="utf-8")
        count = data["record_count"]
        capsys.readouterr()
        assert run(["verify", str(case.bundle_dir)]) == 3
        assert capsys.readouterr().err == (
            f"verification failed: manifest stores {count - 1} links for {count} records\n"
            "chain verdict: Tampered\n"
        )

    def test_missing_manifest_is_parse_fatal(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert run(["ingest", str(empty), "--out", str(tmp_path / "o")]) == 4

    def test_unsealed_verify_is_parse_fatal(self, tmp_path):
        case = simulate(tmp_path)
        assert run(["verify", str(case.bundle_dir)]) == 4

    def test_duplicate_event_id_is_parse_fatal(self, tmp_path):
        case = simulate(tmp_path)
        log = tmp_path / "dup.jsonl"
        log.write_text(
            '{"id":"e1","kind":"Login","ts":"2016-05-10T10:00:00Z"}\n'
            '{"id":"e1","kind":"Login","ts":"2016-05-10T11:00:00Z"}\n'
        )
        rc = run(
            ["correlate", str(case.bundle_dir), str(log), "--out", str(tmp_path / "o")]
        )
        assert rc == 4

    @pytest.mark.parametrize("error", _forensics_errors(), ids=lambda error: error.__name__)
    @pytest.mark.parametrize(
        "stage, command",
        [
            ("ingest_device_dump", "run-all"),
            ("build_identity_graph", "enrich"),
            ("render_report", "report"),
        ],
    )
    def test_any_forensics_error_escaping_a_stage_is_parse_fatal(
        self, tmp_path, capsys, monkeypatch, golden_bundle, golden_cloud_log,
        error, stage, command,
    ):
        def fail(*args, **kwargs):
            raise error(f"{error.__name__} escaped {stage}")

        monkeypatch.setattr(cli, stage, fail)
        out = tmp_path / "out"
        if command == "report":
            # report renders only from a directory that holds a stage file.
            out.mkdir()
            (out / "parameters.json").write_text("{}\n")
        argv = {
            "run-all": ["run-all", str(golden_bundle), str(golden_cloud_log), "--out", str(out)],
            "enrich": ["enrich", str(golden_bundle), "--out", str(out)],
            "report": ["report", "--out", str(out)],
        }[command]
        assert run(argv) == 4
        assert capsys.readouterr().err == f"error: {error.__name__} escaped {stage}\n"


class TestSubcommandOutputs:
    def test_simulate_writes_case(self, tmp_path):
        rc = run(["simulate", "--out", str(tmp_path), "--seed", "77", "--uploads", "3"])
        assert rc == 0
        assert (tmp_path / "bundle" / "manifest.json").is_file()
        assert (tmp_path / "cloud_events.jsonl").is_file()
        assert (tmp_path / "ground_truth.json").is_file()

    def test_ingest_writes_dump_json(self, tmp_path):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        assert run(["ingest", str(case.bundle_dir), "--out", str(out)]) == 0
        data = json.loads((out / "dump.json").read_text())
        assert data["dump_id"] == "sim-1000"
        assert "records" not in data
        rows = record_rows(ingest_device_dump(case.bundle_dir).records)
        assert data["record_count"] == len(rows)
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == rows
        compact = [json.dumps(row, ensure_ascii=False, separators=(",", ":")) for row in rows]
        assert lines == compact

    @pytest.mark.parametrize(
        "make_input", [golden, simulated, simulated_metadata_only, sync_shapes, comm_shapes]
    )
    def test_ingest_rows_and_ledger_cover_every_line(self, tmp_path, make_input):
        bundle, _, _ = make_input(tmp_path)
        out = tmp_path / "out"
        assert run(["ingest", str(bundle), "--out", str(out)]) == 0
        dump = json.loads((out / "dump.json").read_text(encoding="utf-8"))
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == dump["record_count"]
        for name, total in dump["line_counts"].items():
            parsed = sum(1 for row in rows if row["attributes"]["_file"] == name)
            ledgered = sum(1 for row in dump["ledger"] if row["file"] == name and row["line"] > 0)
            assert parsed + ledgered == total, name

    @pytest.mark.parametrize("build", [golden, sync_shapes, comm_shapes],
                             ids=["golden", "sync_shapes", "comm_shapes"])
    def test_dump_canonical_debug_flag_feeds_digest_oracle(self, tmp_path, build):
        """The --dump-canonical blob is each record's canonical bytes, each
        ending at its 0x1e terminator, and row i of records.jsonl names the
        SHA-256 of the blob's i-th record."""
        bundle, _, _ = build(tmp_path)
        out, blob = tmp_path / "out", tmp_path / "canonical.bin"
        assert run(["ingest", str(bundle), "--out", str(out), "--dump-canonical", str(blob)]) == 0
        data = blob.read_bytes()
        slices = [piece + b"\x1e" for piece in data.split(b"\x1e")[:-1]]
        assert b"".join(slices) == data
        assert slices == [canonical_encode(r) for r in ingest_device_dump(bundle).records]
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == len(slices) > 1
        for row, piece in zip(rows, slices):
            assert row["source"] == "Device"
            assert row["digest"] == hashlib.sha256(piece).hexdigest(), row["record_id"]

    def test_correlate_writes_intermediates(self, tmp_path):
        case = simulate(tmp_path, n_uploads=5, skew_seconds=120)
        out = tmp_path / "out"
        rc = run(
            [
                "correlate",
                str(case.bundle_dir),
                str(case.cloud_log),
                "--out",
                str(out),
                "--window-seconds",
                "200",
                "--min-skew-support",
                "4",
            ]
        )
        assert rc == 0
        for name in ("skew.json", "links.json", "timeline.json", "findings.json",
                     "cloud_log.json", "parameters.json"):
            assert (out / name).is_file()
        params = json.loads((out / "parameters.json").read_text())
        assert params["window_seconds"] == 200
        assert params["min_skew_support"] == 4
        assert params["locale"] == "day-first"
        skew = json.loads((out / "skew.json").read_text())
        assert 118 <= skew["offset_seconds"] <= 122

    def test_correlate_insufficient_support_falls_back(self, tmp_path, capsys):
        case = simulate(tmp_path, n_uploads=1)
        out = tmp_path / "out"
        assert run(["correlate", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        skew = json.loads((out / "skew.json").read_text())
        assert skew == {"offset_seconds": 0, "support_count": 0, "spread_seconds": 0, "fallback": True}
        assert "offset 0" in capsys.readouterr().err

    def test_enrich_writes_graph_and_geo(self, tmp_path):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        table = tmp_path / "geo.csv"
        table.write_text("10.0.0.0,10.0.0.255,IE,Dublin\n")
        rc = run(["enrich", str(case.bundle_dir), "--out", str(out), "--geo-table", str(table)])
        assert rc == 0
        graph = json.loads((out / "identity_graph.json").read_text())
        assert graph["nodes"]
        assert json.loads((out / "geo.json").read_text()) == []

    def test_enrich_resolves_an_address_once_whatever_its_whitespace(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(
            '{"dump_id":"d","collected_at":"2016-05-12T10:00:00Z","zone_offset_minutes":0}'
        )
        (bundle / "browser_history.jsonl").write_text(
            '{"id":"w1","url":"u","ip":"10.0.0.7"}\n{"id":"w2","url":"u","ip":" 10.0.0.7\\t"}\n'
        )
        out = tmp_path / "out"
        table = Path(__file__).parent / "data" / "comm_shapes" / "geo.csv"
        assert run(["enrich", str(bundle), "--out", str(out), "--geo-table", str(table)]) == 0
        assert json.loads((out / "geo.json").read_text()) == [
            {"ip": "10.0.0.7", "country": "IE", "city": "Dublin", "source_table": "geo.csv"}
        ]
        assert capsys.readouterr().err.endswith(", 1 geolocated addresses\n")

    def test_diff_writes_diff_json(self, tmp_path):
        case = simulate(tmp_path)
        second = tmp_path / "second"
        shutil.copytree(case.bundle_dir, second)
        with open(second / "messages.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"id":"msg-7777","peer":"+3530","body":"x"}\n')
        out = tmp_path / "out"
        rc = run(["diff", str(case.bundle_dir), str(second), "--out", str(out)])
        assert rc == 0
        diff = json.loads((out / "diff.json").read_text())
        assert diff["added"] == ["msg-7777"]

    def test_diff_device_mismatch_fatal_without_override(self, tmp_path):
        a = generate_case(SimParams(seed=1), tmp_path / "a")
        b = generate_case(SimParams(seed=2), tmp_path / "b")
        assert run(["diff", str(a.bundle_dir), str(b.bundle_dir), "--out", str(tmp_path)]) == 4
        assert (
            run(
                [
                    "diff",
                    str(a.bundle_dir),
                    str(b.bundle_dir),
                    "--out",
                    str(tmp_path),
                    "--allow-device-mismatch",
                ]
            )
            == 0
        )

    def test_locale_flag_changes_legacy_parsing(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "manifest.json").write_text(
            json.dumps(
                {"dump_id": "loc", "collected_at": "2016-05-12T10:00:00Z", "zone_offset_minutes": 0}
            )
        )
        (bundle / "installed_apps.jsonl").write_text(
            '{"id":"a1","name":"X","status":"All","installed":"06/04/2016 02:33:53 PM"}\n'
        )
        run(["ingest", str(bundle), "--out", str(tmp_path / "df"), "--locale", "day-first"])
        run(["ingest", str(bundle), "--out", str(tmp_path / "mf"), "--locale", "month-first"])
        for out in ("df", "mf"):
            assert json.loads((tmp_path / out / "dump.json").read_text())["record_count"] == 1
        df = json.loads((tmp_path / "df" / "records.jsonl").read_text())
        mf = json.loads((tmp_path / "mf" / "records.jsonl").read_text())
        assert df["timestamp_utc"] == "2016-04-06T14:33:53Z"
        assert mf["timestamp_utc"] == "2016-06-04T14:33:53Z"

    def test_report_formats(self, tmp_path):
        case = simulate(tmp_path, n_uploads=4)
        out = tmp_path / "out"
        run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)])
        assert run(["report", "--out", str(out), "--format", "md"]) == 0
        assert run(["report", "--out", str(out), "--format", "html"]) == 0
        assert (out / "sim-1000.report.json").is_file()
        assert (out / "sim-1000.report.md").is_file()
        assert (out / "sim-1000.report.html").is_file()

    def test_report_respects_case_id(self, tmp_path):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        run(["ingest", str(case.bundle_dir), "--out", str(out)])
        assert run(["report", "--out", str(out), "--case-id", "CASE-9"]) == 0
        assert (out / "CASE-9.report.json").is_file()

    def test_report_from_dump_json_alone(self, tmp_path):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        assert run(["ingest", str(case.bundle_dir), "--out", str(out)]) == 0
        assert run(["report", "--out", str(out)]) == 0
        report = json.loads((out / "sim-1000.report.json").read_text())
        assert report["inputs"]["dumps"][0]["chain_verdict"] == "Unverified"
        record_count = len(ingest_device_dump(case.bundle_dir).records)
        assert report["inputs"]["dumps"][0]["record_count"] == record_count
        assert report["inputs"]["cloud_logs"] == []
        assert report["parameters"] == {
            "window_seconds": 300,
            "min_skew_support": 3,
            "locale": "day-first",
            "timestamp_assumption": reporting.TIMESTAMP_ASSUMPTION,
        }
        assert report["skew"] is None
        assert report["links"] == report["findings"] == report["timeline"] == report["geo"] == []
        assert report["excluded_undated"] == 0
        assert report["identity_graph"] == {"nodes": [], "edges": []}
        assert report["error_ledger"] == []

    @pytest.mark.parametrize("exists", [False, True], ids=["absent", "no stage file in it"])
    def test_report_on_a_directory_with_no_stage_file_exits_4(self, tmp_path, capsys, exists):
        out = tmp_path / "typo" / "out"
        if exists:
            out.mkdir(parents=True)
            (out / "diff.json").write_text("{}\n")  # a stage file the report does not read
        before = sorted(tmp_path.rglob("*"))
        assert run(["report", "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {out} holds no stage file to report on\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["enrich", "run-all"])
    def test_comm_records_left_out_of_the_graph_are_one_note(self, tmp_path, capsys, command):
        shapes = Path(__file__).parent / "data" / "comm_shapes"
        bundle = tmp_path / "bundle"
        shutil.copytree(shapes / "bundle", bundle)
        out = tmp_path / "out"
        argv = {
            "enrich": ["enrich", str(bundle), "--out", str(out)],
            "run-all": ["run-all", str(bundle), str(shapes / "cloud_events.jsonl"),
                        "--out", str(out)],
        }[command]
        assert run(argv) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "left out" in line]
        assert notes == [
            "note: 29 comm record(s) left out of the identity graph (direction not Incoming "
            "or Outgoing: 7, duration_s not an integer: 6, no phone number or email: 6, "
            "numbers not a JSON list of strings: 8, undated call: 2)"
        ]

    def test_a_graph_that_leaves_nothing_out_prints_no_note(self, tmp_path, capsys):
        case = simulate(tmp_path)
        assert run(["enrich", str(case.bundle_dir), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.startswith("enriched: ")


class TestCaseId:
    @pytest.mark.parametrize("case_id", ["", ".", "..", "../x", "a/b", "a\\b"])
    @pytest.mark.parametrize("command", ["report", "run-all"])
    def test_case_id_must_be_one_path_component(self, tmp_path, capsys, command, case_id):
        out = tmp_path / "out"
        inputs = ["bundle", "log.jsonl"] if command == "run-all" else []
        assert run([command, *inputs, "--out", str(out), "--case-id", case_id]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"argument --case-id: case id {case_id!r} must be one path component" in err
        assert not out.exists()

    def test_dump_id_cannot_move_the_report_out_of_out(self, tmp_path, capsys):
        case = simulate(tmp_path)
        manifest = case.bundle_dir / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text()) | {"dump_id": "../../up"}))
        out = tmp_path / "deep" / "out"
        line = ("error: dump id '../../up' cannot name the report file: it must be one path "
                "component: not empty, '.' or '..', no '/', '\\' or NUL")
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines()[-1] == line
        assert run(["report", "--out", str(out), "--format", "md"]) == 4
        assert capsys.readouterr().err == line + "\n"
        assert list(tmp_path.rglob("*.report.*")) == []
        assert run(["report", "--out", str(out), "--case-id", "CASE-1"]) == 0
        assert [p.name for p in tmp_path.rglob("*.report.*")] == ["CASE-1.report.json"]
        assert (out / "CASE-1.report.json").is_file()


def stepwise(case, out, *reports):
    """Run ingest, verify, correlate and enrich one by one, then each report."""
    bundle, log = str(case.bundle_dir), str(case.cloud_log)
    assert run(["ingest", bundle, "--out", str(out)]) == 0
    verify_rc = run(["verify", bundle, "--out", str(out)])
    assert run(["correlate", bundle, log, "--out", str(out)]) == 0
    assert run(["enrich", bundle, "--out", str(out)]) == 0
    for extra in reports:
        assert run(["report", "--out", str(out), *extra]) == 0
    return verify_rc


class TestRunAll:
    def test_run_all_matches_stepwise_bytes(self, tmp_path):
        case = simulate(tmp_path, n_uploads=6, skew_seconds=300)
        bundle, log = str(case.bundle_dir), str(case.cloud_log)
        formats = {"json": ".report.json", "md": ".report.md", "html": ".report.html"}
        for fmt in formats:
            out = str(tmp_path / f"combined-{fmt}")
            assert run(["run-all", bundle, log, "--out", out, "--format", fmt]) == 0

        # Bundle was sealed by run-all already, and seal refuses a sealed
        # bundle, so verify directly against its manifest.
        stepwise_out = tmp_path / "stepwise"
        verify_rc = stepwise(case, stepwise_out, *(["--format", fmt] for fmt in formats))
        assert verify_rc == 0

        for fmt, suffix in formats.items():
            name = f"sim-1000{suffix}"
            combined = tmp_path / f"combined-{fmt}" / name
            assert combined.read_bytes() == (stepwise_out / name).read_bytes(), fmt

    def test_run_all_on_tampered_bundle_exits_three(self, tmp_path):
        case = simulate(tmp_path)
        run(["seal", str(case.bundle_dir)])
        inject_tamper(case.bundle_dir, seed=21)
        out = tmp_path / "out"
        rc = run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)])
        assert rc == 3
        report = json.loads(next(iter(out.glob("*.report.json"))).read_text())
        assert report["inputs"]["dumps"][0]["chain_verdict"] == "Tampered"
        # Stepwise verify reaches the same verdict, and the same report bytes.
        assert stepwise(case, tmp_path / "stepwise", []) == 3
        name = "sim-1000.report.json"
        assert (out / name).read_bytes() == (tmp_path / "stepwise" / name).read_bytes()

    def test_error_ledger_is_bundle_then_app_inventory_then_cloud_log(self, tmp_path):
        case = simulate(tmp_path)
        with open(case.cloud_log, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with open(case.bundle_dir / "installed_apps.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"id":"app-x","name":"X","status":"Weird"}\n')
        with open(case.bundle_dir / "messages.jsonl", "ab") as handle:
            handle.write(b"\xff\n")
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        name = "sim-1000.report.json"
        report = json.loads((out / name).read_text())
        assert [entry["file"] for entry in report["error_ledger"]] == [
            "messages.jsonl", "installed_apps.jsonl", case.cloud_log.name,
        ]
        assert stepwise(case, tmp_path / "stepwise", []) == 0
        assert (out / name).read_bytes() == (tmp_path / "stepwise" / name).read_bytes()

    @pytest.mark.parametrize("command", ["correlate", "run-all"])
    def test_app_counts_and_uninstall_findings_share_one_status_rule(
        self, tmp_path, golden_bundle, golden_cloud_log, command
    ):
        """A status is compared lowercased, and a line that ingest ledgers is no trace."""
        lines = [
            {"id": "app-x1", "name": "X1", "package": "com.example.x1", "status": "UNINSTALLED"},
            {"id": "app-x2", "name": "X2", "status": "thirdparty"},
            {"id": "app-x3", "name": "X3", "package": "com.example.x3", "status": "Sideloaded"},
            {"id": "app-x4", "package": "com.example.x4", "status": "Uninstalled"},
        ]
        with open(golden_bundle / "installed_apps.jsonl", "a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(line) + "\n" for line in lines)
        log = tmp_path / "cloud.jsonl"
        events = [{"id": f"x{n}", "kind": "Install", "ts": "2016-05-10T15:40:00Z",
                   "account": "a@x", "object": f"com.example.x{n}"} for n in (1, 3, 4)]
        log.write_text(golden_cloud_log.read_text(encoding="utf-8")
                       + "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8")
        out = tmp_path / "out"
        assert run([command, str(golden_bundle), str(log), "--out", str(out)]) == 0
        findings = json.loads((out / "findings.json").read_text(encoding="utf-8"))
        assert [f["supporting_ids"] for f in findings if f["kind"] == "AppUsedThenUninstalled"] == [
            ["app-0007", "e1", "e2"], ["app-x1", "x1"], ["x3"], ["x4"],
        ]
        if command == "run-all":
            dump = json.loads((out / "dump.json").read_text(encoding="utf-8"))
            assert dump["app_counts"] == {"installed": 7, "uninstalled": 2}
            assert [(row["line"], row["message"]) for row in dump["parse_ledger"]] == [
                (10, "unknown app status 'Sideloaded'"), (11, "app record without a name"),
            ]

    def test_a_cloud_time_corrected_out_of_range_is_one_ledger_note(self, tmp_path, capsys):
        case = simulate(tmp_path, skew_seconds=300)
        lines = case.cloud_log.read_text(encoding="utf-8").splitlines()
        with open(case.cloud_log, "a", encoding="utf-8") as handle:
            handle.write('{"id":"early","kind":"Login","ts":"1970-01-01T00:01:00Z","account":"a@x"}\n')
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        for name in STAGE_FILES:
            assert (out / name).is_file(), name
        cloud_log = json.loads((out / "cloud_log.json").read_text(encoding="utf-8"))
        assert cloud_log["event_count"] == len(lines) + 1
        assert cloud_log["ledger"] == [{
            "file": case.cloud_log.name,
            "line": 0,
            "message": "event 'early': the skew correction moves its time out of 1970-2100, "
                       "so it is left off the timeline",
        }]
        report = json.loads((out / "sim-1000.report.json").read_text(encoding="utf-8"))
        assert report["skew"]["offset_seconds"] > 60
        assert "early" not in {entry["id"] for entry in report["timeline"]}
        assert report["error_ledger"] == cloud_log["ledger"]

    def test_run_all_ingests_each_input_once(self, tmp_path, monkeypatch):
        case = simulate(tmp_path, n_uploads=6, skew_seconds=300)
        calls = {"ingest_device_dump": 0, "ingest_cloud_log": 0}
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        assert calls == {"ingest_device_dump": 1, "ingest_cloud_log": 1}

    def test_run_all_encodes_each_record_once(self, tmp_path, monkeypatch):
        case = simulate(tmp_path, n_uploads=6, skew_seconds=300)
        record_count = len(ingest_device_dump(case.bundle_dir).records)
        calls = []
        original = evidence.canonical_encode

        def counted(record):
            calls.append(record.record_id)
            return original(record)

        monkeypatch.setattr(evidence, "canonical_encode", counted)
        monkeypatch.setattr(preservation, "canonical_encode", counted)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        report = json.loads((out / "sim-1000.report.json").read_text())
        assert len(calls) == report["inputs"]["dumps"][0]["record_count"] == record_count
        assert sorted(calls) == sorted(set(calls))


STAGE_FILES = ("dump.json", "verification.json", "skew.json", "links.json", "timeline.json",
               "findings.json", "cloud_log.json", "parameters.json", "identity_graph.json",
               "geo.json")


class TestStageFiles:
    def test_every_stage_file_is_one_compact_json_line(self, tmp_path):
        case = simulate(tmp_path, n_uploads=6, skew_seconds=300)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        second = tmp_path / "second"
        shutil.copytree(case.bundle_dir, second)
        assert run(["diff", str(case.bundle_dir), str(second), "--out", str(out)]) == 0
        written = sorted(p.name for p in out.glob("*.json") if ".report." not in p.name)
        assert written == sorted((*STAGE_FILES, "diff.json"))
        for name in written:
            raw = (out / name).read_bytes()
            assert raw.endswith(b"\n") and raw.count(b"\n") == 1, name
            compact = json.dumps(json.loads(raw), ensure_ascii=False, separators=(",", ":"))
            assert raw == (compact + "\n").encode("utf-8"), name

    def test_report_reads_indented_stage_files_to_the_same_bytes(self, tmp_path):
        case = simulate(tmp_path, n_uploads=6, skew_seconds=300)
        formats = {"json": ".report.json", "md": ".report.md", "html": ".report.html"}
        out = tmp_path / "out"
        assert run(["seal", str(case.bundle_dir)]) == 0
        assert stepwise(case, out, *(["--format", fmt] for fmt in formats)) == 0
        compact = {fmt: (out / f"sim-1000{suffix}").read_bytes() for fmt, suffix in formats.items()}
        for name in STAGE_FILES:
            path = out / name
            indented = json.dumps(json.loads(path.read_bytes()), indent=2, ensure_ascii=False)
            path.write_text(indented + "\n", encoding="utf-8")
        for fmt, suffix in formats.items():
            assert run(["report", "--out", str(out), "--format", fmt]) == 0
            assert (out / f"sim-1000{suffix}").read_bytes() == compact[fmt], fmt

    def test_no_temporary_file_is_left_after_a_run(self, tmp_path):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        assert run(["report", "--out", str(out), "--format", "md"]) == 0
        leftovers = [p.name for d in (out, case.bundle_dir) for p in d.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        report = out / "sim-1000.report.json"
        before = report.read_bytes()
        unsealed = tmp_path / "unsealed"
        shutil.copytree(case.bundle_dir, unsealed)
        (unsealed / "manifest.sealed.json").unlink()

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        (out / "links.json").write_text("[]\n")  # the report must differ if it were written
        assert run(["report", "--out", str(out)]) == 4
        assert run(["seal", str(unsealed)]) == 4
        assert report.read_bytes() == before
        assert not (unsealed / "manifest.sealed.json").exists()
        leftovers = [p.name for d in (out, unsealed) for p in d.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


    def test_a_report_that_fails_while_rendering_leaves_the_old_one(self, tmp_path, monkeypatch):
        case = simulate(tmp_path)
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        report = out / "sim-1000.report.json"
        before = report.read_bytes()

        def failing_render(report, handle, format):
            handle.write(b"{\n  partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "render_report", failing_render)
        assert run(["report", "--out", str(out)]) == 4
        assert report.read_bytes() == before
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


def _edit(key, change):
    """Apply ``change(parent, last)`` at ``key``, a name or a tuple path into the JSON."""

    def damage(raw: bytes) -> bytes:
        data = json.loads(raw)
        *parents, last = key if isinstance(key, tuple) else (key,)
        target = data
        for step in parents:
            target = target[step]
        change(target, last)
        return json.dumps(data).encode()

    return damage


def _without(key):
    return _edit(key, lambda parent, last: parent.pop(last))


def _with(key, value):
    return _edit(key, lambda parent, last: parent.__setitem__(last, value))


def _old_form_dump(raw: bytes) -> bytes:
    """dump.json as versions that wrote every record's row wrote it: ``records``, no count."""
    dump = json.loads(raw)
    dump["records"] = [{"record_id": f"r{n}"} for n in range(dump.pop("record_count"))]
    return json.dumps(dump).encode()


_TRUNCATED_SEALED = b'{\n  "dump_id": "sim-1000",\n  "coll'
_NOT_HEX = "zz" * 32
# 32 bytes that bytes.fromhex reads, but not as 64 hex characters.
_SPACED_HEX = " ".join(["AB"] * 32)
_PADDED_HEX = "\t" + "ab" * 32 + "\n"
_TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
_LONE = "holds a lone surrogate, which UTF-8 cannot encode"

# One row per malformed input: (file damaged, damage, command, exit code, stderr line).
# The command runs on a case that `run-all` has sealed and analysed into `out/`.
MALFORMED_INPUTS = [
    pytest.param("out/links.json", lambda raw: b'{"trunc', "report", 4,
                 "error: stage file {path} is not valid JSON: "
                 "Unterminated string starting at: line 1 column 2 (char 1)",
                 id="truncated-links"),
    pytest.param("out/cloud_log.json", lambda raw: b"\xff" + raw, "report", 4,
                 "error: stage file {path} is not valid JSON: 'utf-8' codec can't decode "
                 "byte 0xff in position 0: invalid start byte",
                 id="non-utf8-cloud-log-stage"),
    pytest.param("out/dump.json", lambda raw: b"[]", "report", 4,
                 "error: stage file {path} must hold a JSON object", id="dump-not-object"),
    pytest.param("out/findings.json", lambda raw: b"{}", "report", 4,
                 "error: stage file {path} must hold a JSON list", id="findings-not-list"),
    pytest.param("out/verification.json", _without("verdict"), "report", 4,
                 "error: stage file {path} missing field 'verdict'", id="verification-no-verdict"),
    pytest.param("bundle/manifest.sealed.json", lambda raw: _TRUNCATED_SEALED, "verify", 4,
                 "error: {path} is not valid JSON: "
                 "Unterminated string starting at: line 3 column 3 (char 29)",
                 id="truncated-sealed-manifest"),
    pytest.param("bundle/manifest.sealed.json", _without("record_links"), "verify", 4,
                 "error: {path} missing field 'record_links'", id="sealed-no-record-links"),
    pytest.param("bundle/manifest.sealed.json", _without("chain_head"), "verify", 4,
                 "error: {path} missing field 'chain_head'", id="sealed-no-chain-head"),
    pytest.param("bundle/manifest.sealed.json", _without("record_count"), "verify", 4,
                 "error: {path} missing field 'record_count'", id="sealed-no-record-count"),
    pytest.param("bundle/manifest.sealed.json", _with(("record_links", 3), _NOT_HEX), "verify", 4,
                 f"error: {{path}} field 'record_links[3]' must be 64 hex characters, "
                 f"got '{_NOT_HEX}'",
                 id="sealed-non-hex-link"),
    pytest.param("bundle/manifest.sealed.json", _with("chain_head", "abc"), "verify", 4,
                 "error: {path} field 'chain_head' must be 64 hex characters, got 'abc'",
                 id="sealed-short-head"),
    pytest.param("bundle/manifest.sealed.json", _with("chain_head", _SPACED_HEX), "verify", 4,
                 f"error: {{path}} field 'chain_head' must be 64 hex characters, "
                 f"got '{_SPACED_HEX}'",
                 id="sealed-space-separated-head"),
    pytest.param("bundle/manifest.sealed.json", _with(("record_links", 0), _PADDED_HEX),
                 "verify", 4,
                 "error: {path} field 'record_links[0]' must be 64 hex characters, "
                 "got '\\t" + "ab" * 32 + "\\n'",
                 id="sealed-whitespace-padded-link"),
    pytest.param("bundle/manifest.sealed.json", _with("record_count", "43"), "verify", 4,
                 "error: {path} field 'record_count' must hold a non-negative integer",
                 id="sealed-count-as-string"),
    pytest.param("bundle/manifest.sealed.json", lambda raw: b"[]", "verify", 4,
                 "error: {path} must hold a JSON object", id="sealed-not-object"),
    pytest.param("bundle/manifest.sealed.json", _with("examiner", 7), "verify", 4,
                 "error: {path} field 'examiner' must hold a string",
                 id="sealed-examiner-not-string"),
    pytest.param("bundle/manifest.sealed.json", _with("isolation_method", "Faraday"), "verify", 4,
                 "error: {path} field 'isolation_method' has unknown value 'Faraday'",
                 id="sealed-unknown-isolation"),
    pytest.param("bundle/manifest.sealed.json", _with("collected_at", "yesterday"), "verify", 4,
                 "error: {path} field 'collected_at': "
                 "timestamp 'yesterday' matches no supported grammar",
                 id="sealed-unparseable-collected-at"),
    pytest.param("bundle/manifest.sealed.json", _with("record_links", "none"), "verify", 4,
                 "error: {path} field 'record_links' must hold a JSON list",
                 id="sealed-record-links-not-list"),
    pytest.param("bundle/manifest.json", lambda raw: b"[]", "ingest", 4,
                 "error: {path} must hold a JSON object", id="manifest-not-object"),
    pytest.param("bundle/manifest.json", _without("dump_id"), "ingest", 4,
                 "error: {path} missing field 'dump_id'", id="manifest-without-dump-id"),
    pytest.param("bundle/manifest.json", _with("zone_offset_minutes", "abc"), "ingest", 4,
                 "error: {path} field 'zone_offset_minutes' must be an integer, got 'abc'",
                 id="zone-offset-abc"),
    pytest.param("bundle/manifest.json", _with("zone_offset_minutes", 1.5), "verify", 4,
                 "error: {path} field 'zone_offset_minutes' must be an integer, got 1.5",
                 id="zone-offset-float"),
    pytest.param("bundle/manifest.sealed.json", lambda raw: b"[" * 100_000, "verify", 4,
                 "error: {path} is not valid JSON: " + _TOO_DEEP, id="sealed-nested-too-deeply"),
    pytest.param("bundle/manifest.json", lambda raw: b"[" * 100_000, "ingest", 4,
                 "error: {path} unreadable: " + _TOO_DEEP, id="manifest-nested-too-deeply"),
    pytest.param("bundle/manifest.json", lambda raw: b"\xff" + raw, "ingest", 4,
                 "error: {path} unreadable: 'utf-8' codec can't decode byte 0xff in position 0: "
                 "invalid start byte",
                 id="non-utf8-manifest"),
    # Nested stage-file content that the renderers index.
    pytest.param("out/links.json", lambda raw: b'[{"tier":"ExactDigest"}]', "report-md", 4,
                 "error: stage file {path} missing field '[0].device_record_id'",
                 id="link-with-tier-only"),
    pytest.param("out/links.json", _without((0, "time_delta_seconds")), "report-md", 4,
                 "error: stage file {path} missing field '[0].time_delta_seconds'",
                 id="link-without-delta"),
    pytest.param("out/findings.json", _with((0, "supporting_ids", 1), 7), "report-md", 4,
                 "error: stage file {path} field '[0].supporting_ids[1]' must hold a string",
                 id="finding-id-not-string"),
    pytest.param("out/timeline.json", _with(("entries", 0), 5), "report-md", 4,
                 "error: stage file {path} field 'entries[0]' must hold a JSON object",
                 id="timeline-entry-not-object"),
    pytest.param("out/identity_graph.json", _without(("edges", 0, "count")), "report-md", 4,
                 "error: stage file {path} missing field 'edges[0].count'",
                 id="edge-without-count"),
    pytest.param("out/cloud_log.json", _with("ledger", [{"file": "x", "line": 1}]), "report", 4,
                 "error: stage file {path} missing field 'ledger[0].message'",
                 id="cloud-ledger-without-message"),
    pytest.param("out/dump.json", _with("device", []), "report", 4,
                 "error: stage file {path} field 'device' must hold a JSON object",
                 id="device-not-object"),
    pytest.param("out/dump.json", _with("dump_id", 7), "report", 4,
                 "error: stage file {path} field 'dump_id' must hold a string",
                 id="dump-id-not-string"),
    # dump.json counts its records; one that lists them is read no other way.
    pytest.param("out/dump.json", _old_form_dump, "report", 4,
                 "error: stage file {path} missing field 'record_count'", id="dump-old-form"),
    pytest.param("out/dump.json", _with("record_count", -1), "report", 4,
                 "error: stage file {path} field 'record_count' must hold a non-negative integer",
                 id="record-count-negative"),
    pytest.param("out/dump.json", _with("record_count", True), "report", 4,
                 "error: stage file {path} field 'record_count' must hold a non-negative integer",
                 id="record-count-bool"),
    pytest.param("out/skew.json", _without("fallback"), "report-md", 4,
                 "error: stage file {path} missing field 'fallback'", id="skew-without-fallback"),
    pytest.param("out/timeline.json", lambda raw: b"[" * 100_000, "report", 4,
                 "error: stage file {path} is not valid JSON: " + _TOO_DEEP,
                 id="stage-nested-too-deeply"),
    pytest.param("out/geo.json", lambda raw: b"[null]", "report-md", 4,
                 "error: stage file {path} field '[0]' must hold a JSON object",
                 id="geo-entry-null"),
    # NaN and the infinities are not JSON, whatever Python's decoder accepts by default.
    pytest.param("out/skew.json", lambda raw: raw.replace(b"{", b'{"pad":NaN,', 1), "report", 4,
                 "error: stage file {path} is not valid JSON: "
                 "non-finite number NaN is not allowed",
                 id="stage-nan"),
    pytest.param("bundle/manifest.sealed.json",
                 lambda raw: raw.replace(b"{", b'{"pad": -Infinity,', 1), "verify", 4,
                 "error: {path} is not valid JSON: non-finite number -Infinity is not allowed",
                 id="sealed-minus-infinity"),
    pytest.param("bundle/manifest.json", _with("zone_offset_minutes", float("inf")), "ingest", 4,
                 "error: {path} unreadable: non-finite number Infinity is not allowed",
                 id="manifest-infinity"),
    # A float literal too large for a float is no more a number than Infinity is.
    pytest.param("out/skew.json", lambda raw: raw.replace(b"{", b'{"pad":1e400,', 1), "report", 4,
                 "error: stage file {path} is not valid JSON: "
                 "non-finite number 1e400 is not allowed",
                 id="stage-overflowing-float"),
    pytest.param("bundle/manifest.json",
                 lambda raw: raw.replace(b"{", b'{"pad": -1e400,', 1), "ingest", 4,
                 "error: {path} unreadable: non-finite number -1e400 is not allowed",
                 id="manifest-overflowing-float"),
    pytest.param("bundle/manifest.sealed.json",
                 lambda raw: raw.replace(b"{", b'{"pad": 1E999,', 1), "verify", 4,
                 "error: {path} is not valid JSON: non-finite number 1E999 is not allowed",
                 id="sealed-overflowing-float"),
    # A JSON escape of a lone surrogate decodes to text that UTF-8 cannot
    # encode, so it can be neither written nor hashed.
    pytest.param("bundle/manifest.json", _with("dump_id", "a\udc00"), "run-all", 4,
                 "error: {path} field 'dump_id' " + _LONE,
                 id="manifest-dump-id-lone-surrogate"),
    pytest.param("bundle/manifest.json", _with("tool_name", "a\udc00"), "run-all", 4,
                 "error: {path} field 'tool_name' " + _LONE,
                 id="manifest-tool-name-lone-surrogate"),
    pytest.param("bundle/manifest.sealed.json", _with("examiner", "x\udc00"), "verify", 4,
                 "error: {path} field 'examiner' " + _LONE,
                 id="sealed-examiner-lone-surrogate"),
    # The sealed manifest is read as a stage file is: a member the
    # verifier never uses, or a digest, is checked for one too.
    pytest.param("bundle/manifest.sealed.json",
                 lambda raw: raw.replace(b"{", b'{"note": "\\udc00",', 1), "verify", 4,
                 "error: {path} field 'note' " + _LONE,
                 id="sealed-extra-member-lone-surrogate"),
    pytest.param("bundle/manifest.sealed.json", _with(("record_links", 2), "\udc00"), "verify",
                 4, "error: {path} field 'record_links[2]' " + _LONE,
                 id="sealed-record-link-lone-surrogate"),
    pytest.param("out/geo.json",
                 lambda raw: b'[{"ip":"1.2.3.4","country":"\\udc00","city":"x",'
                             b'"source_table":"t"}]',
                 "report", 4,
                 "error: stage file {path} field '[0].country' " + _LONE,
                 id="geo-country-lone-surrogate"),
    pytest.param("out/dump.json", lambda raw: raw.replace(b"{", b'{"\\uD800x":1,', 1), "report", 4,
                 "error: stage file {path} field '\\ud800x' " + _LONE,
                 id="stage-key-lone-surrogate"),
    # excluded_undated starts a line of the Markdown report, which the HTML
    # renderer classifies by its prefix: only a count may stand there.
    pytest.param("out/timeline.json", _with("excluded_undated", "## Forged"), "report-md", 4,
                 "error: stage file {path} field 'excluded_undated' must hold a non-negative "
                 "integer",
                 id="excluded-undated-heading-md"),
    pytest.param("out/timeline.json", _with("excluded_undated", "## Forged"), "report-html", 4,
                 "error: stage file {path} field 'excluded_undated' must hold a non-negative "
                 "integer",
                 id="excluded-undated-heading-html"),
    pytest.param("out/timeline.json", _with("excluded_undated", True), "report", 4,
                 "error: stage file {path} field 'excluded_undated' must hold a non-negative "
                 "integer",
                 id="excluded-undated-bool"),
    pytest.param("out/timeline.json", _with("excluded_undated", -1), "report", 4,
                 "error: stage file {path} field 'excluded_undated' must hold a non-negative "
                 "integer",
                 id="excluded-undated-negative"),
    # The sealed file table, locale and unrecognized names.
    pytest.param("bundle/manifest.sealed.json", _without("locale"), "verify", 4,
                 "error: {path} missing field 'locale'", id="sealed-table-without-locale"),
    pytest.param("bundle/manifest.sealed.json", _with("locale", "year-first"), "verify", 4,
                 "error: {path} field 'locale' has unknown value 'year-first'",
                 id="sealed-unknown-locale"),
    pytest.param("bundle/manifest.sealed.json", _with("files", {}), "verify", 4,
                 "error: {path} field 'files' must hold a JSON list", id="sealed-files-not-list"),
    pytest.param("bundle/manifest.sealed.json", _with(("files", 1), "messages.jsonl"), "verify",
                 4, "error: {path} field 'files[1]' must hold a JSON object",
                 id="sealed-file-row-not-object"),
    pytest.param("bundle/manifest.sealed.json", _without(("files", 0, "bytes")), "verify", 4,
                 "error: {path} missing field 'files[0].bytes'",
                 id="sealed-file-row-without-bytes"),
    pytest.param("bundle/manifest.sealed.json", _with(("files", 2, "bytes"), "12"), "verify", 4,
                 "error: {path} field 'files[2].bytes' must hold a non-negative integer",
                 id="sealed-file-bytes-as-string"),
    pytest.param("bundle/manifest.sealed.json", _with(("files", 0, "sha256"), "abc"), "verify", 4,
                 "error: {path} field 'files[0].sha256' must be 64 hex characters, got 'abc'",
                 id="sealed-file-short-digest"),
    pytest.param("bundle/manifest.sealed.json", _with(("files", 0, "name"), "x\udc00"), "verify",
                 4, "error: {path} field 'files[0].name' " + _LONE,
                 id="sealed-file-name-lone-surrogate"),
    pytest.param("bundle/manifest.sealed.json", _with("unrecognized_files", [7]), "verify", 4,
                 "error: {path} field 'unrecognized_files[0]' must hold a string",
                 id="sealed-unrecognized-name-not-string"),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("target, damage, command, code, line", MALFORMED_INPUTS)
    def test_one_stderr_line_and_documented_exit(
        self, tmp_path, capsys, target, damage, command, code, line
    ):
        case = simulate(tmp_path)
        bundle, out = case.bundle_dir, tmp_path / "out"
        assert run(["run-all", str(bundle), str(case.cloud_log), "--out", str(out)]) == 0
        path = {"out": out, "bundle": bundle}[target.split("/")[0]] / target.split("/")[1]
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        argv = {
            "report": ["report", "--out", str(out)],
            "report-md": ["report", "--out", str(out), "--format", "md"],
            "report-html": ["report", "--out", str(out), "--format", "html"],
            "verify": ["verify", str(bundle)],
            "ingest": ["ingest", str(bundle), "--out", str(out)],
            "run-all": ["run-all", str(bundle), str(case.cloud_log), "--out", str(out)],
        }[command]
        assert run(argv) == code
        assert capsys.readouterr().err == line.format(path=path) + "\n"


def synctrail_process(*argv: str | bytes) -> subprocess.CompletedProcess:
    """Run the tool in a fresh interpreter; a bytes argument reaches it as those bytes."""
    src = str(Path(synctrail.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "synctrail", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=120,
    )


def non_utf8_path(directory: Path, name: bytes, content: bytes) -> Path:
    """Write ``content`` to the file ``name`` in ``directory``; skip where the
    file system refuses a name that is not UTF-8."""
    path = Path(os.fsdecode(os.fsencode(directory) + b"/" + name))
    try:
        path.write_bytes(content)
    except OSError as exc:
        pytest.skip(f"the file system refuses a name that is not UTF-8: {exc}")
    return path


class TestTextThatIsNotUtf8:
    """A lone surrogate from a JSON escape, or a name or argument holding a
    byte that is not UTF-8, ends in a ledger entry, a name shown with
    ``\\xNN`` escapes, or exit 2 or 4 with one stderr line."""

    def test_a_lone_surrogate_in_a_cloud_event_is_one_ledger_entry(
        self, golden_bundle, golden_cloud_log, tmp_path
    ):
        log = tmp_path / "cloud_events.jsonl"
        log.write_bytes(
            golden_cloud_log.read_bytes()
            + b'{"id":"e\\ud800x","kind":"Login","ts":"2016-05-10T10:00:00Z",'
            + b'"account":"a\\udc00"}\n'
        )
        out = tmp_path / "out"
        assert run(["run-all", str(golden_bundle), str(log), "--out", str(out)]) == 0
        stage = json.loads((out / "cloud_log.json").read_text(encoding="utf-8"))
        assert stage["event_count"] == len(golden_cloud_log.read_bytes().splitlines())
        assert stage["ledger"] == [
            {"file": "cloud_events.jsonl", "line": 3, "message": f"field 'id' {_LONE}"}
        ]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["seal", "{bundle}", "--examiner", b"ex\xff"],
             "synctrail seal: error: argument --examiner: examiner 'ex\\xff' is not UTF-8 "
             "(run 'synctrail seal --help' for usage)"),
            (["run-all", "{bundle}", "{log}", "--out", "{out}", "--case-id", b"c\xff"],
             "synctrail run-all: error: argument --case-id: case id 'c\\xff' is not UTF-8 "
             "(run 'synctrail run-all --help' for usage)"),
            (["run-all", "{bundle}", "{log}", "--out", "{out}", "--examiner", b"\xffex"],
             "synctrail run-all: error: argument --examiner: examiner '\\xffex' is not UTF-8 "
             "(run 'synctrail run-all --help' for usage)"),
        ],
        ids=["seal-examiner", "run-all-case-id", "run-all-examiner"],
    )
    def test_an_argument_that_is_not_utf8_is_a_usage_error(
        self, golden_bundle, golden_cloud_log, tmp_path, argv, line
    ):
        out = tmp_path / "out"
        paths = {"bundle": golden_bundle, "log": golden_cloud_log, "out": out}
        argv = [arg if isinstance(arg, bytes) else arg.format(**paths) for arg in argv]
        result = synctrail_process(*argv)
        assert result.returncode == 2
        assert result.stderr.decode("utf-8") == line + "\n"
        assert not out.exists()
        assert not (golden_bundle / "manifest.sealed.json").exists()

    def test_a_bundle_file_name_that_is_not_utf8_is_shown_with_hex_escapes(
        self, golden_bundle, golden_cloud_log, tmp_path
    ):
        non_utf8_path(golden_bundle, b"extra\xff.jsonl", b"{}\n")
        out = tmp_path / "out"
        result = synctrail_process("run-all", golden_bundle, golden_cloud_log, "--out", out)
        assert result.returncode == 0, result.stderr
        stage = json.loads((out / "dump.json").read_text(encoding="utf-8"))
        assert stage["ledger"] == [
            {"file": "extra\\xff.jsonl", "line": 0, "message": "unrecognized category file"}
        ]

    def test_a_cloud_log_name_that_is_not_utf8_is_shown_with_hex_escapes(
        self, golden_bundle, golden_cloud_log, tmp_path
    ):
        log = non_utf8_path(
            tmp_path, b"cloud\xff.jsonl", golden_cloud_log.read_bytes() + b"not json\n"
        )
        out = tmp_path / "out"
        result = synctrail_process("run-all", golden_bundle, log, "--out", out)
        assert result.returncode == 0, result.stderr
        stage = json.loads((out / "cloud_log.json").read_text(encoding="utf-8"))
        assert stage["name"] == "cloud\\xff.jsonl"
        assert [entry["file"] for entry in stage["ledger"]] == ["cloud\\xff.jsonl"]
        report = json.loads((out / "golden-lgd802.report.json").read_text(encoding="utf-8"))
        assert report["inputs"]["cloud_logs"][0]["name"] == "cloud\\xff.jsonl"

    def test_a_geo_table_name_that_is_not_utf8_is_shown_with_hex_escapes(self, tmp_path):
        shapes = Path(__file__).parent / "data" / "comm_shapes"
        bundle = tmp_path / "bundle"
        shutil.copytree(shapes / "bundle", bundle)
        table = non_utf8_path(tmp_path, b"geo\xff.csv", (shapes / "geo.csv").read_bytes())
        out = tmp_path / "out"
        result = synctrail_process(
            "run-all", bundle, shapes / "cloud_events.jsonl", "--out", out, "--geo-table", table
        )
        assert result.returncode == 0, result.stderr
        geo = json.loads((out / "geo.json").read_text(encoding="utf-8"))
        assert geo and {row["source_table"] for row in geo} == {"geo\\xff.csv"}


# Device content_digest values: (value, or how to make it from the
# content's digest; whether it names that content).
DEVICE_DIGESTS = {
    "padded": (lambda d: f" {d}\t", False),
    "non-hex": (lambda d: "not-a-digest", False),
    "63-digits": (lambda d: d[:63], False),
    "uppercase": (str.upper, True),
}


class TestDeviceContentDigest:
    @pytest.mark.parametrize(
        "form, names_content", DEVICE_DIGESTS.values(), ids=DEVICE_DIGESTS
    )
    @pytest.mark.parametrize("command", ["correlate", "run-all"])
    def test_only_64_hex_digits_name_a_content_and_anything_else_is_noted(
        self, tmp_path, capsys, golden_bundle, command, form, names_content
    ):
        digest = hashlib.sha256(b"photo").hexdigest()
        line = {"id": "m1", "delivered_at": "2016-05-10T10:00:00Z", "object": "a.jpg",
                "content_digest": form(digest)}
        (golden_bundle / "messages.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
        log = tmp_path / "cloud.jsonl"
        event = {"id": "e1", "kind": "Upload", "ts": "2016-05-10T10:00:05Z", "account": "a@x",
                 "object": "b.jpg", "digest": digest}
        log.write_text(json.dumps(event) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert run([command, str(golden_bundle), str(log), "--out", str(out)]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "content_digest" in line]
        links = json.loads((out / "links.json").read_text(encoding="utf-8"))
        if names_content:
            assert notes == []
            assert [(link["device_record_id"], link["tier"]) for link in links] == [
                ("m1", "ExactDigest")
            ]
        else:
            assert notes == [
                "note: 1 device record(s) carry a content_digest that is not 64 hex "
                "characters; such a value gives no skew support and no ExactDigest link"
            ]
            assert links == []


_FIELD_LIMIT = csv.field_size_limit()


class TestMalformedGeoTable:
    @pytest.mark.parametrize(
        "body, problem",
        [
            (b"# start,end,country,city\n10.0.0.0,10.0.0.255,IE,Dubl\xe9n\n",
             ": not UTF-8 text (invalid continuation byte)"),
            (b"10.0.0.0,10.0.0.255,IE,Dublin\n10.0.1.0,10.0.1.255,IE,"
             + b"x" * (_FIELD_LIMIT + 1) + b"\n",
             f":2: field larger than field limit ({_FIELD_LIMIT})"),
            (b"# start,end,country,city\n10.0.0.0,10.0.0.255,IE\n", ":2: need 4 columns, got 3"),
            (b"10.0.0.0,10.0.0.256,IE,Dublin\n",
             ":1: Octet 256 (> 255) not permitted in '10.0.0.256'"),
            (b"10.0.1.0,10.0.0.255,IE,Dublin\n", ":1: range end precedes start"),
        ],
        ids=["not-utf8", "field-over-csv-limit", "three-columns", "bad-ipv4", "end-before-start"],
    )
    @pytest.mark.parametrize("command", ["enrich", "run-all"])
    def test_exits_4_with_one_line_naming_the_table(
        self, tmp_path, capsys, body, problem, command
    ):
        case = simulate(tmp_path)
        table = tmp_path / "geo.csv"
        table.write_bytes(body)
        logs = [str(case.cloud_log)] if command == "run-all" else []
        argv = [command, str(case.bundle_dir), *logs, "--out", str(tmp_path / "out"),
                "--geo-table", str(table)]
        capsys.readouterr()
        assert run(argv) == 4
        err = capsys.readouterr().err
        # run-all reports the stages before enrich on lines of their own.
        assert err.splitlines()[-1] == f"error: {table}{problem}"
        assert "Traceback" not in err
        if command == "enrich":
            assert err.count("\n") == 1


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["synctrail", "synctrail.cli"])
    def test_python_dash_m_prints_version(self, module):
        src = str(Path(synctrail.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"synctrail {synctrail.__version__}"


def _readme_synopsis() -> str:
    """The code block under README's "Command line" heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    return section.split("\n```\n", 1)[1].split("\n```\n", 1)[0]


def _option_strings(name: str) -> list[str]:
    """Every option string of subcommand ``name``, but ``-h`` and ``--help``."""
    parser = subparsers(cli.build_parser(name))[name]
    return [
        option
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]


def _names_option(text: str, option: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_readme_synopsis_lists_every_option(name):
    """A subcommand's synopsis lines, its own and the indented lines after
    it, name each of its options; ``run-all``'s may be anywhere in the block."""
    block = _readme_synopsis()
    if name == "run-all":
        text = block
    else:
        own = re.search(rf"^synctrail {name} .*\n(?:[ \t].*\n)*", block + "\n", re.MULTILINE)
        assert own is not None, name
        text = own.group(0)
    options = _option_strings(name)
    assert options
    assert [option for option in options if not _names_option(text, option)] == []


class TestGoldenThroughCli:
    def test_golden_bundle_report(self, golden_bundle, golden_cloud_log, tmp_path):
        out = tmp_path / "out"
        rc = run(
            ["run-all", str(golden_bundle), str(golden_cloud_log), "--out", str(out),
             "--examiner", "jdoe", "--isolation", "airplane-mode"]
        )
        assert rc == 0
        report = json.loads((out / "golden-lgd802.report.json").read_text())
        assert report["device"]["model"] == "LG-D802"
        assert report["device"]["installed_app_count"] == 6
        assert report["device"]["uninstalled_app_count"] == 1
        kinds = [f["kind"] for f in report["findings"]]
        assert kinds.count("AppUsedThenUninstalled") == 1
        sealed = json.loads((golden_bundle / "manifest.sealed.json").read_text())
        assert sealed["examiner"] == "jdoe"
        assert sealed["isolation_method"] == "AirplaneMode"
