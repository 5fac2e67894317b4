from __future__ import annotations

import json

import pytest

from synctrail.acquisition import (
    EventKind,
    dump_to_json_dict,
    ingest_cloud_log,
    ingest_device_dump,
    parse_app_inventory,
    record_rows,
)
from synctrail.errors import DuplicateEventId, DuplicateRecordId, MissingManifest
from synctrail.evidence import ArtifactCategory, EvidenceRecord

from _oracles import civil_to_epoch
from test_cli import _PADDED_HEX, _SPACED_HEX


def write_bundle(root, files: dict[str, list[dict]], manifest: dict | None = None):
    root.mkdir(parents=True, exist_ok=True)
    payload = manifest or {
        "dump_id": "t-1",
        "collected_at": "2016-05-12T10:00:00Z",
        "zone_offset_minutes": 0,
        "tool_name": "t",
        "tool_version": "1",
    }
    (root / "manifest.json").write_text(json.dumps(payload), encoding="utf-8")
    for name, rows in files.items():
        (root / name).write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows),
            encoding="utf-8",
        )
    return root


class TestIngestDeviceDump:
    def test_golden_device_profile(self, golden_bundle):
        dump = ingest_device_dump(golden_bundle)
        profile = dump.device
        assert profile["model"] == "LG-D802"
        assert profile["android_version"] == "4.4.2"
        assert profile["sdk_level"] == "19"
        assert profile["brand"] == "lge"
        assert profile["manufacturer"] == "LGE"
        assert profile["kernel_name"] == "jingfu.wang"
        # Seven hex groups: kept opaque, never rejected on cosmetic grounds.
        assert profile["wifi_mac"] == "bc:f5:a:c:b3:d7:58"
        assert profile["battery_percent"] == 22
        assert dump.ledger == ()

    def test_device_section_keeps_documented_order(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"device_info.jsonl": [
                {"model": "X1", "device_clock": "12/05/2016 10:00:00 AM", "flight_mode_on": "true"}
            ]},
        )
        dump = ingest_device_dump(bundle)
        section = dump.device
        assert list(section) == [
            "model", "device_name", "android_version", "sdk_level", "brand",
            "manufacturer", "kernel_name", "wifi_mac", "wifi_ssid", "bluetooth_mac",
            "imei", "developer_option_enabled", "encryption_enabled", "flight_mode_on",
            "screen_lock_enabled", "screen_saver_enabled", "battery_percent",
            "device_clock_at_acquisition",
        ]
        assert section["model"] == "X1"
        assert section["flight_mode_on"] is True
        assert section["device_clock_at_acquisition"] == "12/05/2016 10:00:00 AM"
        assert dump_to_json_dict(dump)["device"] == section

    def test_seven_group_mac_warns_but_is_kept(self, golden_bundle):
        from synctrail.acquisition import profile_format_warnings

        dump = ingest_device_dump(golden_bundle)
        warnings = profile_format_warnings(dump.device)
        assert any("wifi_mac" in w for w in warnings)
        assert dump.device["wifi_mac"] == "bc:f5:a:c:b3:d7:58"

    def test_canonical_mac_passes_format_check(self):
        from synctrail.acquisition import profile_format_warnings

        profile = {"wifi_mac": "bc:f5:0a:0c:b3:d7", "imei": "356938035643809"}
        assert profile_format_warnings(profile) == []

    @pytest.mark.parametrize(
        "profile, note",
        [
            ({"wifi_mac": "aa:bb:cc:dd:ee:ff\n"},
             "wifi_mac 'aa:bb:cc:dd:ee:ff\\n' is not a canonical 6-group MAC, kept as-is"),
            ({"imei": "\uff13\uff15\uff16\uff19\uff13\uff18\uff10\uff13\uff15\uff16"
                      "\uff14\uff13\uff18\uff10\uff19"},
             "imei '\uff13\uff15\uff16\uff19\uff13\uff18\uff10\uff13\uff15\uff16"
             "\uff14\uff13\uff18\uff10\uff19' is not 14-16 digits, kept as-is"),
        ],
        ids=["mac-with-trailing-newline", "imei-of-full-width-digits"],
    )
    def test_malformed_identifier_gets_a_note(self, profile, note):
        from synctrail.acquisition import profile_format_warnings

        assert profile_format_warnings(profile) == [note]

    def test_golden_record_order_and_provenance(self, golden_bundle):
        dump = ingest_device_dump(golden_bundle)
        assert len(dump.records) == 1 + 7 + 8
        apps = [r for r in dump.records if r.category is ArtifactCategory.INSTALLED_APP]
        assert [r.attributes["_line"] for r in apps] == [str(n) for n in range(1, 8)]
        assert all(r.attributes["_file"] == "installed_apps.jsonl" for r in apps)
        assert all(row["source"] == "Device" for row in record_rows(dump.records))

    def test_manifest_only_bundle(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {})
        dump = ingest_device_dump(bundle)
        assert dump.records == ()
        assert dump.ledger == ()

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(MissingManifest):
            ingest_device_dump(tmp_path / "b")

    def test_malformed_line_ledgered_at_correct_number(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"messages.jsonl": [{"id": f"m{i}", "peer": "+1", "body": "x"} for i in range(5)]},
        )
        path = bundle / "messages.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = '{"id": "m2", "peer": '  # truncated JSON on line 3
        path.write_text("\n".join(lines) + "\n")

        dump = ingest_device_dump(bundle)
        assert len([r for r in dump.records if r.category is ArtifactCategory.MESSAGE]) == 4
        assert len(dump.ledger) == 1
        assert dump.ledger[0]["file"] == "messages.jsonl"
        assert dump.ledger[0]["line"] == 3

    def test_bad_timestamp_goes_to_ledger(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"installed_apps.jsonl": [
                {"id": "a1", "name": "Ok", "status": "All", "installed": "06/04/2016 02:33:53 PM"},
                {"id": "a2", "name": "Bad", "status": "All", "installed": "32/04/2016 02:33:53 PM"},
            ]},
        )
        dump = ingest_device_dump(bundle)
        assert len(dump.records) == 1
        assert dump.ledger[0]["line"] == 2

    @pytest.mark.parametrize("value", [1462875600, 12.5, True, ["2016-05-10T10:00:00Z"]])
    def test_time_field_that_is_not_a_string_is_one_ledger_row(self, tmp_path, value):
        bundle = write_bundle(
            tmp_path / "b",
            {"messages.jsonl": [
                {"id": "m1", "peer": "+1", "delivered_at": value},
                {"id": "m2", "peer": "+2", "delivered_at": "2016-05-10T10:00:00Z"},
            ]},
        )
        dump = ingest_device_dump(bundle)
        assert [r.record_id for r in dump.records] == ["m2"]
        assert dump.ledger == (
            {"file": "messages.jsonl", "line": 1,
             "message": "delivered_at must be a string timestamp"},
        )

    def test_duplicate_record_id_fatal(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"messages.jsonl": [{"id": "m1", "peer": "+1"}, {"id": "m1", "peer": "+2"}]},
        )
        with pytest.raises(DuplicateRecordId):
            ingest_device_dump(bundle)

    def test_duplicate_record_id_names_both_lines(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {
                "messages.jsonl": [{"id": "m1", "peer": "+1"}, {"peer": "+2"}],
                "calls.jsonl": [{"peer": "+3"}, {"id": "m1", "peer": "+4"}],
            },
        )
        with pytest.raises(DuplicateRecordId) as caught:
            ingest_device_dump(bundle)
        assert str(caught.value) == (
            "record id 'm1' at calls.jsonl:2 already used at messages.jsonl:1"
        )

    def test_unknown_category_file_reported_not_fatal(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {"messages.jsonl": [{"id": "m1", "peer": "+1"}]})
        (bundle / "sensor_history.jsonl").write_text('{"id":"s1"}\n')
        dump = ingest_device_dump(bundle)
        assert len(dump.records) == 1
        assert any(
            e["file"] == "sensor_history.jsonl" and e["line"] == 0 for e in dump.ledger
        )

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_number_is_one_ledger_entry(self, tmp_path, constant):
        bundle = write_bundle(tmp_path / "b", {})
        (bundle / "running_apps.jsonl").write_text(
            f'{{"name":"a","pid":{constant}}}\n{{"name":"b","nested":[1,{{"x":{constant}}}]}}\n'
            '{"name":"c"}\n'
        )
        dump = ingest_device_dump(bundle)
        assert [r.attributes["name"] for r in dump.records] == ["c"]
        message = f"invalid JSON: non-finite number {constant} is not allowed"
        assert [(e["line"], e["message"]) for e in dump.ledger] == [(1, message), (2, message)]

    def test_bom_line_keeps_its_ledger_message(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {})
        (bundle / "running_apps.jsonl").write_text('\ufeff{"name":"a"}\n', encoding="utf-8")
        assert [e["message"] for e in ingest_device_dump(bundle).ledger] == [
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        ]

    @pytest.mark.parametrize(
        "line, outcome",
        [
            ('{"name":"a"}', "a"),
            (' \t{"name":"a"}', "a"),
            ('{"name":"a"} \t', "a"),
            ('{"name":"a"}x', "invalid JSON: Extra data"),
            ('{"name":"a"}{"name":"b"}', "invalid JSON: Extra data"),
            ('{"name":"a"} 1', "invalid JSON: Extra data"),
            ("", "invalid JSON: Expecting value"),
            (" ", "invalid JSON: Expecting value"),
            ('{"name":"a"', "invalid JSON: Expecting ',' delimiter"),
            ('{"name":"a\\x"}', "invalid JSON: Invalid \\escape"),
            ('["a"]', "line is not a JSON object"),
            ("7", "line is not a JSON object"),
        ],
    )
    def test_each_line_is_read_as_json_loads_reads_it(self, tmp_path, line, outcome):
        bundle = write_bundle(tmp_path / "b", {})
        (bundle / "running_apps.jsonl").write_text(line + "\n")
        dump = ingest_device_dump(bundle)
        messages = [e["message"] for e in dump.ledger]
        assert [r.attributes["name"] for r in dump.records] + messages == [
            outcome
        ]

    def test_reserved_underscore_keys_rejected_per_line(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"messages.jsonl": [{"id": "m1", "_file": "spoof", "peer": "+1"}]},
        )
        dump = ingest_device_dump(bundle)
        assert dump.records == ()
        assert "_" in dump.ledger[0]["message"]

    def test_synthesized_ids_when_absent(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {"messages.jsonl": [{"peer": "+1"}, {"peer": "+2"}]})
        dump = ingest_device_dump(bundle)
        assert [r.record_id for r in dump.records] == ["messages:1", "messages:2"]

    def test_zone_offset_applied_to_legacy_times(self, tmp_path):
        manifest = {
            "dump_id": "t-2",
            "collected_at": "2016-05-12T10:00:00Z",
            "zone_offset_minutes": 120,
        }
        bundle = write_bundle(
            tmp_path / "b",
            {"installed_apps.jsonl": [
                {"id": "a1", "name": "X", "status": "All", "installed": "06/04/2016 02:33:53 PM"}
            ]},
            manifest,
        )
        dump = ingest_device_dump(bundle)
        assert dump.records[0].timestamp.seconds_since_epoch == (
            civil_to_epoch(2016, 4, 6, 14, 33, 53) - 7200
        )

    def test_ingestion_deterministic(self, golden_bundle):
        first, second = ingest_device_dump(golden_bundle), ingest_device_dump(golden_bundle)
        for form in (dump_to_json_dict, lambda dump: record_rows(dump.records)):
            text = [json.dumps(form(dump), sort_keys=True) for dump in (first, second)]
            assert text[0] == text[1]

    def test_every_profile_field_is_read(self, tmp_path):
        strings = ["model", "device_name", "android_version", "sdk_level", "brand",
                   "manufacturer", "kernel_name", "wifi_mac", "wifi_ssid", "bluetooth_mac",
                   "imei"]
        flags = ["developer_option_enabled", "encryption_enabled", "flight_mode_on",
                 "screen_lock_enabled", "screen_saver_enabled"]
        row = {name: f"v-{name}" for name in strings} | {name: "true" for name in flags}
        bundle = write_bundle(tmp_path / "b", {"device_info.jsonl": [row]})
        section = ingest_device_dump(bundle).device
        assert {name: section[name] for name in strings} == {n: f"v-{n}" for n in strings}
        assert all(section[name] is True for name in flags)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separator_stays_inside_its_record(self, tmp_path, separator):
        bundle = write_bundle(tmp_path / "b", {})
        line = json.dumps({"id": "m1", "peer": "+1", "body": f"a{separator}b"}, ensure_ascii=False)
        (bundle / "messages.jsonl").write_bytes(line.encode("utf-8") + b"\n")
        dump = ingest_device_dump(bundle)
        assert [r.attributes["body"] for r in dump.records] == [f"a{separator}b"]
        assert dump.ledger == ()
        assert dump.line_counts == {"messages.jsonl": 1}

    @pytest.mark.parametrize(
        "bad, message",
        [
            (b"\xff", "invalid UTF-8 at byte 0: invalid start byte"),
            (b'{"id":"m9","body":"caf\xc3"}',
             "invalid UTF-8 at byte 22: invalid continuation byte"),
            (b"[" * 100_000, "invalid JSON: nested too deeply"),
        ],
        ids=["lone-0xff", "truncated-sequence", "nested-too-deeply"],
    )
    def test_undecodable_line_is_one_ledger_entry(self, tmp_path, bad, message):
        bundle = write_bundle(tmp_path / "b", {})
        (bundle / "messages.jsonl").write_bytes(
            b'{"id":"m1","peer":"+1"}\n' + bad + b'\n{"id":"m2","peer":"+2"}\n'
        )
        dump = ingest_device_dump(bundle)
        assert [r.record_id for r in dump.records] == ["m1", "m2"]
        assert dump.ledger == ({"file": "messages.jsonl", "line": 2, "message": message},)
        assert dump.line_counts == {"messages.jsonl": 3}

    def test_losslessness_per_file(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {
                "messages.jsonl": [{"id": f"m{i}", "peer": "+1"} for i in range(4)],
                "calls.jsonl": [
                    {"id": "c1", "peer": "+2", "direction": "Outgoing", "at": "2016-05-10T09:00:00Z"}
                ],
            },
        )
        path = bundle / "messages.jsonl"
        content = path.read_text().splitlines()
        content[1] = "not json"
        path.write_text("\n".join(content) + "\n")
        dump = ingest_device_dump(bundle)
        for file_name, total in dump.line_counts.items():
            parsed = sum(1 for r in dump.records if r.attributes["_file"] == file_name)
            ledgered = sum(1 for e in dump.ledger if e["file"] == file_name and e["line"] > 0)
            assert parsed + ledgered == total


class TestParseAppInventory:
    def test_golden_inventory(self, golden_bundle):
        dump = ingest_device_dump(golden_bundle)
        apps = parse_app_inventory(dump.records)
        assert apps == [r for r in dump.records if r.category is ArtifactCategory.INSTALLED_APP]
        by_name = {a.attributes["name"]: a for a in apps}
        assert len(by_name) == 7
        assert by_name["Instagram"].attributes["status"] == "All"
        assert by_name["Instagram"].timestamp.to_iso() == "2016-04-06T14:33:53Z"
        bad = by_name["OSFunctionEnable"]
        assert bad.attributes["status"] == "Uninstalled"
        assert bad.attributes["package"] == "com.example.ccs.osfunctionenable"
        assert bad.timestamp.to_iso() == "2016-05-10T17:51:13Z"

    def test_status_is_compared_lowercased(self, tmp_path):
        statuses = ["all", "THIRDPARTY", "Disabled", "uNINSTALLED"]
        bundle = write_bundle(tmp_path / "b", {"installed_apps.jsonl": [
            {"id": f"a{n}", "name": "X", "status": status} for n, status in enumerate(statuses)
        ]})
        ledger: list[dict] = []
        apps = parse_app_inventory(ingest_device_dump(bundle).records, ledger)
        assert [a.attributes["status"] for a in apps] == statuses
        assert ledger == []

    def test_unknown_status_ledgered(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {"installed_apps.jsonl": [{"id": "a1", "name": "X", "status": "Sideloaded"}]},
        )
        ledger: list[dict] = []
        apps = parse_app_inventory(ingest_device_dump(bundle).records, ledger)
        assert apps == []
        assert ledger == [
            {"file": "installed_apps.jsonl", "line": 1, "message": "unknown app status 'Sideloaded'"}
        ]

    @pytest.mark.parametrize("app", [{"status": "All"}, {"status": "All", "name": ""}])
    def test_app_without_a_name_ledgered(self, tmp_path, app):
        bundle = write_bundle(
            tmp_path / "b",
            {"installed_apps.jsonl": [
                {"id": "a1", **app}, {"id": "a2", "name": "Y", "status": "All"}
            ]},
        )
        ledger: list[dict] = []
        apps = parse_app_inventory(ingest_device_dump(bundle).records, ledger)
        assert [a.record_id for a in apps] == ["a2"]
        assert ledger == [
            {"file": "installed_apps.jsonl", "line": 1, "message": "app record without a name"}
        ]

    def test_empty_inventory(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {})
        assert parse_app_inventory(ingest_device_dump(bundle).records) == []

    def test_ledger_rows_follow_record_order_and_status_is_checked_first(self, tmp_path):
        bundle = write_bundle(tmp_path / "b", {"installed_apps.jsonl": [
            {"id": "a1", "name": "X", "status": " All"},
            {"id": "a2", "name": "Y", "status": "All"},
            {"id": "a3", "status": "Disabled"},
            {"id": "a4", "status": "Sideloaded"},
            {"id": "a5", "name": "Z"},
        ]})
        ledger: list[dict] = []
        apps = parse_app_inventory(ingest_device_dump(bundle).records, ledger)
        assert [a.record_id for a in apps] == ["a2"]
        assert [(row["line"], row["message"]) for row in ledger] == [
            (1, "unknown app status ' All'"),
            (3, "app record without a name"),
            (4, "unknown app status 'Sideloaded'"),
            (5, "unknown app status ''"),
        ]

    def test_returns_the_given_records_and_ignores_other_categories(self):
        attrs = {"name": "X", "package": "com.example.x", "status": "Uninstalled"}
        line = EvidenceRecord("a1", ArtifactCategory.INSTALLED_APP, None, dict(attrs))
        message = EvidenceRecord("m1", ArtifactCategory.MESSAGE, None, dict(attrs))
        ledger: list[dict] = []
        apps = parse_app_inventory((message, line), ledger)
        assert len(apps) == 1 and apps[0] is line
        assert ledger == []


class TestIngestCloudLog:
    def test_example_uninstall_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"id":"e1","kind":"Uninstall","ts":"2016-05-10T16:51:13Z",'
            '"account":"a@x","object":"com.example.ccs.osfunctionenable"}\n'
        )
        events = ingest_cloud_log(path)
        assert len(events) == 1
        assert events[0].kind is EventKind.UNINSTALL
        assert events[0].account == "a@x"
        assert events[0].timestamp.seconds_since_epoch == civil_to_epoch(2016, 5, 10, 16, 51, 13)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert ingest_cloud_log(path) == []

    def test_kind_mapping_case_insensitive(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"id":"e1","kind":"UPLOAD","ts":"2016-05-10T16:51:13Z"}\n')
        assert ingest_cloud_log(path)[0].kind is EventKind.UPLOAD

    def test_unknown_kind_ledgered_and_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"id":"e1","kind":"Teleport","ts":"2016-05-10T16:51:13Z"}\n'
            '{"id":"e2","kind":"Login","ts":"2016-05-10T16:52:13Z","account":"a@x"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e2"]
        assert "Teleport" in ledger[0]["message"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "Login", "ts": "2016-05-10T16:51:13Z"}, "event without an id"),
            ({"id": "", "kind": "Login", "ts": "2016-05-10T16:51:13Z"}, "event without an id"),
            ({"id": 7, "kind": "Login", "ts": "2016-05-10T16:51:13Z"}, "event without an id"),
            ({"id": "e1", "kind": "Login"}, "event without a ts timestamp"),
            ({"id": "e1", "kind": "Login", "ts": 1462899073}, "event without a ts timestamp"),
            ({"id": "e1", "kind": "Login", "ts": "soon"},
             "bad ts: timestamp 'soon' matches no supported grammar"),
            ({"id": "e1", "kind": "Login", "ts": "2016-02-30T10:00:00Z"},
             "bad ts: day 30 does not exist in 2016-02"),
        ],
    )
    def test_event_without_a_usable_id_or_ts_is_one_ledger_row(self, tmp_path, fields, message):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps(fields) + '\n{"id":"e2","kind":"Login","ts":"2016-05-10T16:52:13Z"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e2"]
        assert ledger == [{"file": "log.jsonl", "line": 1, "message": message}]

    def test_duplicate_event_id_names_both_lines(self, tmp_path):
        rows = [
            {"id": f"e{i}", "kind": "Login", "ts": "2016-05-10T16:51:13Z"} for i in range(10)
        ]
        rows[7]["id"] = "e3"
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DuplicateEventId) as err:
            ingest_cloud_log(path)
        assert "line 8" in str(err.value)
        assert "line 4" in str(err.value)

    def test_digest_and_size_parsed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        digest = "ab" * 32
        path.write_text(
            json.dumps(
                {"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z",
                 "digest": digest, "size": 123}
            )
            + "\n"
        )
        event = ingest_cloud_log(path)[0]
        assert event.content_digest == digest
        assert event.size_bytes == 123

    @pytest.mark.parametrize(
        "digest",
        [_PADDED_HEX, _SPACED_HEX, int("1" * 64)],
        ids=["whitespace-padded", "space-separated", "json-integer"],
    )
    def test_digest_that_is_not_64_hex_characters_is_ledgered(self, tmp_path, digest):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z",
                        "digest": digest})
            + '\n{"id":"e2","kind":"Upload","ts":"2016-05-10T16:52:13Z"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e2"]
        assert [(e["line"], e["message"]) for e in ledger] == [
            (1, f"bad content digest {digest!r}")
        ]

    def test_uppercase_digest_accepted_in_lowercase(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z",
                        "digest": "AB" * 32})
            + "\n"
        )
        ledger: list[dict] = []
        (event,) = ingest_cloud_log(path, ledger)
        assert event.content_digest == "ab" * 32
        assert ledger == []

    def test_overflowing_size_ledgered_and_rest_ingested(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"id":"e1","kind":"Upload","ts":"2016-05-10T16:51:13Z","size":1e400}\n'
            '{"id":"e2","kind":"Upload","ts":"2016-05-10T16:52:13Z","size":7}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [(e.event_id, e.size_bytes) for e in events] == [("e2", 7)]
        assert [(e["line"], e["message"]) for e in ledger] == [
            (1, "invalid JSON: non-finite number 1e400 is not allowed")
        ]

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"id": "e\ud800x"}, "id"),
            ({"account": "a\udc00"}, "account"),
            ({"object": "\udfff.jpg"}, "object"),
            ({"account": {"k": ["\udc00"]}}, "account"),
            ({"id": "e\ud800x", "account": "a\udc00"}, "id"),
        ],
        ids=["id", "account", "object", "nested-account", "id-and-account"],
    )
    def test_a_lone_surrogate_in_a_kept_field_is_ledgered(self, tmp_path, fields, name):
        path = tmp_path / "log.jsonl"
        line = {"id": "e1", "kind": "Login", "ts": "2016-05-10T10:00:00Z", **fields}
        path.write_text(
            json.dumps(line)
            # Not kept, so not refused: a valid pair and a lone surrogate in an unread field.
            + '\n{"id":"e2 \\ud83d\\ude00","kind":"Login","ts":"2016-05-10T10:00:01Z",'
            + '"note":"\\udc00"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e2 \U0001f600"]
        assert ledger == [{
            "file": "log.jsonl",
            "line": 1,
            "message": f"field {name!r} holds a lone surrogate, which UTF-8 cannot encode",
        }]

    @pytest.mark.parametrize("size", [1.5, 12.0, True, False, "1.5", "twelve", [12], {"n": 1}])
    def test_size_that_is_not_an_integer_is_ledgered(self, tmp_path, size):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z", "size": size})
            + '\n{"id":"e2","kind":"Upload","ts":"2016-05-10T16:52:13Z","size":null}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [(e.event_id, e.size_bytes) for e in events] == [("e2", None)]
        assert [(e["line"], e["message"]) for e in ledger] == [(1, f"bad size {size!r}")]

    @pytest.mark.parametrize("size, expected", [(12, 12), ("12", 12), (" 7 ", 7), (0, 0)])
    def test_integer_size_or_integer_string_accepted(self, tmp_path, size, expected):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z", "size": size})
        )
        assert [e.size_bytes for e in ingest_cloud_log(path)] == [expected]

    @pytest.mark.parametrize(
        "value, text",
        [(None, ""), ("a@x", "a@x"), (5, "5"), (True, "true"), (1.5, "1.5"),
         ({"k": "Zoë"}, '{"k":"Zoë"}'), (["a", 1], '["a",1]')],
    )
    def test_account_and_object_stringified_as_device_attributes_are(
        self, tmp_path, value, text
    ):
        path = tmp_path / "log.jsonl"
        row = {"id": "e1", "kind": "Login", "ts": "2016-05-10T16:51:13Z",
               "account": value, "object": value}
        path.write_text(json.dumps(row) + "\n")
        (event,) = ingest_cloud_log(path)
        assert (event.account, event.package_or_object) == (text, text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_number_is_one_ledger_entry(self, tmp_path, constant):
        path = tmp_path / "log.jsonl"
        path.write_text(
            f'{{"id":"e1","kind":"Upload","ts":"2016-05-10T16:51:13Z","size":{constant}}}\n'
            '{"id":"e2","kind":"Upload","ts":"2016-05-10T16:52:13Z"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e2"]
        assert [(e["line"], e["message"]) for e in ledger] == [
            (1, f"invalid JSON: non-finite number {constant} is not allowed")
        ]

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_unicode_line_separator_stays_inside_its_event(self, tmp_path, separator):
        path = tmp_path / "log.jsonl"
        row = {"id": "e1", "kind": "Upload", "ts": "2016-05-10T16:51:13Z",
               "object": f"a{separator}b"}
        path.write_bytes(json.dumps(row, ensure_ascii=False).encode("utf-8") + b"\n")
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.package_or_object for e in events] == [f"a{separator}b"]
        assert ledger == []

    def test_undecodable_line_is_one_ledger_entry(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"id":"e1","kind":"Login","ts":"2016-05-10T16:51:13Z"}\n'
            b"\xff\n"
            + b'{"a":' * 100_000 + b"\n"
            b'{"id":"e2","kind":"Login","ts":"2016-05-10T16:52:13Z"}\n'
        )
        ledger: list[dict] = []
        events = ingest_cloud_log(path, ledger)
        assert [e.event_id for e in events] == ["e1", "e2"]
        assert ledger == [
            {"file": "log.jsonl", "line": 2,
             "message": "invalid UTF-8 at byte 0: invalid start byte"},
            {"file": "log.jsonl", "line": 3, "message": "invalid JSON: nested too deeply"},
        ]

    def test_file_order_preserved(self, tmp_path):
        rows = [
            {"id": f"e{i}", "kind": "Login", "ts": f"2016-05-10T16:51:{59 - i:02d}Z"}
            for i in range(5)
        ]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert [e.event_id for e in ingest_cloud_log(path)] == [f"e{i}" for i in range(5)]
