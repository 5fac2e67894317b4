from __future__ import annotations

import io
import json
import re
import shutil
import tracemalloc
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synctrail.acquisition import (
    dump_to_json_dict,
    ingest_cloud_log,
    ingest_device_dump,
    parse_app_inventory,
)
import synctrail
from synctrail import cli, reporting
from synctrail.cli import run
from synctrail.correlation import (
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    match_synced_artifacts,
    zero_skew,
)
from synctrail.osint import build_identity_graph
from synctrail.preservation import seal_dump, verify_chain
from synctrail.simulator import SimParams, generate_case
from synctrail.reporting import (
    REPORT_FORMATS,
    STAGE_FILES,
    build_case_report,
    render_report,
)

from _oracles import report_layout
from test_byte_pin import comm_shapes, golden, simulated, simulated_metadata_only, sync_shapes

SECTIONS = [
    "case_id",
    "tool_version",
    "schema_version",
    "parameters",
    "inputs",
    "device",
    "skew",
    "links",
    "findings",
    "timeline",
    "excluded_undated",
    "identity_graph",
    "geo",
    "error_ledger",
]

PARAMETERS = {"window_seconds": 300, "min_skew_support": 3, "locale": "day-first"}


def rendered(report: dict, format: str = "json") -> bytes:
    out = io.BytesIO()
    render_report(report, out, format)
    return out.getvalue()


def empty_case() -> dict:
    return build_case_report({"parameters.json": PARAMETERS}, "0.1.0", "empty")


def golden_case(golden_bundle, golden_cloud_log) -> dict:
    dump = ingest_device_dump(golden_bundle)
    events = ingest_cloud_log(golden_cloud_log)
    apps = parse_app_inventory(dump.records)
    skew = zero_skew()
    links = match_synced_artifacts(dump.records, events, skew)
    timeline = build_timeline(dump.records, events, skew)
    uninstall = detect_uninstall_evidence(dump.records, events)
    findings = derive_cloud_usage_findings(links, uninstall, events, skew)
    graph = build_identity_graph(dump.records)
    verification = verify_chain(seal_dump(dump), dump.records)
    uninstalled = sum(1 for a in apps if a.attributes["status"] == "Uninstalled")
    stages = {
        "parameters.json": PARAMETERS,
        "dump.json": {
            **dump_to_json_dict(dump),
            "app_counts": {"installed": len(apps) - uninstalled, "uninstalled": uninstalled},
            "parse_ledger": [],
        },
        "verification.json": verification,
        "cloud_log.json": {"name": golden_cloud_log.name, "event_count": len(events), "ledger": []},
        "skew.json": skew,
        "links.json": links,
        "findings.json": findings,
        "timeline.json": timeline,
        "identity_graph.json": graph,
    }
    return build_case_report(stages, "0.1.0", "golden")


class TestRenderReport:
    def test_empty_case_has_every_section(self):
        data = json.loads(rendered(empty_case(), "json"))
        assert list(data) == SECTIONS
        assert data["links"] == []
        assert data["findings"] == []
        assert data["timeline"] == []
        assert data["geo"] == []
        assert data["error_ledger"] == []
        assert data["identity_graph"] == {"nodes": [], "edges": []}
        assert data["skew"] is None

    def test_rendering_is_byte_deterministic(self, golden_bundle, golden_cloud_log):
        case = golden_case(golden_bundle, golden_cloud_log)
        for fmt in REPORT_FORMATS:
            assert rendered(case, fmt) == rendered(case, fmt)

    def test_each_format_gives_the_bytes_that_report_writes(self, tmp_path):
        case = generate_case(SimParams(seed=3, n_uploads=6, skew_seconds=60), tmp_path / "case")
        out = tmp_path / "out"
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
        stages = {name: cli._read_stage(out / name, shape)
                  for name, (_, shape) in STAGE_FILES.items() if (out / name).is_file()}
        report = build_case_report(stages, synctrail.__version__)
        for fmt in REPORT_FORMATS:
            assert run(["report", "--out", str(out), "--format", fmt]) == 0
            on_disk = (out / f"{report['case_id']}.report.{fmt}").read_bytes()
            assert rendered(report, fmt) == on_disk, fmt

    @pytest.mark.parametrize("format", ["pdf", "markdown", "JSON", ""])
    def test_a_format_outside_the_set_is_refused_before_a_byte_is_written(self, format):
        out = io.BytesIO()
        with pytest.raises(ValueError, match=repr(format)):
            render_report(empty_case(), out, format)
        assert out.getvalue() == b""

    def test_golden_case_contents(self, golden_bundle, golden_cloud_log):
        data = json.loads(rendered(golden_case(golden_bundle, golden_cloud_log)))
        assert data["device"]["model"] == "LG-D802"
        assert data["device"]["installed_app_count"] == 6
        assert data["device"]["uninstalled_app_count"] == 1
        assert data["inputs"]["dumps"][0]["chain_verdict"] == "Intact"
        assert len(data["findings"]) == 1
        assert data["findings"][0]["kind"] == "AppUsedThenUninstalled"
        assert data["findings"][0]["confidence"] == "High"

    def test_markdown_is_information_monotone_on_finding_ids(
        self, golden_bundle, golden_cloud_log
    ):
        case = golden_case(golden_bundle, golden_cloud_log)
        data = json.loads(rendered(case, "json"))
        markdown = rendered(case, "md").decode("utf-8")
        for finding in data["findings"]:
            assert finding["finding_id"] in markdown
            for supporting in finding["supporting_ids"]:
                assert supporting in markdown

    def test_html_static_and_self_contained(self, golden_bundle, golden_cloud_log):
        page = rendered(
            golden_case(golden_bundle, golden_cloud_log), "html"
        ).decode("utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "<style>" in page
        assert "LG-D802" in page

    def test_html_marks_ids_and_names_as_elements(self, tmp_path):
        bundle, cloud_log, _ = golden(tmp_path)
        out = tmp_path / "out"
        argv = ["run-all", str(bundle), str(cloud_log), "--out", str(out), "--format", "html"]
        assert run(argv) == 0
        page = (out / "golden-lgd802.report.html").read_text(encoding="utf-8")
        assert "<li><strong>F001</strong> AppUsedThenUninstalled [High]: " in page
        assert "<li>Dump <code>golden-lgd802</code> collected " in page
        assert "<li>Cloud log <code>cloud_events.jsonl</code>, 2 events</li>" in page
        assert "**" not in page and "`" not in page
        markdown = rendered(self.forged_spans(), "md").decode("utf-8")
        assert "- **<b>&x** x [x]: " in markdown and "- Dump `<b>&x` collected " in markdown
        forged = rendered(self.forged_spans(), "html").decode("utf-8")
        assert "<li><strong>&lt;b&gt;&amp;x</strong> x [x]: " in forged
        assert "<li>Dump <code>&lt;b&gt;&amp;x</code> collected " in forged
        assert "<li>Cloud log <code>&lt;b&gt;&amp;x</code>, 1 events</li>" in forged

    @staticmethod
    def forged_spans() -> dict:
        case = case_of("x")
        case["findings"][0]["finding_id"] = case["inputs"]["dumps"][0]["dump_id"] = "<b>&x"
        case["inputs"]["cloud_logs"][0]["name"] = "<b>&x"
        return case

    def test_a_timeline_row_of_dashes_is_a_row(self):
        case = case_of("x")
        case["timeline"].append(dict.fromkeys(case["timeline"][0], "---"))
        page = rendered(case, "html").decode("utf-8")
        assert "<tr><td>---</td><td>---</td><td>---</td><td>---</td></tr>" in page
        assert page.count("<tr>") == 3

    @pytest.mark.parametrize("text", ["\u00a0\u3000\u001fr1", " r1 ", "r1\u2003"])
    def test_a_timeline_cell_shows_the_markdown_cell_s_text(self, text):
        case = case_of("x")
        case["timeline"][0]["id"] = text
        markdown = rendered(case, "md").decode("utf-8")
        page = rendered(case, "html").decode("utf-8")
        assert f"\n| x | x | {text} | x |\n" in markdown
        assert f"<tr><td>x</td><td>x</td><td>{text}</td><td>x</td></tr>\n" in page


# Each character, or pair, that str.splitlines ends a line at.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
FORGERIES = [f"x{mark}## Forged | cell" for mark in LINE_BREAKS] + [
    "a|b", "\\|", "x\\", "\\", "\\n", "| --- |", "# h1", "## h2", "- item",
]


def case_of(text: str) -> dict:
    """A report whose every text the Markdown prints is ``text``."""
    node = {"kind": text, "value": text}
    return {
        "case_id": text,
        "tool_version": text,
        "schema_version": 2,
        "parameters": {text: text},
        "inputs": {
            "dumps": [{"dump_id": text, "collected_at": text, "record_count": 1,
                       "chain_verdict": text}],
            "cloud_logs": [{"name": text, "event_count": 1}],
        },
        "device": {text: text},
        "skew": {"offset_seconds": 0, "support_count": 3, "spread_seconds": 0, "fallback": False},
        "links": [{"device_record_id": text, "cloud_event_id": text, "tier": text,
                   "time_delta_seconds": 1, "account": text, "kind": text}],
        "findings": [
            {"finding_id": text, "kind": text, "confidence": text, "narrative": text,
             "supporting_ids": [text, text]},
            {"finding_id": text, "kind": text, "confidence": text, "narrative": text,
             "supporting_ids": [text, text], "account": text, "tier": text, "link_count": 2,
             "first_utc": text, "last_utc": text},
        ],
        "timeline": [{"timestamp_utc": text, "source": text, "id": text, "label": text}],
        "excluded_undated": 1,
        "identity_graph": {"nodes": [node], "edges": [{"a": node, "b": node, "count": 2}]},
        "geo": [{"ip": text, "country": text, "city": text, "source_table": text}],
        "error_ledger": [{"file": text, "line": 1, "message": text}],
    }


def line_kinds(markdown: bytes) -> list[str]:
    """What each Markdown line is to the HTML renderer: its first word."""
    return [line.split(" ", 1)[0] for line in markdown.decode("utf-8").splitlines()]


def html_structure(page: bytes) -> list[str]:
    """The HTML report's elements, with the text of each heading and the cells of each row."""
    text = page.decode("utf-8")
    return re.findall(r"<h[12]>.*?</h[12]>|</?ul>|</?table>|<li>|<p>|<tr>|<t[hd]>", text)


class _Parents(HTMLParser):
    """Each element of a page as (its parent's tag, its tag), checking that
    every element is closed, innermost first."""

    def __init__(self) -> None:
        super().__init__()
        self.open: list[str] = []
        self.elements: list[tuple[str, str]] = []

    def handle_starttag(self, tag, attrs):
        self.elements.append((self.open[-1] if self.open else "", tag))
        if tag != "meta":  # the page's one element with no end tag
            self.open.append(tag)

    def handle_endtag(self, tag):
        assert self.open[-1:] == [tag], f"</{tag}> closes {self.open}"
        self.open.pop()


# The one parent that each list and table element may have.
PARENTS = {"ul": "body", "li": "ul", "table": "body", "tr": "table", "th": "tr", "td": "tr"}


def assert_lists_and_tables(page: bytes) -> None:
    """Every ``li`` of ``page`` sits in a ``ul``, every ``tr`` in a ``table``."""
    parser = _Parents()
    parser.feed(page.decode("utf-8"))
    parser.close()
    assert parser.open == []
    misplaced = [(parent, tag) for parent, tag in parser.elements
                 if PARENTS.get(tag, parent) != parent]
    assert misplaced == []
    assert {"ul", "li"} <= {tag for _, tag in parser.elements}


@pytest.mark.parametrize(
    "make_input", [golden, simulated, simulated_metadata_only, sync_shapes, comm_shapes]
)
def test_html_lists_and_tables_are_well_formed(tmp_path, make_input):
    bundle, cloud_log, extra = make_input(tmp_path)
    out = tmp_path / "out"
    argv = ["run-all", str(bundle), str(cloud_log), "--out", str(out), "--format", "html", *extra]
    assert run(argv) == 0
    (page,) = out.glob("*.report.html")
    assert_lists_and_tables(page.read_bytes())


class TestMarkdownStructure:
    """Evidence text cannot add a line, a heading or a table cell to the
    Markdown or HTML report."""

    @pytest.mark.parametrize("text", FORGERIES)
    def test_no_text_changes_the_structure(self, text):
        plain = case_of("x")
        forged = case_of(text)
        markdown = rendered(forged, "md")
        assert line_kinds(markdown) == line_kinds(rendered(plain, "md"))
        page = rendered(forged, "html")
        headings = [part for part in html_structure(page) if part.startswith("<h")]
        structure = [part if not part.startswith("<h") else "<h>" for part in html_structure(page)]
        plain_page = rendered(plain, "html")
        plain_structure = [
            part if not part.startswith("<h") else "<h>" for part in html_structure(plain_page)
        ]
        assert structure == plain_structure
        assert_lists_and_tables(page)
        # Only the case id's heading shows a value, and the title shows the same text.
        assert headings[1:] == [
            part for part in html_structure(plain_page) if part.startswith("<h")
        ][1:]
        (title,) = re.findall(r"<title>(.*?)</title>", page.decode("utf-8"), re.DOTALL)
        assert f"<h1>{title}</h1>" == headings[0]

    def test_escapes_are_the_json_forms(self):
        markdown = rendered(case_of("x\n## Forged | cell"), "md")
        lines = markdown.decode("utf-8").splitlines()
        row = "| x\\n## Forged \\| cell | x\\n## Forged \\| cell " * 2 + "|"
        assert row in lines
        assert "- x\\n## Forged | cell: x\\n## Forged | cell" in lines
        escaped = rendered(case_of("".join(LINE_BREAKS) + "\\"), "md")
        assert (
            "- \\n\\r\\r\\n\\u000b\\f\\u001c\\u001d\\u001e\\u0085\\u2028\\u2029\\\\: "
            in escaped.decode("utf-8")
        )

    def test_a_forged_record_id_adds_no_heading(self, golden_bundle, golden_cloud_log, tmp_path):
        pages = []
        for record_id in ("x", "x\n## Forged | cell"):
            (golden_bundle / "messages.jsonl").write_text(json.dumps(
                {"id": record_id, "delivered_at": "2016-05-10T10:00:00Z", "body": "hi"}
            ) + "\n")
            (golden_bundle / "manifest.sealed.json").unlink(missing_ok=True)
            out = tmp_path / f"out{len(pages)}"
            argv = ["run-all", str(golden_bundle), str(golden_cloud_log), "--out", str(out),
                    "--format", "html"]
            assert run(argv) == 0
            pages.append((out / "golden-lgd802.report.html").read_bytes())
        plain, forged = map(html_structure, pages)
        assert forged == plain
        assert_lists_and_tables(pages[1])
        assert "<h2>Timeline (10 entries)</h2>" in forged
        assert b"<td>x\\n## Forged \\| cell</td>" in pages[1]

    def test_a_forged_account_adds_no_heading(self, tmp_path):
        """The cloud log names each event's account; a proven transfer's
        finding and each of its links print it."""
        source = Path(__file__).parent / "data" / "sync_shapes"
        pages = []
        for account in ("x", "x\n## Forged | cell"):
            case = tmp_path / f"case{len(pages)}"
            shutil.copytree(source / "bundle", case / "bundle")
            log = case / "cloud_events.jsonl"
            log.write_text((source / "cloud_events.jsonl").read_text(encoding="utf-8").replace(
                '"owner@example.com"', json.dumps(account)
            ), encoding="utf-8")
            out = case / "out"
            argv = ["run-all", str(case / "bundle"), str(log), "--out", str(out),
                    "--format", "html"]
            assert run(argv) == 0
            pages.append((out / "sync-shapes.report.html").read_bytes())
        plain, forged = map(html_structure, pages)
        assert forged == plain
        assert_lists_and_tables(pages[1])
        assert b"(Download of account x\\n## Forged | cell, ExactDigest, delta 1 s)" in pages[1]
        assert b"(account x\\n## Forged | cell; tier ExactDigest; link_count 3;" in pages[1]

    @staticmethod
    def run_without_upload_accounts(tmp_path: Path, fmt: str) -> Path:
        """run-all on sync_shapes with ``account`` left off every Upload line; the out dir."""
        source = Path(__file__).parent / "data" / "sync_shapes"
        shutil.copytree(source / "bundle", tmp_path / "bundle")
        log = tmp_path / "cloud_events.jsonl"
        lines = []
        for line in (source / "cloud_events.jsonl").read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            if event["kind"] == "Upload":
                del event["account"]
            lines.append(json.dumps(event) + "\n")
        log.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run-all", str(tmp_path / "bundle"), str(log), "--out", str(out),
                "--format", fmt]
        assert run(argv) == 0
        return out

    def test_a_cloud_line_without_an_account_names_no_account(self, tmp_path):
        out = self.run_without_upload_accounts(tmp_path, "md")
        findings = json.loads((out / "findings.json").read_text(encoding="utf-8"))
        uploads = [f for f in findings if f["kind"] == "ProvenUpload"]
        assert uploads and all(f["account"] == "" for f in uploads)
        assert all(" Upload cloud event(s) of no account, " in f["narrative"] for f in uploads)
        markdown = (out / "sync-shapes.report.md").read_text(encoding="utf-8")
        assert "(Upload of no account, ExactDigest, " in markdown
        assert "of account ," not in markdown

    @pytest.mark.parametrize("fmt", ["md", "html"])
    def test_a_finding_without_an_account_names_no_account(self, tmp_path, fmt):
        out = self.run_without_upload_accounts(tmp_path, fmt)
        report = (out / f"sync-shapes.report.{fmt}").read_text(encoding="utf-8")
        assert "ProvenUpload" in report
        assert "(no account; tier ExactDigest; link_count " in report
        assert "account ;" not in report


def expanded_list_items(value):
    """Each item of every list that the report's layout expands: the lists
    reached from the top through objects alone."""
    if isinstance(value, dict):
        for item in value.values():
            yield from expanded_list_items(item)
    elif isinstance(value, (list, tuple)):
        yield from value


def assert_report_json(data: bytes, case) -> None:
    """``data`` is ``case`` in the report's layout: the oracle's text, the same
    JSON value, and each item of an expanded list on exactly one line."""
    text = data.decode("utf-8")
    assert text == report_layout(case)
    parsed = json.loads(text)
    # Dumped again, NaN equals itself and keys that json.dumps converts compare equal.
    assert json.dumps(parsed) == json.dumps(json.loads(json.dumps(case)))
    lines = {line.strip().rstrip(",") for line in text.split("\n")}
    # The items of case, not of parsed: keys that json.dumps writes alike,
    # such as 1 and "1" or two NaNs, are one key once the text is parsed.
    for item in expanded_list_items(case):
        assert json.dumps(item, ensure_ascii=False) in lines


def test_the_layout_puts_each_row_on_one_line():
    case = {"links": [{"id": "a", "ids": ["x", "y"]}, {"id": "b", "ids": []}],
            "graph": {"nodes": [], "edges": [[1, {"a": None}]]}, "skew": None}
    assert rendered(case) == (
        '{\n'
        '  "links": [\n'
        '    {"id": "a", "ids": ["x", "y"]},\n'
        '    {"id": "b", "ids": []}\n'
        '  ],\n'
        '  "graph": {\n'
        '    "nodes": [],\n'
        '    "edges": [\n'
        '      [1, {"a": null}]\n'
        '    ]\n'
        '  },\n'
        '  "skew": null\n'
        '}\n'
    ).encode()


# Strings that a renderer could mistake for structure: indentation, and
# the separators of a one-line row.
TRICKY = ["a\nb", "back\\slash", 'say "hi"', "{", "]", "line\u2028sep", "\x00\x07\x1b\t\r",
          "Zoë – 東京 🙂", "", "  : , ", "}, {", "], [", '", "', "],["]

json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.sampled_from(TRICKY)
)
# Keys json.dumps accepts besides strings; a dict may mix them with strings.
other_keys = st.none() | st.booleans() | st.integers() | st.floats()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.text() | other_keys, inner, max_size=4),
    max_leaves=8,
)
json_objects = st.dictionaries(st.text() | st.sampled_from(TRICKY), json_values, max_size=3)


class TestSectionBySectionJson:
    def test_tricky_strings_empty_sections_and_no_skew(self):
        nested = {key: [key, {key: key}, [], {}] for key in TRICKY}
        case = {
            "case_id": "case\n\"1\"",
            "tool_version": "0.1.0",
            "parameters": {"window_seconds": 300, "note": "\u2028"},
            "inputs": {"dumps": [], "cloud_logs": []},
            "device": {},
            "skew": None,
            "links": [nested, [], {}],
            "findings": TRICKY,
            "timeline": [{"attributes": nested}],
            "excluded_undated": 0,
            "identity_graph": {"nodes": [], "edges": [[]]},
            "geo": [],
            "error_ledger": [{"message": text} for text in TRICKY],
        }
        assert_report_json(rendered(case, "json"), case)

    def test_empty_case(self):
        case = empty_case()
        assert case["skew"] is None
        assert_report_json(rendered(case, "json"), case)

    def test_golden_case(self, golden_bundle, golden_cloud_log):
        case = golden_case(golden_bundle, golden_cloud_log)
        assert_report_json(rendered(case, "json"), case)

    @settings(deadline=None)
    @given(
        text=st.text() | st.sampled_from(TRICKY),
        objects=st.lists(json_objects, min_size=4, max_size=4),
        lists=st.lists(st.lists(json_values, max_size=3), min_size=5, max_size=5),
        skew=st.none() | json_objects,
        count=st.integers(),
    )
    @example(
        text="", objects=[{}] * 4, lists=[[], [], [], [], [{float("nan"): 0, float("nan"): 0}]],
        skew=None, count=0,
    )
    def test_any_json_content(self, text, objects, lists, skew, count):
        case = {
            "case_id": text,
            "tool_version": text,
            "parameters": objects[0],
            "inputs": objects[1],
            "device": objects[2],
            "skew": skew,
            "links": lists[0],
            "findings": lists[1],
            "timeline": lists[2],
            "excluded_undated": count,
            "identity_graph": objects[3],
            "geo": lists[3],
            "error_ledger": lists[4],
        }
        assert_report_json(rendered(case, "json"), case)


class Text(str):
    """A str subclass: json.dumps writes it as a string, the table writer hands it over."""


# Text that a table writer filling a %-template, or splitting encoded
# cells on newlines and brackets, could mistake for its own structure.
TABLE_STRINGS = [*TRICKY, "%", "%s", "%%s", "%(x)s", "]\n[", "[", "]", "],\n  [", "\x00",
                 "],[", "x],[y", "\u2028"]
table_leaves = (
    st.none() | st.booleans() | st.integers() | st.text() | st.sampled_from(TABLE_STRINGS)
)
table_keys = st.text(max_size=4) | st.sampled_from(TABLE_STRINGS)

# Each way a row can stop a block from being a table, and so send each of
# its items to the encoder on its own.
BREAKERS = {
    "missing key": lambda row, key: {k: v for k, v in row.items() if k != key},
    "extra key": lambda row, key: {**row, key + "+": 1},
    "reordered keys": lambda row, key: dict(reversed(row.items())),
    "float cell": lambda row, key: {**row, key: 1.5},
    "str subclass cell": lambda row, key: {**row, key: Text("t")},
    "nested dict cell": lambda row, key: {**row, key: {"a": [1, {"b": None}]}},
    "dict in a list cell": lambda row, key: {**row, key: ["x", {"y": 1}]},
    "tuple cell": lambda row, key: {**row, key: ("x", 2)},
    "non-str key": lambda row, key: {**row, 7: "seven"},
    "empty dict": lambda row, key: {},
    "not a dict": lambda row, key: [row],
}


# Each layout of the one JSON writer, with the reference text it equals.
LAYOUTS = {
    "report": (reporting.REPORT_JSON, report_layout),
    "stage file": (
        reporting.STAGE_JSON,
        lambda value: json.dumps(value, ensure_ascii=False, separators=(",", ":")) + "\n",
    ),
}


def written(value: object, layout: str) -> bytes:
    out = io.BytesIO()
    reporting.write_json(value, out, LAYOUTS[layout][0])
    return out.getvalue()


def dumped(value: object, layout: str) -> bytes:
    return LAYOUTS[layout][1](value).encode("utf-8")


@st.composite
def tables(draw) -> list:
    """Rows sharing one key tuple, cycled past one block, maybe with one row broken."""
    keys = draw(st.lists(table_keys, min_size=1, max_size=4, unique=True))
    list_columns = draw(st.sets(st.sampled_from(keys)))
    cell = {key: st.lists(table_leaves, max_size=3) if key in list_columns else table_leaves
            for key in keys}
    distinct = [{key: draw(cell[key]) for key in keys}
                for _ in range(draw(st.integers(1, 4)))]
    blocks = [reporting.STAGE_JSON.block, reporting.REPORT_JSON.block]
    size = draw(st.sampled_from([1, 2, 3, *blocks, *(block + 1 for block in blocks), 700]))
    rows = [distinct[index % len(distinct)] for index in range(size)]
    breaker = draw(st.sampled_from([None, *BREAKERS]))
    if breaker is not None:
        at = draw(st.integers(0, size - 1))
        rows[at] = BREAKERS[breaker](rows[at], draw(st.sampled_from(keys)))
    return rows


class TestTableWriter:
    """Lists of same-keyed dicts: through the table writer in the report, one
    encode per block in a stage file, and the reference text in both."""

    @settings(deadline=None, max_examples=300)
    @given(rows=tables(), layout=st.sampled_from(sorted(LAYOUTS)), other=json_values)
    def test_equals_the_reference(self, rows, layout, other):
        case = {"table": rows, "nested": {"rows": rows, "after": [rows, "%s", other]}}
        assert written(case, layout) == dumped(case, layout)
        if layout == "report":
            assert_report_json(written(case, layout), case)

    def test_true_is_not_one(self):
        rows = [{"flag": True, "n": 1}, {"flag": 1, "n": True}, {"flag": False, "n": 0}]
        assert_report_json(rendered({"t": rows}), {"t": rows})

    @pytest.mark.parametrize("cells", [[[]], [["only"]], [[], ["a", 1, None, True]], [["x"], []]])
    def test_empty_and_one_item_list_cells(self, cells):
        rows = [{"ids": cell, "n": index} for index, cell in enumerate(cells)]
        assert_report_json(rendered({"t": rows}), {"t": rows})

    def test_a_report_is_written_a_block_at_a_time(self):
        rows = [{"id": f"r{i}", "at": i} for i in range(3 * reporting.REPORT_JSON.block)]
        case = {"links": rows}
        writes: list[bytes] = []
        out = io.BytesIO()
        out.write = lambda data: writes.append(data) or len(data)  # type: ignore[method-assign]
        render_report(case, out)
        assert_report_json(b"".join(writes), case)
        assert len(writes) == 4
        assert max(map(len, writes)) < len(b"".join(writes)) / 2


class TestOneWriterTwoLayouts:
    """The report and every stage file go through one writer, ``write_json``."""

    def test_list_cells_split_before_they_are_joined(self):
        # List cells joined by commas hold "],[" (", " in the report) between
        # two cells and inside the strings "x],[y" and "x], [y" alike.
        rows = [{"id": "a", "ids": ["x],[y", "x], [y"]}, {"id": "b", "ids": ["z", "%", "\u2028"]}]
        for layout in LAYOUTS:
            assert written(rows, layout) == dumped(rows, layout)
        assert written(rows, "stage file") == (
            '[{"id":"a","ids":["x],[y","x], [y"]},{"id":"b","ids":["z","%","\u2028"]}]\n'.encode()
        )
        assert written(rows, "report") == (
            '[\n  {"id": "a", "ids": ["x],[y", "x], [y"]},\n'
            '  {"id": "b", "ids": ["z", "%", "\u2028"]}\n]\n'.encode()
        )

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("count", [0, 1, 64, 65, 256, 257, 700])
    def test_lists_and_tuples_across_block_boundaries(self, layout, count):
        rows = [{"n": n, "ids": [str(n)] * (n % 3), "at": None} for n in range(count)]
        value = {"list": rows, "tuple": tuple(rows), "nested": [tuple(rows), rows]}
        assert written(value, layout) == dumped(value, layout)


class TestReportStepMemory:
    @pytest.mark.parametrize(
        "format, floor",
        [("json", 800_000), ("md", 400_000), ("html", 600_000)],
        ids=["json", "md", "html"],
    )
    def test_peak_stays_below_the_report_size(self, tmp_path, capsys, format, floor):
        """tracemalloc's peak over the report step, on a case of the benchmark's
        sync-bulk size: the report is written as it renders, never held whole,
        in every format."""
        params = SimParams(seed=1, n_uploads=2000, n_messages=800, n_calls=200, n_apps=200,
                           skew_seconds=300)
        case = generate_case(params, tmp_path / "case")
        out = tmp_path / "out"
        argv = ["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]
        assert run(argv) == 0
        stages = {name: cli._read_stage(out / name, shape)
                  for name, (_, shape) in STAGE_FILES.items() if (out / name).is_file()}
        tracemalloc.start()
        try:
            path = cli._step_report(out, stages, None, format)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > floor
        assert peak < size
