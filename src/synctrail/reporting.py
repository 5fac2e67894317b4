"""Deterministic case reports.

The JSON rendering is the source of truth; Markdown and HTML are pure
re-renderings of the same data with nothing added, with each value
escaped so that it stays on its line and in its cell. Identical inputs
produce byte-identical output in every format, which is why no report
ever contains a wall-clock time, an absolute path, or unordered
collections.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import chain, groupby
from operator import itemgetter
from typing import Any, BinaryIO, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .correlation import DEFAULT_MIN_SKEW_SUPPORT, DEFAULT_WINDOW_SECONDS
from .evidence import Locale


class ReportFormat(Enum):
    JSON = "json"
    MARKDOWN = "md"
    HTML = "html"


# The report's layout, as REPORT_SCHEMA.md describes it; a change to the
# report's fields or their meaning takes the next number.
SCHEMA_VERSION = 2

TIMESTAMP_ASSUMPTION = (
    "All times normalized to UTC; legacy device timestamps read per the locale "
    "flag; sources without zone data are assumed UTC"
)


def parameters_to_dict(
    window_seconds: int = DEFAULT_WINDOW_SECONDS,
    min_skew_support: int = DEFAULT_MIN_SKEW_SUPPORT,
    locale: Locale = Locale.DAY_FIRST,
) -> dict:
    return {
        "window_seconds": window_seconds,
        "min_skew_support": min_skew_support,
        "locale": locale.value,
        "timestamp_assumption": TIMESTAMP_ASSUMPTION,
    }


_LEDGER = [{"file": None, "line": None, "message": None}]
_IDENTIFIER = {"kind": None, "value": None}

# Each stage file's (absent, shape): what the report takes the file to
# hold when it is absent, and the shape of what the report reads from it
# (see acquisition.shape_problem).
STAGE_FILES: dict[str, tuple[object, object]] = {
    "dump.json": (None, {
        "dump_id": str,
        "collected_at": None,
        "device": {},
        "app_counts": {"installed": None, "uninstalled": None},
        "record_count": int,
        "ledger": _LEDGER,
        "parse_ledger": _LEDGER,
    }),
    "verification.json": (None, {"verdict": None}),
    "parameters.json": (parameters_to_dict(), {}),
    "cloud_log.json": (None, {"name": None, "event_count": None, "ledger": _LEDGER}),
    "skew.json": (None, {
        "offset_seconds": None, "support_count": None, "spread_seconds": None, "fallback": None,
    }),
    "links.json": ([], [{
        "device_record_id": None, "cloud_event_id": None, "tier": None,
        "time_delta_seconds": None, "account": None, "kind": None,
    }]),
    "findings.json": ([], [{
        "finding_id": None, "kind": None, "confidence": None, "narrative": None,
        "supporting_ids": [str],
    }]),
    "timeline.json": ({"entries": [], "excluded_undated": 0}, {
        "entries": [{"timestamp_utc": None, "source": None, "id": None, "label": None}],
        "excluded_undated": int,
    }),
    "identity_graph.json": ({"nodes": [], "edges": []}, {
        "nodes": [None],
        "edges": [{"a": _IDENTIFIER, "b": _IDENTIFIER, "count": None}],
    }),
    "geo.json": ([], [{"ip": None, "country": None, "city": None, "source_table": None}]),
}


def build_case_report(
    stages: Mapping[str, Any], tool_version: str, case_id: Optional[str] = None
) -> dict:
    """Fold stage-file payloads, keyed by file name, into the report.

    The report is a dict of its sections, in report order. Every section
    exists even when empty, so a report's shape never depends on what
    the case happened to contain.

    ``run-all`` passes the payloads it has just written and ``report``
    the ones it reads back, so both give the same bytes. A file missing
    from ``stages`` stands for its ``STAGE_FILES`` absent value. The
    case id defaults to the dump id, then to ``case``.
    """

    def stage(name: str) -> Any:
        if name in stages:
            return stages[name]
        import copy  # loaded only for a stage file that is absent

        return copy.deepcopy(STAGE_FILES[name][0])

    dump, verification, cloud_log, timeline = map(
        stage, ("dump.json", "verification.json", "cloud_log.json", "timeline.json")
    )
    device: dict = {}
    inputs: dict = {"dumps": [], "cloud_logs": []}
    ledger: list = []
    if dump is not None:
        device = {
            **dump["device"],
            "installed_app_count": dump["app_counts"]["installed"],
            "uninstalled_app_count": dump["app_counts"]["uninstalled"],
        }
        inputs["dumps"].append(
            {
                "dump_id": dump["dump_id"],
                "collected_at": dump["collected_at"],
                "record_count": dump["record_count"],
                "chain_verdict": "Unverified" if verification is None else verification["verdict"],
            }
        )
        ledger += [*dump["ledger"], *dump["parse_ledger"]]
    if cloud_log is not None:
        inputs["cloud_logs"].append(
            {"name": cloud_log["name"], "event_count": cloud_log["event_count"]}
        )
        ledger += cloud_log["ledger"]

    return {
        "case_id": case_id or (dump["dump_id"] if dump is not None else "") or "case",
        "tool_version": tool_version,
        "schema_version": SCHEMA_VERSION,
        "parameters": stage("parameters.json"),
        "inputs": inputs,
        "device": device,
        "skew": stage("skew.json"),
        "links": stage("links.json"),
        "findings": stage("findings.json"),
        "timeline": timeline["entries"],
        "excluded_undated": timeline["excluded_undated"],
        "identity_graph": stage("identity_graph.json"),
        "geo": stage("geo.json"),
        "error_ledger": ledger,
    }


def render_report(
    report: dict, out: BinaryIO, format: ReportFormat = ReportFormat.JSON
) -> None:
    """Write a report to the binary file ``out``; same report in, same bytes out.

    Every format is written in bounded chunks as it is rendered, the
    Markdown and HTML from one walk over the report (``_report_lines``),
    so no text is held whole. To get the bytes, pass an ``io.BytesIO``.
    """
    if format is ReportFormat.JSON:
        write_json(report, out, REPORT_JSON)
    elif format is ReportFormat.MARKDOWN:
        _write_lines(_report_lines(report), out, _MARKDOWN_LINES,
                     lambda part: _MARKDOWN_PIECES[part.__class__] % part, str)
    else:
        _write_html(report, out)


class Layout(NamedTuple):
    """How ``write_json`` lays out JSON text: ``REPORT_JSON`` or ``STAGE_JSON``.

    Each object member and each list item starts a line of its own; a
    list item is written whole on that line, as ``encode`` writes it.
    """

    newline: str  # starts each list item and object member, followed by the indent
    indent: str  # added to the newline at each level of nesting
    colon: str  # between a member's key and its value
    comma: str  # between two items or members of a value written on one line
    block: int  # list items per block; each block is written out before the next
    encode: Callable[[Any], str]  # a whole value on one line, with this colon and comma


# The report expands every object and list: each member and each item on
# a line of its own, two spaces deeper per level, and each item as
# json.dumps(item, ensure_ascii=False) writes it, so a link, timeline,
# finding or ledger row is one line. Stage files are json.dumps(value,
# ensure_ascii=False, separators=(",", ":")), which is the same rule with
# no newline and no indent. Python 3.11's C encoder holds every piece of
# one call until it returns, about six times the text it makes: blocks of
# 64 timeline.json entries keep its write's peak near 12 % of the file's
# size on the benchmark's sync-bulk case, 256 near 44 %.
REPORT_JSON = Layout("\n", "  ", ": ", ", ", 256, json.JSONEncoder(ensure_ascii=False).encode)
STAGE_JSON = Layout(
    "", "", ":", ",", 64, json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
)


class _Chunks(list):
    """Rendered text not yet written: ``flush`` writes it to ``write`` as UTF-8."""

    __slots__ = ("write",)

    def __init__(self, write: Callable[[bytes], object]) -> None:
        super().__init__()
        self.write = write

    def flush(self) -> None:
        self.write("".join(self).encode("utf-8"))
        self.clear()


def write_json(value: Any, out: BinaryIO, layout: Layout) -> None:
    """Write ``value`` in ``layout``, followed by one newline, to the binary file ``out`` in UTF-8.

    The text goes to ``out`` after each block of every list, so a chunk
    holds at most one block plus what precedes it.
    """
    chunks = _Chunks(out.write)
    _append_json(value, layout.newline, chunks, layout)
    chunks.append("\n")
    chunks.flush()


# How json.dumps(..., ensure_ascii=False) writes each leaf type, in
# either layout, strings on the C encoder; a subclass is no key here.
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: json.encoder.encode_basestring,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
_encode_str = _LEAVES[str]
_LEAF_TYPES = frozenset(_LEAVES)
_STR_ONLY, _DICT_ONLY = {str}, {dict}

# Leaves on the C encoder, one per line: it writes each leaf as
# json.dumps does, and an encoded leaf never holds a raw newline.
_LINES_ENCODER = json.JSONEncoder(
    ensure_ascii=False, check_circular=False, separators=("\n", ":")
)


def _append_json(value: Any, newline: str, out: _Chunks, layout: Layout) -> None:
    """Append ``value`` in ``layout``, with ``newline`` (the layout's
    newline and the current indent) before its closing bracket.

    Nonempty dicts, lists and tuples are expanded here; any other value
    is written whole by the layout's encoder. A list is written a block
    at a time. Where its items are joined by the layout's comma (no
    newline, no indent), one encode writes the whole block; otherwise a
    block that forms a table goes to ``_table``, and each item of any
    other block is encoded on its own line.
    """
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
    elif isinstance(value, (list, tuple)) and value:
        inner, size = newline + layout.indent, layout.block
        between = "," + inner
        before = "[" + inner
        for start in range(0, len(value), size):
            block = value[start:start + size]
            if between == layout.comma:
                # Faster than the table path here.
                text = layout.encode(block)[1:-1]
            else:
                text = _table(block, between, layout) or between.join(map(layout.encode, block))
            out.append(before + text)
            out.flush()
            before = between
        out.append(newline + "]")
    elif isinstance(value, dict) and value:
        inner = newline + layout.indent
        before = "{" + inner
        for key, item in value.items():
            out.append(before + _key(key, layout) + layout.colon)
            _append_json(item, inner, out, layout)
            before = "," + inner
        out.append(newline + "}")
    else:
        out.append(layout.encode(value))


def _key(key: Any, layout: Layout) -> str:
    """An object key as json.dumps writes it: a string, or a scalar's JSON text in quotes."""
    if isinstance(key, str):
        return _encode_str(key)
    # The encoder refuses any other key, as json.dumps does.
    return layout.encode({key: None})[1:-5 - len(layout.colon)]


def _table(rows: Sequence, between: str, layout: Layout) -> Optional[str]:
    """``rows`` as one-line list items joined by ``between``, if they form
    a table; None if they do not.

    A table is a list of exact dicts that share one tuple of string
    keys, and whose every cell is a leaf of a ``_LEAVES`` type. Each
    column is encoded at once (``_column``), and one ``%`` format fills
    the repeated row template, whose keys are encoded already, with the
    encoded cells: ``%s`` inserts each verbatim.
    """
    first = rows[0]
    # A first row with a cell of another type rules the table out before any work.
    if set(map(type, rows)) != _DICT_ONLY or not set(map(type, first.values())) <= _LEAF_TYPES:
        return None
    keys = tuple(first)
    if set(map(type, keys)) != _STR_ONLY or list(map(tuple, rows)).count(keys) != len(rows):
        return None
    columns = []
    for key in keys:
        column = _column(list(map(itemgetter(key), rows)))
        if column is None:
            return None
        columns.append(column)
    row = "{" + layout.comma.join(
        _encode_str(key).replace("%", "%%") + layout.colon + "%s" for key in keys
    ) + "}"
    return between.join([row] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))


def _column(cells: list) -> Optional[list[str]]:
    """Each cell as json.dumps writes it, if every cell is a ``_LEAVES``
    leaf; else None.

    Strings go one by one to the C string encoder; other leaves go to
    the C encoder in one call, in whose output a newline only separates
    two leaves: an encoded leaf holds no raw newline.
    """
    kinds = set(map(type, cells))
    if kinds == _STR_ONLY:
        return list(map(_encode_str, cells))
    if kinds <= _LEAF_TYPES:
        return _LINES_ENCODER.encode(cells)[1:-1].split("\n")
    return None


# Each character str.splitlines ends a line at, in its JSON escape form,
# and the backslash doubled: no value can end a Markdown line, so none
# can start a heading, row or item of its own.
_ESCAPES = {
    "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\x0b": "\\u000b", "\x0c": "\\f",
    "\x1c": "\\u001c", "\x1d": "\\u001d", "\x1e": "\\u001e", "\x85": "\\u0085",
    "\u2028": "\\u2028", "\u2029": "\\u2029",
}
_TEXT = str.maketrans(_ESCAPES)
# A table cell also escapes "|", so it cannot split its row.
_CELL = str.maketrans({**_ESCAPES, "|": "\\|"})


def _fmt(value: object) -> str:
    # Render scalars the way the JSON does, escaped; the Markdown adds nothing.
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value).translate(_TEXT)


def _cell(value: object) -> str:
    return str(value).translate(_CELL)


# The fields that a proven-transfer finding adds to the common ones.
_TRANSFER_FIELDS = ("account", "tier", "link_count", "first_utc", "last_utc")


class _Strong(str):
    """Text that the report sets off in bold: a finding's id."""


class _Code(str):
    """Text that the report sets off as code: an input's name."""


# The kinds of line a report is made of, as _report_lines yields them;
# the last two are a table's rows.
H1, H2, PARAGRAPH, ITEM, BLANK, HEADER, ROW = range(7)


def _heading(title: str, rows: object = True, empty: str = "none") -> tuple:
    """A section's blank line, heading and blank line, then ``empty`` if it has no ``rows``."""
    lines = (BLANK, ()), (H2, (title,)), (BLANK, ())
    return lines if rows else (*lines, (ITEM, (empty,)))


def _report_lines(data: dict) -> Iterator[tuple[int, tuple[str, ...]]]:
    """The report's lines in order, each as its kind and its parts.

    A table row's parts are its cells, ``_cell`` escaped; any other
    line's are the pieces of its text, ``_fmt`` escaped, of which a
    ``_Strong`` or ``_Code`` piece is set off. A blank line has none.
    """
    yield H1, (f"Case report: {_fmt(data['case_id'])}",)
    yield BLANK, ()
    yield PARAGRAPH, (
        f"Produced by synctrail {_fmt(data['tool_version'])}, "
        f"report schema {_fmt(data['schema_version'])}.",
    )
    yield from _heading("Parameters")
    for key in sorted(data["parameters"]):
        yield ITEM, (f"{_fmt(key)}: {_fmt(data['parameters'][key])}",)
    yield from _heading("Inputs", data["inputs"]["dumps"] or data["inputs"]["cloud_logs"])
    for dump in data["inputs"]["dumps"]:
        yield ITEM, (
            "Dump ", _Code(_fmt(dump["dump_id"])),
            f" collected {_fmt(dump['collected_at'])}, {_fmt(dump['record_count'])} records, "
            f"chain verdict {_fmt(dump['chain_verdict'])}",
        )
    for log in data["inputs"]["cloud_logs"]:
        yield ITEM, ("Cloud log ", _Code(_fmt(log["name"])), f", {_fmt(log['event_count'])} events")
    device = data["device"]
    yield from _heading("Device", device, "no device profile")
    for key in sorted(device):
        if device[key] is not None:
            yield ITEM, (f"{_fmt(key)}: {_fmt(device[key])}",)
    skew = data["skew"]
    yield from _heading("Clock skew", skew is not None, "not estimated")
    if skew is not None:
        yield ITEM, (
            f"offset {_fmt(skew['offset_seconds'])} s from {_fmt(skew['support_count'])} "
            f"matched pairs, spread {_fmt(skew['spread_seconds'])} s",
        )
        if skew["fallback"]:
            yield ITEM, ("WARNING: insufficient support, fell back to offset 0",)
    yield from _heading(f"Findings ({len(data['findings'])})", data["findings"])
    for finding in data["findings"]:
        # A proven transfer's group fields, those the row holds, before its ids.
        group = "".join(
            "no account; " if key == "account" and not finding[key]
            else f"{key} {_fmt(finding[key])}; "
            for key in _TRANSFER_FIELDS if key in finding
        )
        yield ITEM, (
            _Strong(_fmt(finding["finding_id"])),
            f" {_fmt(finding['kind'])} [{_fmt(finding['confidence'])}]: "
            f"{_fmt(finding['narrative'])} "
            f"({group}supporting: {', '.join(map(_fmt, finding['supporting_ids']))})",
        )
    yield from _heading(f"Sync links ({len(data['links'])})", data["links"])
    for link in data["links"]:
        delta = link["time_delta_seconds"]
        delta_text = "n/a" if delta is None else f"{_fmt(delta)} s"
        owner = f"account {_fmt(link['account'])}" if link["account"] else "no account"
        yield ITEM, (
            f"{_fmt(link['device_record_id'])} <-> {_fmt(link['cloud_event_id'])} "
            f"({_fmt(link['kind'])} of {owner}, {_fmt(link['tier'])}, delta {delta_text})",
        )
    yield from _heading(f"Timeline ({len(data['timeline'])} entries)")
    if data["timeline"]:
        yield HEADER, ("Time (UTC)", "Side", "Id", "Kind")
        for entry in data["timeline"]:
            yield ROW, (_cell(entry["timestamp_utc"]), _cell(entry["source"]),
                        _cell(entry["id"]), _cell(entry["label"]))
    else:
        yield PARAGRAPH, ("(empty)",)
    if data["excluded_undated"]:
        yield BLANK, ()
        yield PARAGRAPH, (
            f"{_fmt(data['excluded_undated'])} undated record(s) excluded from the timeline.",
        )
    graph = data["identity_graph"]
    edges = graph["edges"]
    yield from _heading(
        f"Identity graph ({len(graph['nodes'])} identifiers, {len(edges)} links)", edges
    )
    for edge in edges:
        yield ITEM, (
            f"{_fmt(edge['a']['value'])} ({_fmt(edge['a']['kind'])}) -- "
            f"{_fmt(edge['b']['value'])} ({_fmt(edge['b']['kind'])}): "
            f"seen together {_fmt(edge['count'])}x",
        )
    yield from _heading(f"Geolocation ({len(data['geo'])})", data["geo"])
    for geo in data["geo"]:
        yield ITEM, (
            f"{_fmt(geo['ip'])}: {_fmt(geo['city'])}, {_fmt(geo['country'])} "
            f"({_fmt(geo['source_table'])})",
        )
    yield from _heading(f"Error ledger ({len(data['error_ledger'])})", data["error_ledger"])
    for entry in data["error_ledger"]:
        yield ITEM, (f"{_fmt(entry['file'])}:{_fmt(entry['line'])}: {_fmt(entry['message'])}",)


# Each kind of line in Markdown and in HTML: the text before its parts,
# between two parts, and after them. The timeline is the one table, of
# four columns; in HTML its first row is its header, and a blank line
# writes nothing.
_MARKDOWN_LINES = {
    H1: ("# ", "", "\n"), H2: ("## ", "", "\n"), PARAGRAPH: ("", "", "\n"),
    ITEM: ("- ", "", "\n"), HEADER: ("| ", " | ", " |\n| --- | --- | --- | --- |\n"),
    ROW: ("| ", " | ", " |\n"), BLANK: ("", "", "\n"),
}
_HTML_LINES = {
    H1: ("<h1>", "", "</h1>\n"), H2: ("<h2>", "", "</h2>\n"), PARAGRAPH: ("<p>", "", "</p>\n"),
    ITEM: ("<li>", "", "</li>\n"), HEADER: ("<tr><th>", "</th><th>", "</th></tr>\n"),
    ROW: ("<tr><td>", "</td><td>", "</td></tr>\n"), BLANK: ("", "", ""),
}
# Each class of part, once escaped, in Markdown and in HTML.
_MARKDOWN_PIECES = {str: "%s", _Strong: "**%s**", _Code: "`%s`"}
_HTML_PIECES = {str: "%s", _Strong: "<strong>%s</strong>", _Code: "<code>%s</code>"}
# The element that holds each run of HTML lines of the kind.
_HTML_GROUPS = {ITEM: "ul", HEADER: "table", ROW: "table"}
# Self-contained static page: inline styles, no scripts, opens anywhere.
_HTML_HEAD = (
    '<!DOCTYPE html>\n<html><head><meta charset="utf-8"><title>Case report: %s</title>'
    "<style>body{font-family:sans-serif;margin:2em;color:#222}h1{border-bottom:2px solid #444}"
    "h2{margin-top:1.5em;color:#345}li{margin:0.2em 0}tr:nth-child(even){background:#f4f4f4}"
    "th,td{padding:2px 8px;border:1px solid #ddd}</style></head>\n<body>\n"
)


def _write_lines(
    lines: Iterator, out: BinaryIO, templates: dict, piece: Callable[[str], str],
    cell: Callable[[str], str], start: str = "", end: str = "",
) -> None:
    """Write ``start``, each line in its kind's template, then ``end``, ``REPORT_JSON.block``
    lines a write: ``cell`` writes each part of a table row, ``piece`` any other part."""
    chunks = _Chunks(out.write)
    chunks.append(start)
    for count, (kind, parts) in enumerate(lines, 1):
        before, between, after = templates[kind]
        chunks.append(before + between.join(map(cell if kind >= HEADER else piece, parts)) + after)
        if not count % REPORT_JSON.block:
            chunks.flush()
    chunks.append(end)
    chunks.flush()


def _write_html(data: dict, out: BinaryIO) -> None:
    import html  # only the HTML format needs it

    def piece(part: str) -> str:
        return _HTML_PIECES[part.__class__] % html.escape(part)

    out.write((_HTML_HEAD % html.escape(_fmt(data["case_id"]))).encode("utf-8"))
    # Each run of list items is one list, and each run of table rows one table.
    for tag, run in groupby(_report_lines(data), lambda line: _HTML_GROUPS.get(line[0])):
        group = (f"<{tag}>\n", f"</{tag}>\n") if tag else ()
        _write_lines(run, out, _HTML_LINES, piece, html.escape, *group)
    out.write(b"</body></html>\n")
