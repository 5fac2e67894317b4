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
import re
from enum import Enum
from itertools import chain
from operator import itemgetter
from types import GeneratorType
from typing import Any, BinaryIO, Callable, Mapping, NamedTuple, Optional, Sequence

from .acquisition import LONE_SURROGATE, lone_surrogate
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


# The shape of what the report reads from a stage file: a dict is a
# JSON object with at least those keys, each of the shape given; a
# one-item list is a JSON list whose items all have that item's shape;
# ``str`` is a string, ``int`` a non-negative integer (not a boolean)
# and ``None`` any value.
_LEDGER = [{"file": None, "line": None, "message": None}]
_IDENTIFIER = {"kind": None, "value": None}

# Each stage file's (absent, shape): what the report takes the file to
# hold when it is absent, and the shape of what the report reads from it.
STAGE_FILES: dict[str, tuple[object, object]] = {
    "dump.json": (None, {
        "dump_id": str,
        "collected_at": None,
        "device": {},
        "app_counts": {"installed": None, "uninstalled": None},
        "records": [None],
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

_KIND_NAMES = {
    dict: "a JSON object", list: "a JSON list", str: "a string", int: "a non-negative integer",
}


def shape_problem(value: Any, shape: Any, where: str = "") -> Optional[str]:
    """Why ``value`` does not have ``shape`` (see STAGE_FILES), or None if it does."""
    if shape is None:
        return None
    kind = shape if shape is str or shape is int else type(shape)
    if not isinstance(value, kind) or kind is int and (type(value) is bool or value < 0):
        at = f"field {where!r} " if where else ""
        return f"{at}must hold {_KIND_NAMES[kind]}"
    if kind is dict:
        for key, inner in shape.items():
            at = f"{where}.{key}" if where else key
            if key not in value:
                return f"missing field {at!r}"
            problem = shape_problem(value[key], inner, at)
            if problem:
                return problem
    elif kind is list and shape[0] is not None:
        for index, item in enumerate(value):
            problem = shape_problem(item, shape[0], f"{where}[{index}]")
            if problem:
                return problem
    return None


def surrogate_problem(value: Any) -> Optional[str]:
    """Which text in ``value``, a decoded stage file, holds a lone surrogate; None if none does.

    Any key or string counts, named as ``shape_problem`` names a field:
    no stage file this tool writes holds one, and no report can.
    """
    pending = [("", value)]
    while pending:
        where, item = pending.pop()
        if isinstance(item, str):
            if lone_surrogate(item):
                return f"field {where!r} {LONE_SURROGATE}"
        elif isinstance(item, dict):
            for key, inner in reversed(item.items()):
                at = f"{where}.{key}" if where else key
                pending += ((at, inner), (at, key))
        elif isinstance(item, list):
            pending += ((f"{where}[{i}]", item[i]) for i in reversed(range(len(item))))
    return None


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
                "record_count": len(dump["records"]),
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

    The JSON is written in bounded chunks as it is rendered, so the
    whole text is never held in memory; the Markdown and HTML are
    written in one piece. To get the bytes, pass an ``io.BytesIO``.
    """
    if format is ReportFormat.JSON:
        write_json(report, out, REPORT_JSON)
    elif format is ReportFormat.MARKDOWN:
        out.write(_render_markdown(report).encode("utf-8"))
    else:
        out.write(_render_html(report).encode("utf-8"))


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
# 64 dump.json rows keep its write's peak near 15 % of the file's size on
# the benchmark's sync-bulk case, 256 near 60 %.
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
    holds at most one block plus what precedes it. A generator in
    ``value`` stands for the one list that the nonempty lists it yields
    make, so that list's items can be built a block at a time.
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
_CELL_TYPES = _LEAF_TYPES | {list}
_STR_ONLY, _DICT_ONLY, _LIST_ONLY = {str}, {dict}, {list}

# Leaves on the C encoder, one per line: it writes each leaf as
# json.dumps does, and an encoded leaf never holds a raw newline.
_LINES_ENCODER = json.JSONEncoder(
    ensure_ascii=False, check_circular=False, separators=("\n", ":")
)


def _append_json(value: Any, newline: str, out: _Chunks, layout: Layout) -> None:
    """Append ``value`` in ``layout``, with ``newline`` (the layout's
    newline and the current indent) before its closing bracket.

    Nonempty dicts, nonempty lists and tuples, and generators of lists
    are expanded here; any other value is written whole by the layout's
    encoder. A list is written a block at a time. Where its items are
    joined by the layout's comma (no newline, no indent), one encode
    writes the whole block; otherwise a block that forms a table goes
    to ``_table``, and each item of any other block is encoded on its
    own line.
    """
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        out.append(leaf(value))
    elif isinstance(value, (list, tuple)) and value or kind is GeneratorType:
        blocks, size = value, layout.block
        if kind is not GeneratorType:
            blocks = (value[start:start + size] for start in range(0, len(value), size))
        inner = newline + layout.indent
        between = "," + inner
        before = first = "[" + inner
        for block in blocks:
            if between == layout.comma:
                # Faster than the table path here, list cells or not.
                text = layout.encode(block)[1:-1]
            else:
                text = _table(block, between, layout) or between.join(map(layout.encode, block))
            out.append(before + text)
            out.flush()
            before = between
        out.append("[]" if before == first else newline + "]")
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
    keys, and whose every column holds only leaves of a ``_LEAVES``
    type or only lists of them. Each column is encoded at once
    (``_column``), and one ``%`` format fills the repeated row
    template, whose keys are encoded already, with the encoded cells:
    ``%s`` inserts each verbatim.
    """
    first = rows[0]
    # A first row with a cell of another type rules the table out before any work.
    if set(map(type, rows)) != _DICT_ONLY or not set(map(type, first.values())) <= _CELL_TYPES:
        return None
    keys = tuple(first)
    if set(map(type, keys)) != _STR_ONLY or list(map(tuple, rows)).count(keys) != len(rows):
        return None
    columns = []
    for key in keys:
        column = _column(list(map(itemgetter(key), rows)), layout.comma)
        if column is None:
            return None
        columns.append(column)
    row = "{" + layout.comma.join(
        _encode_str(key).replace("%", "%%") + layout.colon + "%s" for key in keys
    ) + "}"
    return between.join([row] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))


def _column(cells: list, comma: str) -> Optional[list[str]]:
    """Each cell as json.dumps writes it on one line, with ``comma``
    between list items, if every cell is a ``_LEAVES`` leaf or every
    cell a list of them; else None.

    Strings go one by one to the C string encoder; other leaves, and
    list cells, go to the C encoder in one call. In its output a newline
    only separates two leaves or two list cells, and ``]`` newline ``[``
    only two list cells: an encoded leaf holds no raw newline, and
    neither starts with ``[`` nor ends with ``]``. So list cells are split
    there first: once newlines are commas, a string may hold ``],[``.
    """
    kinds = set(map(type, cells))
    if kinds == _STR_ONLY:
        return list(map(_encode_str, cells))
    if kinds <= _LEAF_TYPES:
        return _LINES_ENCODER.encode(cells)[1:-1].split("\n")
    if kinds != _LIST_ONLY or not set(map(type, chain.from_iterable(cells))) <= _LEAF_TYPES:
        return None
    items = _LINES_ENCODER.encode(cells)[2:-2].split("]\n[")
    return ["[" + text.replace("\n", comma) + "]" for text in items]


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
# A "|" that splits a table row: one no backslash escapes.
_CELL_SPLIT = re.compile(r"(?<!\\)\|")


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


def _render_markdown(data: dict) -> str:
    out: list[str] = []
    out.append(f"# Case report: {_fmt(data['case_id'])}")
    out.append("")
    out.append(
        f"Produced by synctrail {_fmt(data['tool_version'])}, "
        f"report schema {_fmt(data['schema_version'])}."
    )
    out.append("")
    out.append("## Parameters")
    out.append("")
    for key in sorted(data["parameters"]):
        out.append(f"- {_fmt(key)}: {_fmt(data['parameters'][key])}")
    out.append("")
    out.append("## Inputs")
    out.append("")
    for dump in data["inputs"]["dumps"]:
        out.append(
            f"- Dump `{_fmt(dump['dump_id'])}` collected {_fmt(dump['collected_at'])}, "
            f"{_fmt(dump['record_count'])} records, chain verdict {_fmt(dump['chain_verdict'])}"
        )
    for log in data["inputs"]["cloud_logs"]:
        out.append(f"- Cloud log `{_fmt(log['name'])}`, {_fmt(log['event_count'])} events")
    if not data["inputs"]["dumps"] and not data["inputs"]["cloud_logs"]:
        out.append("- none")
    out.append("")
    out.append("## Device")
    out.append("")
    if data["device"]:
        for key in sorted(data["device"]):
            value = data["device"][key]
            if value is not None:
                out.append(f"- {_fmt(key)}: {_fmt(value)}")
    else:
        out.append("- no device profile")
    out.append("")
    out.append("## Clock skew")
    out.append("")
    if data["skew"] is None:
        out.append("- not estimated")
    else:
        skew = data["skew"]
        out.append(
            f"- offset {_fmt(skew['offset_seconds'])} s from {_fmt(skew['support_count'])} "
            f"matched pairs, spread {_fmt(skew['spread_seconds'])} s"
        )
        if skew["fallback"]:
            out.append("- WARNING: insufficient support, fell back to offset 0")
    out.append("")
    out.append(f"## Findings ({len(data['findings'])})")
    out.append("")
    for finding in data["findings"]:
        # A proven transfer's group fields, those the row holds, before its ids.
        group = "".join(
            f"{key} {_fmt(finding[key])}; " for key in _TRANSFER_FIELDS if key in finding
        )
        out.append(
            f"- **{_fmt(finding['finding_id'])}** {_fmt(finding['kind'])} "
            f"[{_fmt(finding['confidence'])}]: {_fmt(finding['narrative'])} "
            f"({group}supporting: {', '.join(map(_fmt, finding['supporting_ids']))})"
        )
    if not data["findings"]:
        out.append("- none")
    out.append("")
    out.append(f"## Sync links ({len(data['links'])})")
    out.append("")
    for link in data["links"]:
        delta = link["time_delta_seconds"]
        delta_text = "n/a" if delta is None else f"{_fmt(delta)} s"
        out.append(
            f"- {_fmt(link['device_record_id'])} <-> {_fmt(link['cloud_event_id'])} "
            f"({_fmt(link['kind'])} of account {_fmt(link['account'])}, "
            f"{_fmt(link['tier'])}, delta {delta_text})"
        )
    if not data["links"]:
        out.append("- none")
    out.append("")
    out.append(f"## Timeline ({len(data['timeline'])} entries)")
    out.append("")
    if data["timeline"]:
        out.append("| Time (UTC) | Side | Id | Kind |")
        out.append("| --- | --- | --- | --- |")
        for entry in data["timeline"]:
            out.append(
                f"| {_cell(entry['timestamp_utc'])} | {_cell(entry['source'])} "
                f"| {_cell(entry['id'])} | {_cell(entry['label'])} |"
            )
    else:
        out.append("(empty)")
    if data["excluded_undated"]:
        out.append("")
        out.append(
            f"{_fmt(data['excluded_undated'])} undated record(s) excluded from the timeline."
        )
    out.append("")
    graph = data["identity_graph"]
    out.append(
        f"## Identity graph ({len(graph.get('nodes', []))} identifiers, "
        f"{len(graph.get('edges', []))} links)"
    )
    out.append("")
    for edge in graph.get("edges", []):
        out.append(
            f"- {_fmt(edge['a']['value'])} ({_fmt(edge['a']['kind'])}) -- "
            f"{_fmt(edge['b']['value'])} ({_fmt(edge['b']['kind'])}): "
            f"seen together {_fmt(edge['count'])}x"
        )
    if not graph.get("edges"):
        out.append("- none")
    out.append("")
    out.append(f"## Geolocation ({len(data['geo'])})")
    out.append("")
    for geo in data["geo"]:
        out.append(
            f"- {_fmt(geo['ip'])}: {_fmt(geo['city'])}, {_fmt(geo['country'])} "
            f"({_fmt(geo['source_table'])})"
        )
    if not data["geo"]:
        out.append("- none")
    out.append("")
    out.append(f"## Error ledger ({len(data['error_ledger'])})")
    out.append("")
    for entry in data["error_ledger"]:
        out.append(f"- {_fmt(entry['file'])}:{_fmt(entry['line'])}: {_fmt(entry['message'])}")
    if not data["error_ledger"]:
        out.append("- none")
    out.append("")
    return "\n".join(out)


def _render_html(data: dict) -> str:
    # Self-contained static page: inline styles, no scripts, opens anywhere.
    import html  # only the HTML format needs it

    markdown_body = _render_markdown(data)
    rows = []
    for line in markdown_body.splitlines():
        if line.startswith("# "):
            rows.append(f"<h1>{html.escape(line[2:])}</h1>")
        elif line.startswith("## "):
            rows.append(f"<h2>{html.escape(line[3:])}</h2>")
        elif line.startswith("| "):
            cells = [html.escape(c.strip()) for c in _CELL_SPLIT.split(line.strip("|"))]
            if set(cells) <= {"---"}:
                continue
            tag = "td"
            rows.append("<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>")
        elif line.startswith("- "):
            rows.append(f"<li>{html.escape(line[2:])}</li>")
        elif line:
            rows.append(f"<p>{html.escape(line)}</p>")
    body = "\n".join(rows)
    return (
        "<!DOCTYPE html>\n"
        "<html><head><meta charset=\"utf-8\">"
        f"<title>Case report: {html.escape(data['case_id'])}</title>"
        "<style>body{font-family:sans-serif;margin:2em;color:#222}"
        "h1{border-bottom:2px solid #444}h2{margin-top:1.5em;color:#345}"
        "li{margin:0.2em 0}tr:nth-child(even){background:#f4f4f4}"
        "td{padding:2px 8px;border:1px solid #ddd}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )
