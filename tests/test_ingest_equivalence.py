"""Ingest builds exactly the records and events the public constructors build.

Ingest sets the slots of its ISO-Z timestamps itself, and skips two
checks that its own parsing has already made.
Here every record and event ingested from the benchmark's three
generators, the golden bundle, ``comm_shapes`` and ``sync_shapes`` is
compared with one built from its input line by ``EvidenceRecord``,
``UtcTimestamp`` and ``CloudEvent``, with times taken from
``datetime`` and each content digest as its lowercase hex. The checks
skipped are asserted to hold.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import re
import shutil
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail import evidence
from synctrail.acquisition import (
    CATEGORY_FILES,
    TIME_FIELDS,
    CloudEvent,
    _json_object,
    _LineError,
    ingest_cloud_log,
    ingest_device_dump,
    load_json,
    record_from_fields,
    record_rows,
)
from synctrail.errors import ImpossibleDate, UnparseableTimestamp
from synctrail.evidence import (
    EPOCH_MAX,
    EPOCH_MIN,
    EvidenceRecord,
    LOCALES,
    UtcTimestamp,
    epoch_to_iso,
    normalize_timestamp,
)

from _oracles import reference_encode

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HAND_WRITTEN = ("golden", "comm_shapes", "sync_shapes")


def reference_epoch(raw: str, zone_offset_minutes: int) -> int:
    """Epoch seconds of a timestamp text in either grammar, read by datetime."""
    if raw.endswith("Z"):
        moment = datetime.strptime(raw, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    elif "T" in raw:
        moment = datetime.strptime(raw, "%Y-%m-%dT%H:%M:%S%z")
    else:
        zone = timezone(timedelta(minutes=zone_offset_minutes))
        moment = datetime.strptime(raw, "%d/%m/%Y %I:%M:%S %p").replace(tzinfo=zone)
    return int(moment.timestamp())


def text_of(value: object) -> str:
    """An attribute value as the bundle format defines it."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def public_record(category, fields: dict, file_name: str, line_no: int, zone: int):
    time_field = TIME_FIELDS.get(category)
    raw_time = fields.get(time_field) if time_field else None
    attributes = {k: text_of(v) for k, v in fields.items() if k != "id" and v is not None}
    attributes.update(_file=file_name, _line=str(line_no))
    return EvidenceRecord(
        record_id=fields.get("id") or f"{Path(file_name).stem}:{line_no}",
        category=category,
        timestamp=UtcTimestamp(reference_epoch(raw_time, zone), raw_time) if raw_time else None,
        attributes=attributes,
    )


def assert_same_record(built: EvidenceRecord, public: EvidenceRecord) -> None:
    assert type(built) is EvidenceRecord
    assert built == public
    assert repr(built) == repr(public)
    assert built.canonical == public.canonical == reference_encode(public)
    (row,) = record_rows([built])
    assert record_rows([public]) == [row]
    assert row["digest"] == hashlib.sha256(reference_encode(public)).hexdigest()
    assert type(built.attributes) is dict and built.attributes == public.attributes
    if public.timestamp is not None:
        assert built.timestamp.to_iso() == public.timestamp.to_iso()
        assert built.timestamp.to_iso() == epoch_to_iso(public.timestamp.seconds_since_epoch)


def public_event(fields: dict) -> CloudEvent:
    kinds = {
        kind.lower(): kind
        for kind in ("Install", "Uninstall", "Upload", "Download", "Login", "Sync")
    }
    size = fields.get("size")
    assert size is None or type(size) is int or isinstance(size, str)
    digest = fields.get("digest")
    assert digest is None or re.fullmatch("[0-9a-fA-F]{64}", digest)
    return CloudEvent(
        event_id=fields["id"],
        kind=kinds[fields["kind"].lower()],
        timestamp=UtcTimestamp(reference_epoch(fields["ts"], 0), fields["ts"]),
        account=text_of(fields.get("account", "")),
        package_or_object=text_of(fields.get("object", "")),
        content_digest=None if digest is None else digest.lower(),
        size_bytes=None if size is None else int(size),
    )


def assert_same_events(log: Path) -> int:
    """Compare each ingested event with the public build of its line; return the count."""
    events = ingest_cloud_log(log, [])
    pending = iter(events)
    event = next(pending, None)
    for line in log.read_bytes().splitlines():
        try:
            fields = json.loads(line)
            public = public_event(fields)
        except (ValueError, KeyError, AttributeError, TypeError, AssertionError):
            continue  # a line ingest ledgers
        if event is None or fields["id"] != event.event_id:
            continue
        assert type(event) is CloudEvent
        assert event == public and repr(event) == repr(public)
        assert event.timestamp.to_iso() == public.timestamp.to_iso()
        event = next(pending, None)
    assert event is None, f"event {event} matched no line of {log}"
    return len(events)


def assert_same_records(bundle: Path) -> int:
    """Compare each ingested record with the public build of its line; return the count."""
    dump = ingest_device_dump(bundle)
    zone = dump.zone_offset_minutes
    by_line = {(r.attributes["_file"], r.attributes["_line"]): r for r in dump.records}
    compared = 0
    for file_name, category in CATEGORY_FILES:
        path = bundle / file_name
        if not path.is_file():
            continue
        for line_no, line in enumerate(path.read_bytes().splitlines(), start=1):
            built = by_line.get((file_name, str(line_no)))
            if built is None:
                continue  # a ledgered line
            public = public_record(category, json.loads(line), file_name, line_no, zone)
            assert_same_record(built, public)
            compared += 1
    assert compared == len(dump.records)
    return compared


def generated_cases(tmp_path: Path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import cases
    finally:
        sys.path.remove(str(PERFBENCH))
    return [build(3, tmp_path / name) for name, build in cases.WORKLOADS.items()]


def test_benchmark_workloads(tmp_path):
    for case in generated_cases(tmp_path):
        assert assert_same_records(case.bundle) > 0
        assert assert_same_events(case.cloud_log) > 0


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_inputs(tmp_path, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(DATA / name / "bundle", bundle)
    assert assert_same_records(bundle) > 0
    assert assert_same_events(DATA / name / "cloud_events.jsonl") > 0


def test_lines_that_repeat_one_key_tuple(tmp_path):
    """Ingest checks each key tuple once per bundle, and a record keeps the
    key strings of the first line that had them; a tuple that fails is
    ledgered on every line, with the message it always had."""
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    shutil.copyfile(DATA / "golden" / "bundle" / "manifest.json", bundle / "manifest.json")
    lines = [
        '{"id":"m1","peer":"a","n":null,"body":"x"}',
        '{"id":"m2","peer":1,"n":true,"body":[1,"b",null]}',
        '{"id":"m3","peer":{"k":null,"v":[false]},"n":false,"body":null}',
        '{"id":"m4","peer":"a","n":2,"body":"y","":"empty"}',
        '{"id":"m5","peer":"a","n":2,"body":"y","_x":"reserved"}',
        '{"id":"m6","peer":"b","n":3,"body":"z","":"empty"}',
        '{"id":"m7","peer":"b","n":-4,"body":"w","_x":null}',
        '{"id":"m8","peer":"a","n":2.5,"body":"v"}',
        '{"peer":"c","id":"m9","n":null,"body":"u"}',
        '{"peer":"c","n":null,"body":"t"}',
        '{"id":7,"peer":"a","n":2,"body":"y","":"empty"}',
    ]
    (bundle / "messages.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert assert_same_records(bundle) == 6
    dump = ingest_device_dump(bundle)
    assert [row["line"] for row in dump.ledger] == [4, 5, 6, 7, 11]
    assert [row["message"] for row in dump.ledger] == [
        "attribute keys must be nonempty strings",
        "attribute key '_x' uses the reserved '_' prefix",
        "attribute keys must be nonempty strings",
        "attribute key '_x' uses the reserved '_' prefix",
        "id must be a string, got int",
    ]
    same_tuple = [r.attributes for r in dump.records if r.record_id in ("m1", "m2", "m3", "m8")]
    first, *others = same_tuple
    for attributes in others:
        for key in attributes.keys() & first.keys():
            assert next(k for k in attributes if k == key) is next(k for k in first if k == key)


# --- what ingest does not check again -------------------------------------


@given(st.from_regex(evidence._ISO_RE, fullmatch=True))
@settings(max_examples=100, deadline=None)
def test_iso_text_holds_no_separator(text):
    assert set(text) <= set("0123456789-T:Z+")


@given(
    st.integers(1950, 2120),
    st.integers(0, 13),
    st.integers(0, 32),
    st.integers(0, 24),
    st.integers(0, 60),
    st.integers(0, 60),
)
@settings(max_examples=500, deadline=None)
def test_a_valid_iso_z_time_lies_in_1970_to_2100(year, month, day, hour, minute, second):
    text = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"
    try:
        stamp = normalize_timestamp(text, "day-first", 0)
    except ImpossibleDate:
        with pytest.raises(ValueError):
            epoch = reference_epoch(text, 0)
            if not EPOCH_MIN <= epoch <= EPOCH_MAX:
                raise ValueError(f"{text} outside 1970-2100")
        return
    assert EPOCH_MIN <= stamp.seconds_since_epoch <= EPOCH_MAX
    assert stamp == UtcTimestamp(reference_epoch(text, 0), text)
    assert stamp.to_iso() is text


@pytest.mark.parametrize(
    "text, epoch",
    [("1970-01-01T00:00:00Z", EPOCH_MIN), ("2100-12-31T23:59:59Z", EPOCH_MAX)],
)
def test_the_first_and_last_iso_z_seconds(text, epoch):
    assert normalize_timestamp(text, "day-first", 0).seconds_since_epoch == epoch


@pytest.mark.parametrize("text", ["1969-12-31T23:59:59Z", "2101-01-01T00:00:00Z"])
def test_iso_z_times_outside_1970_to_2100_are_refused(text):
    with pytest.raises(ImpossibleDate):
        normalize_timestamp(text, "day-first", 0)


def test_leap_days_are_the_calendar_modules():
    for year in range(1970, 2101):
        text = f"{year}-02-29T12:00:00Z"
        if calendar.isleap(year):
            assert normalize_timestamp(text, "day-first", 0).to_iso() == text
        else:
            with pytest.raises(ImpossibleDate, match=f"^day 29 does not exist in {year}-02$"):
                normalize_timestamp(text, "day-first", 0)


@given(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x1f\x1e"),
               max_size=300))
@settings(max_examples=200, deadline=None)
def test_a_sha256_digest_is_32_bytes(value):
    assert hashlib.sha256(value.encode("utf-8")).digest_size == 32
    record = EvidenceRecord("r", "Message", None, {"body": value})
    (row,) = record_rows([record])
    assert row["source"] == "Device"
    assert re.fullmatch("[0-9a-f]{64}", row["digest"])
    assert bytes.fromhex(row["digest"]) == hashlib.sha256(reference_encode(record)).digest()


# --- the same outcome for any input ------------------------------------------


def outcome(build):
    try:
        return build()
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)


_TEXT = st.text(st.sampled_from("ab_\x1f\x1e\ud800é 0"), max_size=4)


_DIGITS = st.integers(0, 99).map("{:02d}".format)
_TIMESTAMPS = st.one_of(
    st.builds(
        "{}-{}-{}T{}:{}:{}{}".format,
        st.integers(1960, 2110).map(str),
        _DIGITS, _DIGITS, _DIGITS, _DIGITS, _DIGITS,
        st.sampled_from(["Z", "+01:00", "-02:30", "+14:00", "z", ""]),
    ),
    st.builds(
        "{}/{}/{} {}:{}:{} {}".format,
        _DIGITS, _DIGITS, st.integers(1960, 2110).map(str), _DIGITS, _DIGITS, _DIGITS,
        st.sampled_from(["AM", "PM", "am"]),
    ),
    st.text(max_size=25),
)


@given(_TIMESTAMPS, st.sampled_from(LOCALES), st.integers(-900, 900))
@settings(max_examples=300, deadline=None)
def test_timestamps_equal_the_constructors(raw, locale, zone_offset_minutes):
    try:
        stamp = normalize_timestamp(raw, locale, zone_offset_minutes)
    except (UnparseableTimestamp, ImpossibleDate):
        return
    public = UtcTimestamp(stamp.seconds_since_epoch, raw)
    assert stamp == public and repr(stamp) == repr(public)
    assert stamp.to_iso() == public.to_iso() == epoch_to_iso(stamp.seconds_since_epoch)
    if locale == "day-first":
        assert stamp.seconds_since_epoch == reference_epoch(raw, zone_offset_minutes)


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    _TEXT,
    st.lists(_TEXT, max_size=2),
)
_KEYS = st.sampled_from(["id", "peer", "body", "delivered_at", "n", "_x", ""])


@given(st.dictionaries(_KEYS, _VALUES, max_size=5), st.one_of(st.none(), _TIMESTAMPS))
@settings(max_examples=200, deadline=None)
def test_record_from_fields_equals_the_constructor(fields, raw_time):
    if raw_time is not None:
        fields["delivered_at"] = raw_time
    args = ("Message", fields, "messages.jsonl", 7, "day-first", 0)
    built = outcome(lambda: record_from_fields(*args))
    if not isinstance(built, EvidenceRecord):
        assert built[0] is _LineError
        return
    assert_same_record(built, public_record("Message", fields, "messages.jsonl", 7, 0))


# --- one input line, read as load_json reads it --------------------------------


def reference_json_object(line: bytes) -> dict:
    """One bundle or cloud-log line read by ``load_json`` alone, as a JSON object."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _LineError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        fields = load_json(text)
    except json.JSONDecodeError as exc:
        raise _LineError(f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise _LineError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise _LineError("invalid JSON: nested too deeply") from None
    if not isinstance(fields, dict):
        raise _LineError("line is not a JSON object")
    return fields


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_RAW_TOKENS = st.sampled_from(
    ["NaN", "-Infinity", "Infinity", "1e400", "-1E999", "1e308", "-0.0", "0", "tru", "'x'", ""]
)
_SPACE = st.text(st.sampled_from(" \t\r\n\x0c\ufeff"), max_size=3)


@st.composite
def json_lines(draw) -> bytes:
    """A line near a JSON object: values of any type, raw tokens, padding and damage."""
    kind = draw(st.sampled_from(["object", "value", "token", "nested"]))
    if kind == "object":
        text = json.dumps(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4)),
                          ensure_ascii=draw(st.booleans()))
    elif kind == "value":
        text = json.dumps(draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()))
    elif kind == "token":
        text = '{"a": ' + draw(_RAW_TOKENS) + "}"
    else:
        depth = draw(st.sampled_from([1, 10, 500, 2000, 100_000]))
        text = '{"a": ' + "[" * depth + "]" * depth + "}"
    text = draw(_SPACE) + text + draw(_SPACE)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["", " x", "{}", "[]", ",", "}", '"', " 1"]))
    line = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(line)))
        damage = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))
        line = line[:at] + damage + line[at:]
    return line


def assert_read_alike(line: bytes) -> None:
    """``_json_object`` returns what the reference returns, or raises what it raises.

    Objects must also agree in key order and in the sign of a zero.
    """
    expected = outcome(lambda: reference_json_object(line))
    got = outcome(lambda: _json_object(line))
    assert got == expected
    if isinstance(expected, dict):
        assert json.dumps(got) == json.dumps(expected)


@given(json_lines())
@settings(max_examples=500, deadline=None)
def test_a_line_reads_as_load_json_reads_it(line):
    assert_read_alike(line)


LINES = {
    "object": b'{"a":1}',
    "leading-space": b' {"a":1}',
    "trailing-space": b'{"a":1} ',
    "trailing-cr": b'{"a":1}\r',
    "bom": b'\xef\xbb\xbf{"a":1}',
    "nan": b'{"a":NaN}',
    "minus-infinity": b'{"a":-Infinity}',
    "overflow": b'{"a":1e400}',
    "array": b'[1]',
    "scalar": b'"x"',
    "extra-object": b'{"a":1}{}',
    "extra-text": b'{"a":1} x',
    "empty": b'',
    "deep": b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "invalid-utf-8": b'{"a":"\xff"}',
}


@pytest.mark.parametrize("line", LINES.values(), ids=LINES)
def test_each_kind_of_line_reads_as_load_json_reads_it(line):
    assert_read_alike(line)
