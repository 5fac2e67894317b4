"""Parsers for device dump bundles and cloud event logs.

A bundle is a directory holding ``manifest.json`` plus one JSON Lines
file per artifact category. Parsing is lossless modulo the error
ledger: every input line either becomes a typed record or a ledger
entry, never both and never neither. Only identity collisions are
fatal, because those would corrupt custody.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from .errors import (
    DuplicateEventId,
    DuplicateRecordId,
    ImpossibleDate,
    MalformedManifest,
    MissingManifest,
    UnparseableTimestamp,
)
from .evidence import (
    DEVICE,
    ArtifactCategory,
    EvidenceRecord,
    Locale,
    UtcTimestamp,
    _Frozen,
    _set,
    checked_digest_hex,
    normalize_timestamp,
)

BUNDLE_MANIFEST = "manifest.json"

# Category files in canonical order; record order in a dump is file order
# within this sequence. The per-category timestamp field, when present,
# becomes the record's normalized timestamp.
CATEGORY_FILES: tuple[tuple[str, ArtifactCategory], ...] = (
    ("device_info.jsonl", ArtifactCategory.DEVICE_INFO),
    ("installed_apps.jsonl", ArtifactCategory.INSTALLED_APP),
    ("messages.jsonl", ArtifactCategory.MESSAGE),
    ("calls.jsonl", ArtifactCategory.CALL_RECORD),
    ("contacts.jsonl", ArtifactCategory.CONTACT),
    ("wifi_history.jsonl", ArtifactCategory.WIFI_HISTORY),
    ("browser_history.jsonl", ArtifactCategory.BROWSER_HISTORY),
    ("sim.jsonl", ArtifactCategory.SIM_CARD),
    ("configured_emails.jsonl", ArtifactCategory.CONFIGURED_EMAIL),
    ("running_apps.jsonl", ArtifactCategory.RUNNING_APP),
    ("phone_state.jsonl", ArtifactCategory.PHONE_STATE),
)

TIME_FIELDS: dict[ArtifactCategory, str] = {
    ArtifactCategory.DEVICE_INFO: "device_clock",
    ArtifactCategory.INSTALLED_APP: "installed",
    ArtifactCategory.MESSAGE: "delivered_at",
    ArtifactCategory.CALL_RECORD: "at",
    ArtifactCategory.BROWSER_HISTORY: "visited_at",
    ArtifactCategory.WIFI_HISTORY: "last_connected",
}

# TIME_FIELDS by member name: a str key hashes in C, an Enum member in Python.
_TIME_FIELD_BY_NAME = {category._name_: name for category, name in TIME_FIELDS.items()}

_KNOWN_FILES = {name for name, _ in CATEGORY_FILES}

# Why a text field that ``lone_surrogate`` finds is refused.
LONE_SURROGATE = "holds a lone surrogate, which UTF-8 cannot encode"

_PHONE_STATE_BOOLS = (
    "screen_lock_enabled",
    "screen_saver_enabled",
    "developer_option_enabled",
    "flight_mode_on",
)


# The installed-app statuses that FORMAT.md lists, as a status is
# compared: lowercased. dump.json's app counts and uninstall detection
# both read UNINSTALLED.
UNINSTALLED = "uninstalled"
_APP_STATUSES = frozenset({"all", "thirdparty", "disabled", UNINSTALLED})


class EventKind(Enum):
    INSTALL = "Install"
    UNINSTALL = "Uninstall"
    UPLOAD = "Upload"
    DOWNLOAD = "Download"
    LOGIN = "Login"
    SYNC = "Sync"


_KIND_BY_KEY = {k.value.lower(): k for k in EventKind}


# The device section of dump.json, in its key order: the text, flag and
# number fields read from the first device-info line (phone-state flags
# from the first phone-state line win), then the device clock's text.
_PROFILE_STR_FIELDS = (
    "model", "device_name", "android_version", "sdk_level", "brand", "manufacturer",
    "kernel_name", "wifi_mac", "wifi_ssid", "bluetooth_mac", "imei",
)
_PROFILE_BOOL_FIELDS = (
    "developer_option_enabled", "encryption_enabled", "flight_mode_on",
    "screen_lock_enabled", "screen_saver_enabled",
)
_PROFILE_FIELDS = (
    *_PROFILE_STR_FIELDS, *_PROFILE_BOOL_FIELDS, "battery_percent", "device_clock_at_acquisition",
)


class CloudEvent(_Frozen):
    """One entry of the cloud-side forensic log, on the cloud clock.

    ``content_digest`` is the SHA-256 of the synced content in lowercase hex.
    """

    __slots__ = _compared = (
        "event_id", "kind", "timestamp", "account", "package_or_object", "content_digest",
        "size_bytes",
    )

    event_id: str
    kind: EventKind
    timestamp: UtcTimestamp
    account: str
    package_or_object: str
    content_digest: Optional[str]
    size_bytes: Optional[int]

    def __init__(
        self,
        event_id: str,
        kind: EventKind,
        timestamp: UtcTimestamp,
        account: str,
        package_or_object: str,
        content_digest: Optional[str] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        _set(self, "event_id", event_id)
        _set(self, "kind", kind)
        _set(self, "timestamp", timestamp)
        _set(self, "account", account)
        _set(self, "package_or_object", package_or_object)
        _set(self, "content_digest", content_digest)
        _set(self, "size_bytes", size_bytes)


class DeviceDump(_Frozen):
    """A fully ingested bundle: manifest data, records, and error ledger.

    ``device`` is the ``device`` section of ``dump.json``: every profile
    field, None where the bundle does not say. Each ledger entry is a
    ``{"file", "line", "message"}`` row; line 0 marks a file-level note,
    such as an unrecognized category file, that consumes no input line.
    ``line_counts`` holds the raw line count of every recognized category
    file so losslessness (records + ledgered lines = input lines) can be
    audited per file; left out, it is a new empty dict.

    ``locale``, ``files`` and ``unrecognized_files`` are what a seal
    records of how the bundle was read: the locale, the
    ``{"name", "bytes", "sha256"}`` row of each file ingest read, as
    ``file_table`` gives them, and the names of the ``*.jsonl`` files it
    did not recognize.
    """

    __slots__ = _compared = (
        "dump_id", "collected_at", "zone_offset_minutes", "tool_name", "tool_version", "device",
        "records", "ledger", "line_counts", "locale", "files", "unrecognized_files",
    )

    dump_id: str
    collected_at: UtcTimestamp
    zone_offset_minutes: int
    tool_name: str
    tool_version: str
    device: dict
    records: tuple[EvidenceRecord, ...]
    ledger: tuple[dict, ...]
    line_counts: Mapping[str, int]
    locale: Locale
    files: tuple[dict, ...]
    unrecognized_files: tuple[str, ...]

    def __init__(
        self,
        dump_id: str,
        collected_at: UtcTimestamp,
        zone_offset_minutes: int,
        tool_name: str,
        tool_version: str,
        device: dict,
        records: tuple[EvidenceRecord, ...],
        ledger: tuple[dict, ...] = (),
        line_counts: Optional[Mapping[str, int]] = None,
        locale: Locale = Locale.DAY_FIRST,
        files: tuple[dict, ...] = (),
        unrecognized_files: tuple[str, ...] = (),
    ) -> None:
        _set(self, "dump_id", dump_id)
        _set(self, "collected_at", collected_at)
        _set(self, "zone_offset_minutes", zone_offset_minutes)
        _set(self, "tool_name", tool_name)
        _set(self, "tool_version", tool_version)
        _set(self, "device", device)
        _set(self, "records", records)
        _set(self, "ledger", ledger)
        _set(self, "line_counts", {} if line_counts is None else line_counts)
        _set(self, "locale", locale)
        _set(self, "files", files)
        _set(self, "unrecognized_files", unrecognized_files)


class _LineError(Exception):
    """Internal: one line could not become a record; goes to the ledger."""


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    """A float literal's value; one too large for a float, such as 1e400, raises ValueError."""
    value = float(text)
    if math.isinf(value):
        _reject_constant(text)
    return value


# One decoder for every JSON reader, built once: bundle and cloud log
# lines, manifest.json, manifest.sealed.json and stage files.
_JSON_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)
_scan_once = _JSON_DECODER.scan_once


def load_json(text: str) -> object:
    """``json.loads(text)``, except that a non-finite number raises ValueError.

    That is NaN, Infinity and -Infinity, and a float literal too large
    for a float, such as 1e400.

    Malformed text raises json.JSONDecodeError, with the same message as
    ``json.loads`` gives, and nesting too deep raises RecursionError.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _JSON_DECODER.decode(text)


def lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate, which UTF-8 cannot encode.

    Decoded JSON holds one only where the text had an escape such as
    ``\\udc00``, and a name from the OS only where it had a byte that
    is not UTF-8. Such text can be neither written nor hashed.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


# A JSON escape of a surrogate: the only way decoded text holds a lone one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json_file(path: Path, shape: object) -> Any:
    """Read a JSON file this tool wrote back, and check that it holds ``shape``.

    ValueError names the first problem: text that is not UTF-8 JSON
    (see ``load_json``), a value not of ``shape`` (see ``shape_problem``)
    or, in a file of that shape, a key or string with a lone surrogate.
    """
    try:
        text = path.read_bytes().decode("utf-8")
        data = load_json(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"is not valid JSON: {exc}") from None
    problem = shape_problem(data, shape)
    if not problem and _SURROGATE_ESCAPE.search(text):
        problem = surrogate_problem(data)
    if problem:
        raise ValueError(problem)
    return data


_KIND_NAMES = {
    dict: "a JSON object", list: "a JSON list", str: "a string", int: "a non-negative integer",
}


def shape_problem(value: Any, shape: Any, where: str = "") -> Optional[str]:
    """Why ``value`` does not have ``shape``, or None if it does.

    A dict shape is a JSON object with at least those keys, each of the
    shape given; a one-item list is a JSON list whose items all have
    that item's shape; ``str`` is a string, ``int`` a non-negative
    integer (not a boolean) and ``None`` any value.
    """
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
    """Which text in ``value``, decoded JSON, holds a lone surrogate; None if none does.

    Any key or string counts, named as ``shape_problem`` names a field:
    no file this tool writes holds one, and no report can.
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


def os_name(name: str) -> str:
    """A file name or argument as the OS gave it, as text that UTF-8 can encode.

    Each byte that is not UTF-8 is written as ``\\xNN``.
    """
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def _json_object(line: bytes) -> dict:
    """One input line as a JSON object, or _LineError saying why it is not.

    Callers split files with ``bytes.splitlines``, which breaks only at
    CR and LF, so a raw U+2028 or U+0085 inside a JSON string stays on
    its line, and one undecodable line costs only that line.
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _LineError(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    # A line that is one JSON object and nothing else is what load_json
    # would return: take the scanner's result. Anything else, such as
    # padding, a BOM, a non-finite number or an error, goes through
    # load_json for its exact outcome.
    try:
        fields, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end == len(text) and type(fields) is dict:
        return fields
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


def _stringify(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if type(value) is int:
        return int.__repr__(value)  # what json.dumps writes, without its encoder set-up
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def _integer(value: object) -> Optional[int]:
    """An int, or a string that ``int()`` reads; None for anything else.

    A float or a bool is refused, never truncated to an int.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _check_keys(keys: tuple) -> None:
    """Raise _LineError for the first key, other than ``id``, that no attribute may have."""
    for key in keys:
        if key == "id":
            continue
        if not isinstance(key, str) or not key:
            raise _LineError("attribute keys must be nonempty strings")
        if key.startswith("_"):
            raise _LineError(f"attribute key {key!r} uses the reserved '_' prefix")


def record_from_fields(
    category: ArtifactCategory,
    fields: Mapping[str, object],
    file_name: str,
    line_no: int,
    locale: Locale,
    zone_offset_minutes: int,
    checked_keys: Optional[dict[tuple, tuple]] = None,
) -> EvidenceRecord:
    """Build one evidence record from a parsed JSON Lines object.

    The ``id`` field becomes the record id (synthesized from file and
    line when absent); every other field is stringified into the
    attribute map, plus ``_file``/``_line`` provenance. Raises
    ``_LineError`` on anything that should be ledgered instead.

    ``checked_keys`` maps each tuple of keys already found valid to
    itself. A line with such keys skips their checks, and its record
    keeps the table's key strings instead of the line's own copies.
    A tuple that passes is added to the table.
    """
    raw_id = fields.get("id")
    if raw_id is not None and not isinstance(raw_id, str):
        raise _LineError(f"id must be a string, got {type(raw_id).__name__}")
    record_id = raw_id if raw_id else f"{Path(file_name).stem}:{line_no}"

    if checked_keys is None:
        checked_keys = {}
    keys = tuple(fields)
    known = checked_keys.get(keys)
    if known is None:
        _check_keys(keys)
        known = checked_keys[keys] = keys
    attributes: dict[str, str] = {}
    for key, value in zip(known, fields.values()):
        if value is None or key == "id":
            continue
        attributes[key] = value if type(value) is str else _stringify(value)
    attributes["_file"] = file_name
    attributes["_line"] = str(line_no)

    timestamp: Optional[UtcTimestamp] = None
    time_field = _TIME_FIELD_BY_NAME.get(category._name_)
    if time_field is not None:
        raw_time = fields.get(time_field)
        if raw_time is not None and raw_time != "":
            if not isinstance(raw_time, str):
                raise _LineError(f"{time_field} must be a string timestamp")
            try:
                timestamp = normalize_timestamp(raw_time, locale, zone_offset_minutes)
            except (UnparseableTimestamp, ImpossibleDate) as exc:
                raise _LineError(f"bad {time_field}: {exc}") from exc

    try:
        return EvidenceRecord(record_id, category, timestamp, attributes)
    except ValueError as exc:
        raise _LineError(str(exc)) from exc


def _parse_bool(text: Optional[str]) -> Optional[bool]:
    if text is None:
        return None
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    return None


def _build_profile(info: Optional[EvidenceRecord], state: Optional[EvidenceRecord]) -> dict:
    """The ``device`` section of dump.json, from the first device-info and phone-state lines."""
    profile: dict = dict.fromkeys(_PROFILE_FIELDS)
    if info is not None:
        attrs = info.attributes
        for name in _PROFILE_STR_FIELDS:
            if name in attrs:
                profile[name] = attrs[name]
        for name in _PROFILE_BOOL_FIELDS:
            parsed = _parse_bool(attrs.get(name))
            if parsed is not None:
                profile[name] = parsed
        battery = attrs.get("battery_percent")
        if battery is not None:
            try:
                level = int(battery)
            except ValueError:
                level = -1
            if 0 <= level <= 100:
                profile["battery_percent"] = level
        if info.timestamp is not None:
            profile["device_clock_at_acquisition"] = info.timestamp.original_text
    if state is not None:
        for name in _PHONE_STATE_BOOLS:
            parsed = _parse_bool(state.attributes.get(name))
            if parsed is not None:
                profile[name] = parsed
    return profile


_MAC_RE = re.compile(r"[0-9a-fA-F]{2}(:[0-9a-fA-F]{2}){5}")


def profile_format_warnings(profile: Mapping[str, object]) -> list[str]:
    """Cosmetic format checks on identifier fields.

    Evidence is never rejected on format grounds (real extractions carry
    values like seven-group MACs); these notes only flag fields an
    examiner may want to eyeball.
    """
    warnings = []
    for label in ("wifi_mac", "bluetooth_mac"):
        value = profile.get(label)
        if value and not _MAC_RE.fullmatch(value):
            warnings.append(f"{label} {value!r} is not a canonical 6-group MAC, kept as-is")
    imei = profile.get("imei")
    if imei and not (imei.isascii() and imei.isdigit() and 14 <= len(imei) <= 16):
        warnings.append(f"imei {imei!r} is not 14-16 digits, kept as-is")
    return warnings


def _load_manifest(bundle: Path) -> tuple[dict, bytes]:
    """The checked ``manifest.json`` of ``bundle``, and the bytes it was read from."""
    manifest_path = bundle / BUNDLE_MANIFEST
    if not manifest_path.is_file():
        raise MissingManifest(f"no {BUNDLE_MANIFEST} in {bundle}")
    try:
        raw = manifest_path.read_bytes()
        data = load_json(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise MissingManifest(f"{manifest_path} unreadable: {exc}") from exc
    if not isinstance(data, dict):
        raise MissingManifest(f"{manifest_path} must hold a JSON object")
    for required in ("dump_id", "collected_at", "zone_offset_minutes"):
        if required not in data:
            raise MissingManifest(f"{manifest_path} missing field {required!r}")
    for key in ("dump_id", "tool_name", "tool_version"):
        if isinstance(data.get(key), str) and lone_surrogate(data[key]):
            raise MalformedManifest(f"{manifest_path} field {key!r} {LONE_SURROGATE}")
    data["zone_offset_minutes"] = _zone_offset(data["zone_offset_minutes"], manifest_path)
    return data, raw


def _zone_offset(value: object, manifest_path: Path) -> int:
    offset = _integer(value)
    if offset is None:
        raise MalformedManifest(
            f"{manifest_path} field 'zone_offset_minutes' must be an integer, got {value!r}"
        )
    return offset


def _bundle_files(bundle: Path) -> tuple[list[tuple[str, ArtifactCategory]], list[str]]:
    """Which files of ``bundle`` ingest reads, besides ``manifest.json``, and which it only names.

    Returns each category file that is present, with its category, in
    record order, and the sorted names of the other ``*.jsonl`` entries,
    written as ``os_name`` writes them.
    """
    names = os.listdir(bundle)
    present = set(names)
    read = [
        (name, category)
        for name, category in CATEGORY_FILES
        if name in present and (bundle / name).is_file()
    ]
    unrecognized = sorted(n for n in names if n.endswith(".jsonl") and n not in _KNOWN_FILES)
    return read, [os_name(name) for name in unrecognized]


def _file_row(name: str, data: bytes) -> dict:
    """A file table row: the file's name, byte length and SHA-256 in lowercase hex."""
    return {"name": name, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def file_table(bundle_path: Path | str) -> tuple[list[dict], list[str]]:
    """The file table that ingest would record of a bundle, from hashing alone.

    Returns the ``{"name", "bytes", "sha256"}`` row of ``manifest.json``
    and of each category file ingest reads, in that order, and the names
    of the unrecognized ``*.jsonl`` files; no line is parsed. A bundle
    without ``manifest.json`` has an empty table, and ingest then says
    why it cannot be read.
    """
    bundle = Path(bundle_path)
    if not (bundle / BUNDLE_MANIFEST).is_file():
        return [], []
    read, unrecognized = _bundle_files(bundle)
    names = [BUNDLE_MANIFEST, *(name for name, _ in read)]
    return [_file_row(name, (bundle / name).read_bytes()) for name in names], unrecognized


def ingest_device_dump(bundle_path: Path | str, locale: Locale = Locale.DAY_FIRST) -> DeviceDump:
    """Parse a bundle directory into a DeviceDump.

    Records preserve file order across the canonical category sequence
    and carry their source file and line number as provenance
    attributes. Malformed lines land in the ledger and ingestion
    continues; a duplicated record id aborts with DuplicateRecordId.
    The dump's file table hashes the very bytes that were parsed.
    """
    bundle = Path(bundle_path)
    manifest, manifest_bytes = _load_manifest(bundle)
    zone_offset = manifest["zone_offset_minutes"]
    collected_at = normalize_timestamp(str(manifest["collected_at"]), locale, 0)

    records: list[EvidenceRecord] = []
    ledger: list[dict] = []
    line_counts: dict[str, int] = {}
    files = [_file_row(BUNDLE_MANIFEST, manifest_bytes)]
    seen_ids: dict[str, EvidenceRecord] = {}
    # Bundle lines repeat a few key tuples: each is checked once, and its
    # key strings are shared by every record that has them.
    checked_keys: dict[tuple, tuple] = {}
    first_info: Optional[EvidenceRecord] = None
    first_state: Optional[EvidenceRecord] = None

    read, unrecognized = _bundle_files(bundle)
    for file_name, category in read:
        data = (bundle / file_name).read_bytes()
        lines = data.splitlines()
        files.append(_file_row(file_name, data))
        del data  # hold each line once, not the file's bytes as well
        line_counts[file_name] = len(lines)
        for line_no, line in enumerate(lines, start=1):
            try:
                fields = _json_object(line)
            except _LineError as exc:
                ledger.append({"file": file_name, "line": line_no, "message": str(exc)})
                continue
            try:
                record = record_from_fields(
                    category, fields, file_name, line_no, locale, zone_offset, checked_keys
                )
            except _LineError as exc:
                ledger.append({"file": file_name, "line": line_no, "message": str(exc)})
                continue
            if record.record_id in seen_ids:
                first_file, first_line = _provenance(seen_ids[record.record_id])
                raise DuplicateRecordId(
                    f"record id {record.record_id!r} at {file_name}:{line_no} already used "
                    f"at {first_file}:{first_line}"
                )
            seen_ids[record.record_id] = record
            records.append(record)
            if category is ArtifactCategory.DEVICE_INFO and first_info is None:
                first_info = record
            if category is ArtifactCategory.PHONE_STATE and first_state is None:
                first_state = record

    for name in unrecognized:
        ledger.append({"file": name, "line": 0, "message": "unrecognized category file"})

    return DeviceDump(
        dump_id=str(manifest["dump_id"]),
        collected_at=collected_at,
        zone_offset_minutes=zone_offset,
        tool_name=str(manifest.get("tool_name", "")),
        tool_version=str(manifest.get("tool_version", "")),
        device=_build_profile(first_info, first_state),
        records=tuple(records),
        ledger=tuple(ledger),
        line_counts=line_counts,
        locale=locale,
        files=tuple(files),
        unrecognized_files=tuple(unrecognized),
    )


def _provenance(record: EvidenceRecord) -> tuple[str, int]:
    return record.attributes.get("_file", "?"), int(record.attributes.get("_line", "0"))


def parse_app_inventory(
    records: Sequence[EvidenceRecord], ledger: Optional[list[dict]] = None
) -> list[EvidenceRecord]:
    """The installed-app records with a known status and a name, in record order.

    Lines with an unknown status value or without a name are skipped,
    each with a ledger row appended to ``ledger`` when one is given.
    """
    apps: list[EvidenceRecord] = []
    for record in records:
        if record.category is not ArtifactCategory.INSTALLED_APP:
            continue
        status = record.attributes.get("status", "")
        if status.lower() not in _APP_STATUSES:
            message = f"unknown app status {status!r}"
        elif not record.attributes.get("name"):
            message = "app record without a name"
        else:
            apps.append(record)
            continue
        if ledger is not None:
            file_name, line_no = _provenance(record)
            ledger.append({"file": file_name, "line": line_no, "message": message})
    return apps


def ingest_cloud_log(path: Path | str, ledger: Optional[list[dict]] = None) -> list[CloudEvent]:
    """Parse a cloud event log (JSON Lines, one event per line).

    Events keep file order. Unknown kinds and malformed lines are
    skipped, each with a ledger row appended to ``ledger`` when one is
    given; a duplicated event id is fatal.
    """
    log_path = Path(path)
    file_name = os_name(log_path.name)
    events: list[CloudEvent] = []
    seen: dict[str, int] = {}

    def note(line_no: int, message: str) -> None:
        if ledger is not None:
            ledger.append({"file": file_name, "line": line_no, "message": message})

    for line_no, line in enumerate(log_path.read_bytes().splitlines(), start=1):
        try:
            fields = _json_object(line)
        except _LineError as exc:
            note(line_no, str(exc))
            continue
        event_id = fields.get("id")
        if not isinstance(event_id, str) or not event_id:
            note(line_no, "event without an id")
            continue
        kind_text = fields.get("kind")
        kind = _KIND_BY_KEY.get(kind_text.lower()) if isinstance(kind_text, str) else None
        if kind is None:
            note(line_no, f"unknown event kind {kind_text!r}")
            continue
        raw_ts = fields.get("ts")
        if not isinstance(raw_ts, str):
            note(line_no, "event without a ts timestamp")
            continue
        try:
            timestamp = normalize_timestamp(raw_ts, Locale.DAY_FIRST, 0)
        except (UnparseableTimestamp, ImpossibleDate) as exc:
            note(line_no, f"bad ts: {exc}")
            continue
        digest: Optional[str] = None
        if fields.get("digest") is not None:
            try:
                digest = checked_digest_hex(fields["digest"])
            except ValueError:
                note(line_no, f"bad content digest {fields['digest']!r}")
                continue
        raw_size = fields.get("size")
        size = None if raw_size is None else _integer(raw_size)
        if size is None and raw_size is not None:
            note(line_no, f"bad size {raw_size!r}")
            continue
        account = _optional_text(fields.get("account"))
        target = _optional_text(fields.get("object"))
        if b"\\u" in line:  # only a \u escape puts a lone surrogate in decoded text
            texts = {"id": event_id, "account": account, "object": target}
            bad = [name for name, text in texts.items() if lone_surrogate(text)]
            if bad:
                note(line_no, f"field {bad[0]!r} {LONE_SURROGATE}")
                continue
        if event_id in seen:
            raise DuplicateEventId(
                f"event id {event_id!r} on line {line_no} already used on line {seen[event_id]}"
            )
        seen[event_id] = line_no
        events.append(CloudEvent(event_id, kind, timestamp, account, target, digest, size))
    return events


def _optional_text(value: object) -> str:
    """A cloud text field: absent or null is "", other values as device attributes are."""
    return "" if value is None else _stringify(value)


def record_rows(records: Sequence[EvidenceRecord]) -> list[dict]:
    """The ``records.jsonl`` rows of ``records``, in their order.

    Each row holds a copy of its record's attributes: records are
    immutable, and a caller may change its rows.
    """
    return [
        {
            "record_id": r.record_id,
            # _value_ is what .value returns, without its descriptor call.
            "category": r.category._value_,
            "timestamp": r.timestamp.original_text if r.timestamp else None,
            "timestamp_utc": r.timestamp.to_iso() if r.timestamp else None,
            "source": DEVICE,
            "attributes": dict(r.attributes),
            "digest": hashlib.sha256(r.canonical).hexdigest(),
        }
        for r in records
    ]


def dump_to_json_dict(dump: DeviceDump) -> dict:
    """Stable JSON summary of an ingested dump: it counts the records that ``record_rows`` lists."""
    return {
        "dump_id": dump.dump_id,
        "collected_at": dump.collected_at.original_text,
        "zone_offset_minutes": dump.zone_offset_minutes,
        "tool_name": dump.tool_name,
        "tool_version": dump.tool_version,
        "device": dump.device,
        "record_count": len(dump.records),
        "ledger": list(dump.ledger),
        "line_counts": dict(dump.line_counts),
    }
