"""Canonical evidence model.

Typed artifact records, timestamp normalization, and the deterministic
byte encoding that every digest and hash chain in the tool is computed
over. All types here are immutable; operations are pure functions.
"""

from __future__ import annotations

import re
import time
from typing import Mapping, Optional

from .errors import ImpossibleDate, UnparseableTimestamp

# Canonical encoding separators. Evidence fields must never contain them;
# this is what makes the encoding injective and therefore safe to hash.
FIELD_SEP = b"\x1f"
RECORD_TERM = b"\x1e"
_FORBIDDEN = ("\x1f", "\x1e")
_FIELD_SEP_TEXT = FIELD_SEP.decode("ascii")

# Epoch bounds for 1970-01-01T00:00:00Z .. 2100-12-31T23:59:59Z.
EPOCH_MIN = 0
EPOCH_MAX = 4133980799

DIGEST_ALGORITHM = "sha-256"

# The source field of every record's canonical encoding: every record
# is read from the device.
DEVICE = "Device"

# ASCII digits only, and the whole text: both grammars are matched with
# fullmatch, so a trailing newline is refused.
_ISO_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})"
    r"(Z|[+-][0-9]{2}:[0-9]{2})"
)
_LEGACY_RE = re.compile(
    r"([0-9]{1,2})/([0-9]{1,2})/([0-9]{4}) ([0-9]{1,2}):([0-9]{2}):([0-9]{2}) (AM|PM)"
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


# Reading orders for legacy DD/MM vs MM/DD timestamps.
LOCALES = ("day-first", "month-first")


# Each __init__ sets its slots with _set, past _Frozen.__setattr__.
# normalize_timestamp's ISO-Z fast path also builds a timestamp with
# _new and _set alone, without UtcTimestamp.__init__'s checks, which
# that text has passed already.
_new = object.__new__
_set = object.__setattr__


class _Frozen:
    """An immutable value: fields are slots, set once by ``__init__``.

    Equality, hashing and the text compare and show the fields named in
    the class's ``_compared``, in that order, as a frozen dataclass
    would; a value holding a dict is therefore unhashable. Plain classes
    instead of dataclasses: creating a dataclass compiles its methods,
    and importing ``dataclasses`` loads ``inspect``, at every start-up.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # copy and pickle restore the slots here, past __setattr__.
        for name, value in state[1].items():
            _set(self, name, value)


class UtcTimestamp(_Frozen):
    """A UTC instant plus the exact source text it was read from."""

    __slots__ = ("seconds_since_epoch", "original_text", "_iso")
    _compared = ("seconds_since_epoch", "original_text")

    seconds_since_epoch: int
    original_text: str
    # The ISO rendering, kept once formatted; no part of equality or repr.
    # A timestamp read from ISO-Z text starts with that text, which
    # already is its rendering.
    _iso: Optional[str]

    def __init__(self, seconds_since_epoch: int, original_text: str) -> None:
        _set(self, "seconds_since_epoch", seconds_since_epoch)
        _set(self, "original_text", original_text)
        _set(self, "_iso", None)
        check_epoch(seconds_since_epoch)
        if not original_text:
            raise ValueError("original_text must be preserved, got empty string")
        _check_clean(original_text, "timestamp text")

    def to_iso(self) -> str:
        """Render as YYYY-MM-DDTHH:MM:SSZ, formatting at most once per instance."""
        if self._iso is None:
            _set(self, "_iso", epoch_to_iso(self.seconds_since_epoch))
        return self._iso  # type: ignore[return-value]


class EvidenceRecord(_Frozen):
    """One typed, timestamped artifact entry read from the device.

    ``attributes`` preserves source order, in a dict of its own. The
    canonical encoding is computed once, at construction, and kept as
    ``canonical``; the custody chain and ``records.jsonl``'s digest
    hash those bytes, so neither can drift from the record contents.
    ``canonical`` is no part of equality or repr: equal fields encode
    to equal bytes.
    """

    __slots__ = ("record_id", "category", "timestamp", "attributes", "canonical")
    _compared = ("record_id", "category", "timestamp", "attributes")

    record_id: str
    category: str
    timestamp: Optional[UtcTimestamp]
    attributes: Mapping[str, str]
    canonical: bytes

    def __init__(
        self,
        record_id: str,
        category: str,
        timestamp: Optional[UtcTimestamp],
        attributes: Mapping[str, str],
    ) -> None:
        _set(self, "record_id", record_id)
        _set(self, "category", category)
        _set(self, "timestamp", timestamp)
        _set(self, "attributes", attributes)
        _encode(self)
        _set(self, "attributes", dict(attributes))


def _encode(record: EvidenceRecord) -> None:
    """Check a record's fields, then set its canonical bytes.

    Validation reads the encoded bytes: the fields are clean exactly
    when the encoding holds one separator between each pair of its
    4 + 2n fields, one terminator, and no empty id or key. Anything
    else, a failed encode included, replays the per-field checks, which
    raise what they always raised; an encode error is raised only when
    every check passes, as if the checks had run first. Bytes that
    encode but still miscount hold a separator in the category.
    """
    attributes = record.attributes
    try:
        canonical = canonical_encode(record)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        canonical, error = b"", exc
    if not (
        canonical
        and record.record_id
        and canonical.count(FIELD_SEP) == 3 + 2 * len(attributes)
        and canonical.count(RECORD_TERM) == 1
        and "" not in attributes
    ):
        _check_fields(record.record_id, attributes)
        if not canonical:
            raise error
        _check_clean(record.category, "category")
    _set(record, "canonical", canonical)


def _check_fields(record_id: str, attributes: Mapping[str, str]) -> None:
    """Raise ValueError naming the first field that is empty, not a string, or unclean."""
    if not record_id:
        raise ValueError("record_id must be nonempty")
    _check_clean(record_id, "record_id")
    for key, value in attributes.items():
        if not isinstance(key, str) or not key:
            raise ValueError("attribute keys must be nonempty strings")
        if not isinstance(value, str):
            raise ValueError(f"attribute {key!r} value must be a string")
        _check_clean(key, f"attribute key {key!r}")
        _check_clean(value, f"attribute value for {key!r}")


def _check_clean(text: str, what: str) -> None:
    for mark in _FORBIDDEN:
        if mark in text:
            raise ValueError(f"{what} contains reserved separator byte {mark!r}")


def canonical_encode(record: EvidenceRecord) -> bytes:
    """Deterministic UTF-8 encoding of a record.

    Field order is fixed: record id, category, timestamp source text
    (empty when undated), ``DEVICE``, then attributes as key/value fields
    sorted by key. Fields are joined with 0x1f and the record ends with
    0x1e. Attribute insertion order therefore never affects the bytes.
    """
    attributes = record.attributes
    fields = [
        record.record_id,
        record.category,
        record.timestamp.original_text if record.timestamp else "",
        DEVICE,
    ]
    for key in sorted(attributes):
        fields += (key, attributes[key])
    try:
        return _FIELD_SEP_TEXT.join(fields).encode("utf-8") + RECORD_TERM
    except (TypeError, UnicodeEncodeError):
        # Encode field by field so the error names the field's own
        # type, or a position within the field.
        return FIELD_SEP.join(f.encode("utf-8") for f in fields) + RECORD_TERM


def checked_digest_hex(text: object) -> str:
    """A SHA-256 digest's hex text in lowercase; ValueError unless it names 32 bytes.

    The text must be a str of exactly 64 hex digits, in either case:
    ``bytes.fromhex`` alone would also read whitespace between and
    around them.
    """
    if isinstance(text, str) and len(text) == 64:
        try:
            value = bytes.fromhex(text)
        except ValueError:
            value = b""
        if len(value) == 32:
            return value.hex()
    raise ValueError(f"digest must be 64 hex characters, got {text!r}")


# The epoch of 00:00:00 UTC on each ISO date text that has been read
# and found valid: one entry per day of 1970-2100 at most.
_DAY_STARTS: dict[str, int] = {}


def normalize_timestamp(raw: str, locale: str, zone_offset_minutes: int) -> UtcTimestamp:
    """Parse a source timestamp into UTC, preserving the raw text.

    Two grammars are accepted: ISO-8601 with an explicit zone
    (``YYYY-MM-DDThh:mm:ssZ`` or ``...+HH:MM``), which ignores both the
    locale flag and ``zone_offset_minutes``, and the legacy
    ``DD/MM/YYYY hh:mm:ss AM/PM`` form, read day-first or month-first per
    the locale and shifted from the dump's zone offset into UTC.
    """
    m = _ISO_RE.fullmatch(raw)
    if m:
        year, month, day, hour, minute, second, zone = m.groups()
        hour, minute, second = int(hour), int(minute), int(second)
        date = raw[:10]
        day_start = _DAY_STARTS.get(date)
        if day_start is None or hour > 23 or minute > 59 or second > 59:
            # A date read for the first time, or a time that does not exist:
            # checked here, raising what it always raised.
            epoch = _epoch_from_civil(int(year), int(month), int(day), hour, minute, second)
            _DAY_STARTS[date] = epoch - (hour * 3600 + minute * 60 + second)
        else:
            epoch = day_start + hour * 3600 + minute * 60 + second
        if zone == "Z":
            # Text that _ISO_RE matched holds no separator, and a validated
            # year puts a Z time in 1970-2100: UtcTimestamp's checks hold
            # already. Validated ISO-Z text already is the ISO rendering.
            stamp = _new(UtcTimestamp)
            _set(stamp, "seconds_since_epoch", epoch)
            _set(stamp, "original_text", raw)
            _set(stamp, "_iso", raw)
            return stamp
        sign = 1 if zone[0] == "+" else -1
        epoch -= sign * (int(zone[1:3]) * 3600 + int(zone[4:6]) * 60)
        return UtcTimestamp(epoch, raw)

    m = _LEGACY_RE.fullmatch(raw)
    if m:
        first, second_field, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        hour12, minute, second = int(m.group(4)), int(m.group(5)), int(m.group(6))
        meridiem = m.group(7)
        if locale == "day-first":
            day, month = first, second_field
        else:
            month, day = first, second_field
        if not 1 <= hour12 <= 12:
            raise ImpossibleDate(f"hour {hour12} invalid for 12-hour clock in {raw!r}")
        hour = hour12 % 12 + (12 if meridiem == "PM" else 0)
        epoch = _epoch_from_civil(year, month, day, hour, minute, second)
        epoch -= zone_offset_minutes * 60
        return UtcTimestamp(epoch, raw)

    raise UnparseableTimestamp(f"timestamp {raw!r} matches no supported grammar")


def _epoch_from_civil(
    year: int, month: int, day: int, hour: int, minute: int, second: int
) -> int:
    """UTC epoch seconds of a civil time; the inverse of ``time.gmtime``.

    A time that does not exist, or whose year is outside 1970-2100,
    raises ImpossibleDate. Closed-form days-from-civil on the proleptic
    Gregorian calendar, with years starting in March (H. Hinnant). Years
    here are 1970-2100, so no era is negative.
    """
    if not 1970 <= year <= 2100:
        raise ImpossibleDate(f"year {year} outside supported range 1970-2100")
    if not 1 <= month <= 12:
        raise ImpossibleDate(f"month {month} does not exist")
    leap_day = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if not 1 <= day <= _DAYS_IN_MONTH[month - 1] + leap_day:
        raise ImpossibleDate(f"day {day} does not exist in {year}-{month:02d}")
    if hour > 23 or minute > 59 or second > 59:
        raise ImpossibleDate(f"time {hour:02d}:{minute:02d}:{second:02d} out of range")
    year -= month <= 2
    era, year_of_era = divmod(year, 400)
    day_of_year = (153 * (month - 3 if month > 2 else month + 9) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468  # 0000-03-01 to 1970-01-01
    return days * 86400 + hour * 3600 + minute * 60 + second


def check_epoch(epoch: int) -> int:
    """Return ``epoch`` if it lies in 1970-2100; raise ImpossibleDate otherwise."""
    if not EPOCH_MIN <= epoch <= EPOCH_MAX:
        raise ImpossibleDate(f"timestamp {epoch} outside supported range 1970-2100")
    return epoch


# The "YYYY-MM-DDT" text of each day number rendered, for days in 1970-2100.
_ISO_DATES: dict[int, str] = {}


def epoch_to_iso(epoch: int) -> str:
    """Render UTC epoch seconds as YYYY-MM-DDTHH:MM:SSZ."""
    days, second = divmod(epoch, 86400)
    date = _ISO_DATES.get(days)
    if date is None:
        y, mo, d = time.gmtime(days * 86400)[:3]
        date = f"{y:04d}-{mo:02d}-{d:02d}T"
        if EPOCH_MIN <= epoch <= EPOCH_MAX:
            _ISO_DATES[days] = date
    hour, second = divmod(second, 3600)
    minute, second = divmod(second, 60)
    return f"{date}{hour:02d}:{minute:02d}:{second:02d}Z"
