"""The five value types behave as immutable values.

``UtcTimestamp``, ``EvidenceRecord``, ``CloudEvent``, ``DeviceDump``
and ``GeoTable`` compare by their fields, hash where
every compared field is hashable, print as ``Type(field=value, ...)``
and refuse assignment and deletion. Their constructors take the same
arguments with the same defaults and make the same checks. Two fields
are kept out of equality and the text: a timestamp's cached ISO
rendering and a record's canonical bytes.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from synctrail.acquisition import CloudEvent, DeviceDump, EventKind
from synctrail.errors import ImpossibleDate
from synctrail.evidence import ArtifactCategory, EvidenceRecord, Locale, UtcTimestamp
from synctrail.osint import GeoTable

STAMP = UtcTimestamp(1462752000, "2016-05-09T00:00:00Z")
LATER = UtcTimestamp(1462752060, "2016-05-09T00:01:00Z")


def record(**changes) -> EvidenceRecord:
    fields = {
        "record_id": "r1",
        "category": ArtifactCategory.MESSAGE,
        "timestamp": STAMP,
        "attributes": {"peer": "+15550001", "_file": "messages.jsonl"},
        **changes,
    }
    return EvidenceRecord(**fields)


def event(**changes) -> CloudEvent:
    fields = {
        "event_id": "e1",
        "kind": EventKind.UPLOAD,
        "timestamp": STAMP,
        "account": "a@x",
        "package_or_object": "IMG_1.jpg",
        "content_digest": "ab" * 32,
        "size_bytes": 2048,
        **changes,
    }
    return CloudEvent(**fields)


def dump(**changes) -> DeviceDump:
    fields = {
        "dump_id": "d1",
        "collected_at": STAMP,
        "zone_offset_minutes": 60,
        "tool_name": "t",
        "tool_version": "1",
        "device": {"imei": "356938035643809"},
        "records": (record(),),
        "ledger": ({"file": "calls.jsonl", "line": 2, "message": "bad"},),
        "line_counts": {"messages.jsonl": 1},
        "files": ({"name": "manifest.json", "bytes": 2, "sha256": "ab" * 32},),
        **changes,
    }
    return DeviceDump(**fields)


def table(**changes) -> GeoTable:
    fields = {
        "name": "geo.csv",
        "starts": (167772160,),
        "ends": (167772415,),
        "labels": (("NL", "Amsterdam"),),
        **changes,
    }
    return GeoTable(**fields)


def stamp(**changes) -> UtcTimestamp:
    fields = {"seconds_since_epoch": 1462752000, "original_text": "2016-05-09T00:00:00Z"}
    return UtcTimestamp(**{**fields, **changes})


# Each type: its builder, and one other value for every compared field.
CHANGES = {
    "UtcTimestamp": (stamp, {
        "seconds_since_epoch": 1462752001,
        "original_text": "09/05/2016 12:00:00 AM",
    }),
    "EvidenceRecord": (record, {
        "record_id": "r2",
        "category": ArtifactCategory.CALL_RECORD,
        "timestamp": LATER,
        "attributes": {"peer": "+15550002", "_file": "messages.jsonl"},
    }),
    "CloudEvent": (event, {
        "event_id": "e2",
        "kind": EventKind.DOWNLOAD,
        "timestamp": LATER,
        "account": "b@x",
        "package_or_object": "IMG_2.jpg",
        "content_digest": None,
        "size_bytes": 1,
    }),
    "DeviceDump": (dump, {
        "dump_id": "d2",
        "collected_at": LATER,
        "zone_offset_minutes": 0,
        "tool_name": "u",
        "tool_version": "2",
        "device": {"imei": None},
        "records": (),
        "ledger": (),
        "line_counts": {},
        "locale": Locale.MONTH_FIRST,
        "files": (),
        "unrecognized_files": ("notes.jsonl",),
    }),
    "GeoTable": (table, {
        "name": "other.csv",
        "starts": (),
        "ends": (),
        "labels": (),
    }),
}
ROWS = [
    (build, name, value) for build, changes in CHANGES.values() for name, value in changes.items()
]
ROW_IDS = [
    f"{type_name}.{name}" for type_name, (_, changes) in CHANGES.items() for name in changes
]
BUILDERS = [build for build, _ in CHANGES.values()]


@pytest.mark.parametrize("build", BUILDERS, ids=list(CHANGES))
def test_equal_to_a_copy_built_from_the_same_fields(build):
    assert build() == build()
    assert not build() != build()
    assert build() is not build()


@pytest.mark.parametrize("build, name, value", ROWS, ids=ROW_IDS)
def test_one_changed_field_makes_it_unequal(build, name, value):
    assert build(**{name: value}) != build()
    assert not build(**{name: value}) == build()


@pytest.mark.parametrize("build", BUILDERS, ids=list(CHANGES))
def test_unequal_to_another_type_with_the_same_fields(build):
    value = build()
    assert value != tuple(getattr(value, name) for name in CHANGES[type(value).__name__][1])
    assert value.__eq__(object()) is NotImplemented


@pytest.mark.parametrize(
    "build", [stamp, event, table], ids=["UtcTimestamp", "CloudEvent", "GeoTable"]
)
def test_equal_values_hash_alike(build):
    assert hash(build()) == hash(build())
    assert len({build(), build()}) == 1


@pytest.mark.parametrize("build", [record, dump], ids=["EvidenceRecord", "DeviceDump"])
def test_a_type_holding_a_dict_is_unhashable(build):
    with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
        hash(build())


def test_cached_iso_text_is_no_part_of_a_timestamp():
    formatted = UtcTimestamp(0, "01/01/1970 12:00:00 AM")
    assert formatted.to_iso() == "1970-01-01T00:00:00Z"
    fresh = UtcTimestamp(0, "01/01/1970 12:00:00 AM")
    assert formatted == fresh and hash(formatted) == hash(fresh)
    assert repr(formatted) == repr(fresh)
    assert formatted.to_iso() is formatted.to_iso()


def test_canonical_bytes_are_no_part_of_a_record_s_text():
    assert "canonical=" not in repr(record())
    assert record().canonical == record().canonical


def test_repr_text():
    assert repr(STAMP) == (
        "UtcTimestamp(seconds_since_epoch=1462752000, original_text='2016-05-09T00:00:00Z')"
    )
    assert repr(record()) == (
        f"EvidenceRecord(record_id='r1', category=<ArtifactCategory.MESSAGE: 'Message'>, "
        f"timestamp={STAMP!r}, attributes={{'peer': '+15550001', '_file': 'messages.jsonl'}})"
    )
    assert repr(event()) == (
        f"CloudEvent(event_id='e1', kind=<EventKind.UPLOAD: 'Upload'>, timestamp={STAMP!r}, "
        f"account='a@x', package_or_object='IMG_1.jpg', content_digest='{'ab' * 32}', "
        f"size_bytes=2048)"
    )
    assert repr(dump()) == (
        f"DeviceDump(dump_id='d1', collected_at={STAMP!r}, zone_offset_minutes=60, "
        f"tool_name='t', tool_version='1', device={{'imei': '356938035643809'}}, "
        f"records=({record()!r},), "
        f"ledger=({{'file': 'calls.jsonl', 'line': 2, 'message': 'bad'}},), "
        f"line_counts={{'messages.jsonl': 1}}, locale=<Locale.DAY_FIRST: 'day-first'>, "
        f"files=({{'name': 'manifest.json', 'bytes': 2, 'sha256': '{'ab' * 32}'}},), "
        f"unrecognized_files=())"
    )
    assert repr(table()) == (
        "GeoTable(name='geo.csv', starts=(167772160,), ends=(167772415,), "
        "labels=(('NL', 'Amsterdam'),))"
    )


# Every stored field, including the two kept out of equality.
STORED = {
    "UtcTimestamp": ("seconds_since_epoch", "original_text", "_iso"),
    "EvidenceRecord": ("record_id", "category", "timestamp", "attributes", "canonical"),
    "CloudEvent": tuple(CHANGES["CloudEvent"][1]),
    "DeviceDump": tuple(CHANGES["DeviceDump"][1]),
    "GeoTable": tuple(CHANGES["GeoTable"][1]),
}


@pytest.mark.parametrize(
    "build, name",
    [(CHANGES[type_name][0], name) for type_name, names in STORED.items() for name in names],
    ids=[f"{type_name}.{name}" for type_name, names in STORED.items() for name in names],
)
def test_a_field_can_be_neither_assigned_nor_deleted(build, name):
    value = build()
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


@pytest.mark.parametrize("build", BUILDERS, ids=list(CHANGES))
def test_copies_and_pickles_are_equal_values(build):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def parameters(cls) -> list[tuple[str, object]]:
    """Each parameter's name and default; a default built per call shows as ``"fresh"``."""
    return [
        (p.name, p.default if p.name != "line_counts" or p.default is p.empty else "fresh")
        for p in inspect.signature(cls).parameters.values()
    ]


def test_constructor_parameters_and_defaults():
    empty = inspect.Parameter.empty
    assert parameters(UtcTimestamp) == [("seconds_since_epoch", empty), ("original_text", empty)]
    assert parameters(EvidenceRecord) == [
        ("record_id", empty), ("category", empty), ("timestamp", empty),
        ("attributes", empty),
    ]
    assert parameters(CloudEvent) == [
        ("event_id", empty), ("kind", empty), ("timestamp", empty), ("account", empty),
        ("package_or_object", empty), ("content_digest", None), ("size_bytes", None),
    ]
    assert parameters(DeviceDump) == [
        ("dump_id", empty), ("collected_at", empty), ("zone_offset_minutes", empty),
        ("tool_name", empty), ("tool_version", empty), ("device", empty), ("records", empty),
        ("ledger", ()), ("line_counts", "fresh"), ("locale", Locale.DAY_FIRST), ("files", ()),
        ("unrecognized_files", ()),
    ]
    assert parameters(GeoTable) == [
        ("name", empty), ("starts", empty), ("ends", empty), ("labels", empty),
    ]


def test_positional_arguments_fill_fields_in_order():
    assert UtcTimestamp(1462752000, "2016-05-09T00:00:00Z") == STAMP
    assert CloudEvent("e1", EventKind.UPLOAD, STAMP, "a@x", "IMG_1.jpg", "ab" * 32, 2048) == event()
    assert GeoTable("geo.csv", (167772160,), (167772415,), (("NL", "Amsterdam"),)) == table()


def test_defaults():
    bare = CloudEvent("e1", EventKind.LOGIN, STAMP, "a@x", "")
    assert (bare.content_digest, bare.size_bytes) == (None, None)
    first = DeviceDump("d1", STAMP, 0, "t", "1", {}, ())
    second = DeviceDump("d1", STAMP, 0, "t", "1", {}, ())
    assert first.ledger == () and first.line_counts == {}
    assert (first.locale, first.files, first.unrecognized_files) == (Locale.DAY_FIRST, (), ())
    assert first.line_counts is not second.line_counts


def test_a_timestamp_checks_its_range_and_text():
    assert UtcTimestamp(0, "x").seconds_since_epoch == 0
    assert UtcTimestamp(4133980799, "x").seconds_since_epoch == 4133980799
    with pytest.raises(ImpossibleDate, match="^timestamp -1 outside supported range 1970-2100$"):
        UtcTimestamp(-1, "x")
    with pytest.raises(ImpossibleDate, match="^timestamp 4133980800 outside"):
        UtcTimestamp(4133980800, "x")
    with pytest.raises(ValueError, match="^original_text must be preserved, got empty string$"):
        UtcTimestamp(0, "")
    with pytest.raises(ValueError, match="^timestamp text contains reserved separator byte"):
        UtcTimestamp(0, "a\x1fb")
    assert UtcTimestamp(0, "x")._iso is None


def test_a_record_checks_its_fields_and_keeps_a_copy_of_its_attributes():
    attributes = {"b": "2", "a": "1"}
    built = record(attributes=attributes)
    attributes["c"] = "3"
    assert built.attributes == {"b": "2", "a": "1"} and type(built.attributes) is dict
    assert list(built.attributes) == ["b", "a"]
    assert built.canonical == (
        b"r1\x1fMessage\x1f2016-05-09T00:00:00Z\x1fDevice\x1fa\x1f1\x1fb\x1f2\x1e"
    )
    with pytest.raises(ValueError, match="^record_id must be nonempty$"):
        record(record_id="")
    with pytest.raises(ValueError, match="^attribute 'k' value must be a string$"):
        record(attributes={"k": 1})
    with pytest.raises(ValueError, match="^attribute keys must be nonempty strings$"):
        record(attributes={"": "v"})
