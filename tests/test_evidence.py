from __future__ import annotations

import calendar
import contextlib
import hashlib
import shutil
import subprocess
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail.acquisition import CATEGORY_FILES, ingest_device_dump, record_rows
from synctrail.errors import ImpossibleDate, UnparseableTimestamp
from synctrail.evidence import (
    EvidenceRecord,
    UtcTimestamp,
    EPOCH_MAX,
    EPOCH_MIN,
    canonical_encode,
    checked_digest_hex,
    epoch_to_iso,
    normalize_timestamp,
)
from synctrail import evidence

from _oracles import civil_to_epoch, reference_checked_encode, reference_encode
from test_acquisition import write_bundle

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# Text safe for evidence fields: no reserved separators.
clean_text = st.text(
    alphabet=st.characters(blacklist_characters="\x1f\x1e", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=20,
)
attribute_maps = st.dictionaries(clean_text, clean_text, max_size=5)


def make_record(record_id="r1", category="Message", timestamp=None,
                attributes=None) -> EvidenceRecord:
    return EvidenceRecord(
        record_id=record_id,
        category=category,
        timestamp=timestamp,
        attributes=attributes if attributes is not None else {},
    )


def row_digest(record: EvidenceRecord) -> str:
    """The ``digest`` that ``records.jsonl`` writes for ``record``."""
    (row,) = record_rows([record])
    return row["digest"]


class TestNormalizeTimestamp:
    def test_figure_day_first_sheets(self):
        ts = normalize_timestamp("16/12/2015 11:58:23 PM", "day-first", 0)
        assert ts.to_iso() == "2015-12-16T23:58:23Z"
        assert ts.seconds_since_epoch == civil_to_epoch(2015, 12, 16, 23, 58, 23)
        assert ts.original_text == "16/12/2015 11:58:23 PM"

    def test_epoch_identity(self):
        ts = normalize_timestamp("1970-01-01T00:00:00Z", "day-first", 0)
        assert ts.seconds_since_epoch == 0

    def test_figure_day_first_instagram(self):
        ts = normalize_timestamp("06/04/2016 02:33:53 PM", "day-first", 0)
        assert ts.to_iso() == "2016-04-06T14:33:53Z"
        assert ts.seconds_since_epoch == civil_to_epoch(2016, 4, 6, 14, 33, 53)

    def test_month_first_flips_fields(self):
        ts = normalize_timestamp("06/04/2016 02:33:53 PM", "month-first", 0)
        assert ts.to_iso() == "2016-06-04T14:33:53Z"

    def test_day_16_impossible_month_first(self):
        with pytest.raises(ImpossibleDate):
            normalize_timestamp("16/12/2015 11:58:23 PM", "month-first", 0)

    def test_iso_ignores_locale(self):
        a = normalize_timestamp("2016-04-06T14:33:53Z", "day-first", 0)
        b = normalize_timestamp("2016-04-06T14:33:53Z", "month-first", 0)
        assert a.seconds_since_epoch == b.seconds_since_epoch

    def test_iso_with_offset(self):
        ts = normalize_timestamp("2016-04-06T15:33:53+01:00", "day-first", 0)
        assert ts.to_iso() == "2016-04-06T14:33:53Z"

    def test_legacy_applies_zone_offset(self):
        utc = normalize_timestamp("06/04/2016 02:33:53 PM", "day-first", 0)
        shifted = normalize_timestamp("06/04/2016 02:33:53 PM", "day-first", 60)
        assert shifted.seconds_since_epoch == utc.seconds_since_epoch - 3600

    def test_noon_and_midnight(self):
        noon = normalize_timestamp("01/01/2016 12:00:00 PM", "day-first", 0)
        midnight = normalize_timestamp("01/01/2016 12:00:00 AM", "day-first", 0)
        assert noon.to_iso() == "2016-01-01T12:00:00Z"
        assert midnight.to_iso() == "2016-01-01T00:00:00Z"

    @pytest.mark.parametrize(
        "raw",
        [
            "29/02/2015 01:00:00 AM",  # not a leap year
            "31/04/2016 01:00:00 AM",
            "00/05/2016 01:00:00 AM",
            "01/13/2016 01:00:00 AM",  # month 13 under day-first
            "01/01/1969 01:00:00 AM",
            "2101-01-01T00:00:00Z",
            "01/01/2016 00:15:00 AM",  # hour 0 on a 12-hour clock
        ],
    )
    def test_impossible_dates(self, raw):
        with pytest.raises(ImpossibleDate):
            normalize_timestamp(raw, "day-first", 0)

    @pytest.mark.parametrize("raw", ["", "yesterday", "2016-04-06 14:33:53", "06-04-2016 02:33:53 PM"])
    def test_unparseable(self, raw):
        with pytest.raises(UnparseableTimestamp):
            normalize_timestamp(raw, "day-first", 0)

    @given(st.integers(min_value=0, max_value=4133980799))
    def test_iso_round_trip(self, epoch):
        rendered = epoch_to_iso(epoch)
        assert normalize_timestamp(rendered, "day-first", 0).seconds_since_epoch == epoch

    @given(
        st.integers(min_value=0, max_value=4133980799),
        st.sampled_from(["day-first", "month-first"]),
    )
    def test_iso_rendering_matches_civil_oracle(self, epoch, locale):
        ts = normalize_timestamp(epoch_to_iso(epoch), locale, 0)
        iso = ts.to_iso()
        parts = [int(x) for x in (iso[0:4], iso[5:7], iso[8:10], iso[11:13], iso[14:16], iso[17:19])]
        assert civil_to_epoch(*parts) == epoch


class TestCanonicalEncode:
    def test_attribute_order_independent(self):
        a = make_record(attributes={"k1": "v1", "k2": "v2"})
        b = make_record(attributes={"k2": "v2", "k1": "v1"})
        assert canonical_encode(a) == canonical_encode(b)

    def test_empty_attributes_is_header_plus_terminator(self):
        record = make_record(record_id="x", category="SimCard")
        assert canonical_encode(record) == b"x\x1fSimCard\x1f\x1fDevice\x1e"

    def test_matches_reference_encoder_on_fixture(self):
        ts = normalize_timestamp("16/12/2015 11:58:23 PM", "day-first", 0)
        record = make_record(
            record_id="app-0002",
            category="InstalledApp",
            timestamp=ts,
            attributes={"name": "Sheets", "status": "All", "_line": "2"},
        )
        assert canonical_encode(record) == reference_encode(record)

    def test_kept_bytes_match_reference_encoder_on_golden_bundle(self, golden_bundle):
        records = ingest_device_dump(golden_bundle).records
        assert records
        for record in records:
            assert record.canonical == reference_encode(record), record.record_id
            assert row_digest(record) == hashlib.sha256(reference_encode(record)).hexdigest()

    @given(record_id=clean_text, attributes=attribute_maps)
    def test_matches_reference_encoder(self, record_id, attributes):
        record = make_record(record_id=record_id, attributes=attributes)
        assert canonical_encode(record) == reference_encode(record)

    @given(
        id_a=clean_text,
        id_b=clean_text,
        attrs_a=attribute_maps,
        attrs_b=attribute_maps,
        cat_a=st.sampled_from([category for _, category in CATEGORY_FILES]),
        cat_b=st.sampled_from([category for _, category in CATEGORY_FILES]),
    )
    @settings(max_examples=200)
    def test_injective_over_distinct_records(self, id_a, id_b, attrs_a, attrs_b, cat_a, cat_b):
        a = make_record(record_id=id_a, category=cat_a, attributes=attrs_a)
        b = make_record(record_id=id_b, category=cat_b, attributes=attrs_b)
        if (id_a, cat_a, attrs_a) != (id_b, cat_b, attrs_b):
            assert canonical_encode(a) != canonical_encode(b)
        else:
            assert canonical_encode(a) == canonical_encode(b)

    def test_separator_bytes_rejected(self):
        with pytest.raises(ValueError):
            make_record(attributes={"k": "bad\x1fvalue"})
        with pytest.raises(ValueError):
            make_record(record_id="bad\x1eid")
        for category in ("Mes\x1fsage", "Mes\x1esage"):
            with pytest.raises(ValueError, match="category"):
                make_record(category=category)


class TestRecordDigest:
    def test_sha256_empty_input_constant(self):
        assert hashlib.sha256(b"").hexdigest() == SHA256_EMPTY

    def test_deterministic(self):
        a = make_record(attributes={"k": "v"})
        b = make_record(attributes={"k": "v"})
        assert row_digest(a) == row_digest(b) == hashlib.sha256(reference_encode(a)).hexdigest()

    def test_digest_is_lowercase_hex_of_the_canonical_bytes(self):
        record = make_record(attributes={"k": "v"})
        assert row_digest(record) == hashlib.sha256(reference_encode(record)).hexdigest()
        assert len(row_digest(record)) == 64
        assert row_digest(record) == row_digest(record).lower()

    def test_against_external_sha256_tool(self, tmp_path):
        tool = shutil.which("sha256sum")
        assert tool, "coreutils sha256sum expected on the test host"
        record = make_record(
            record_id="app-0005",
            category="InstalledApp",
            timestamp=normalize_timestamp("06/04/2016 02:33:53 PM", "day-first", 0),
            attributes={"name": "Instagram", "status": "All"},
        )
        blob = tmp_path / "record.bin"
        blob.write_bytes(canonical_encode(record))
        out = subprocess.run([tool, str(blob)], capture_output=True, text=True, check=True)
        assert out.stdout.split()[0] == row_digest(record)

    @given(attributes=st.dictionaries(clean_text, clean_text, min_size=1, max_size=4), data=st.data())
    def test_avalanche_on_single_byte_flip(self, attributes, data):
        record = make_record(attributes=attributes)
        key = data.draw(st.sampled_from(sorted(attributes)))
        value = attributes[key]
        pos = data.draw(st.integers(min_value=0, max_value=len(value) - 1))
        replacement = "x" if value[pos] != "x" else "y"
        mutated = dict(attributes)
        mutated[key] = value[:pos] + replacement + value[pos + 1 :]
        flipped = make_record(attributes=mutated)
        assert row_digest(flipped) == hashlib.sha256(reference_encode(flipped)).hexdigest()
        assert row_digest(flipped) != row_digest(record)


class TestCheckedDigestHex:
    def test_fixed_length(self):
        with pytest.raises(ValueError):
            checked_digest_hex((b"\x00" * 31).hex())

    def test_hex_round_trip(self):
        digest = bytes(range(32))
        assert checked_digest_hex(digest.hex()) == digest.hex()

    @pytest.mark.parametrize(
        "text",
        ["zz" * 32, " " + "ab" * 32, "ab" * 32 + "\n", " ".join(["ab"] * 32), int("1" * 64),
         ("ab" * 32).encode(), None],
    )
    def test_anything_but_64_hex_digits_in_a_str_is_refused(self, text):
        with pytest.raises(ValueError, match="^digest must be 64 hex characters, got "):
            checked_digest_hex(text)


class TestUtcTimestamp:
    def test_range_enforced(self):
        with pytest.raises(ImpossibleDate):
            UtcTimestamp(-1, "before epoch")
        with pytest.raises(ImpossibleDate):
            UtcTimestamp(4133980799 + 1, "after 2100")

    def test_original_text_required(self):
        with pytest.raises(ValueError):
            UtcTimestamp(0, "")


def outcome(build):
    """What ``build()`` gives: its bytes, or the type and message of what it raised."""
    try:
        return build()
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)


# (record id, attributes): every way a field can fail its checks, and a
# few that pass. Where two fields fail, the first in check order wins.
FIELD_CASES = {
    "empty-id": ("", {"k": "v"}),
    "none-id": (None, {}),
    "int-id": (5, {}),
    "id-0x1f": ("a\x1fb", {}),
    "id-0x1e": ("a\x1eb", {"k": "v"}),
    "key-0x1f": ("r1", {"k\x1f": "v"}),
    "key-0x1e": ("r1", {"a": "v", "k\x1e": "v"}),
    "value-0x1f": ("r1", {"k": "v\x1fw"}),
    "value-0x1e": ("r1", {"k": "\x1e"}),
    "int-key": ("r1", {1: "v"}),
    "mixed-keys": ("r1", {"b": "v", 1: "v"}),
    "int-value": ("r1", {"k": 1}),
    "none-value": ("r1", {"k": None}),
    "empty-key": ("r1", {"": "v"}),
    "empty-key-after-bad-value": ("r1", {"k": "v\x1e", "": "v"}),
    "bad-value-after-empty-key": ("r1", {"": "v", "k": "v\x1e"}),
    "lone-surrogate-id": ("r\ud800", {"k": "v"}),
    "lone-surrogate-key": ("r1", {"a": "v", "key\udc00": "v"}),
    "lone-surrogate-value": ("r1", {"k": "va\ud800"}),
    "surrogate-before-separator": ("r1", {"a": "\ud800", "b\x1f": "v"}),
    "attributes-not-a-mapping": ("r1", [("k", "v")]),
    "clean": ("r1", {"z": "last", "k": "Zoë – 東京 🙂"}),
    "clean-no-attributes": ("r1", {}),
}

MAPPING_CASES = {name: case for name, case in FIELD_CASES.items() if isinstance(case[1], dict)}


class TestFieldChecksMatchReference:
    """The one-pass check gives what the field-by-field checks gave, byte for byte
    and error for error."""

    @pytest.mark.parametrize("record_id, attributes", FIELD_CASES.values(), ids=FIELD_CASES)
    def test_record_construction(self, record_id, attributes):
        expected = outcome(
            lambda: reference_checked_encode(record_id, "Message", "", attributes, "Device")
        )
        got = outcome(lambda: make_record(record_id=record_id, attributes=attributes).canonical)
        assert got == expected

    @pytest.mark.parametrize("record_id, attributes", MAPPING_CASES.values(), ids=MAPPING_CASES)
    def test_canonical_encode_of_unchecked_fields(self, record_id, attributes):
        record = make_record()
        object.__setattr__(record, "record_id", record_id)
        object.__setattr__(record, "attributes", attributes)
        encoded = outcome(lambda: canonical_encode(record))
        if isinstance(encoded, bytes):
            assert encoded == reference_encode(record)
        else:
            assert encoded == outcome(lambda: reference_encode(record))

    @pytest.mark.parametrize("mark", ["\x1f", "\x1e"])
    def test_timestamp_text(self, mark):
        with pytest.raises(ValueError) as caught:
            UtcTimestamp(0, f"t{mark}")
        assert str(caught.value) == f"timestamp text contains reserved separator byte {mark!r}"
        # Text that bypassed that check is encoded as it stands, as before.
        stamp = UtcTimestamp(0, "t")
        object.__setattr__(stamp, "original_text", f"t{mark}u")
        record = make_record(timestamp=stamp, attributes={"k": "v"})
        assert record.canonical == reference_checked_encode(
            "r1", "Message", f"t{mark}u", {"k": "v"}, "Device"
        )

    @pytest.mark.parametrize(
        "row",
        [
            {"id": "a\x1fb", "name": "x"},
            {"id": "a\x1eb"},
            {"name\x1f": "x"},
            {"name": "x\x1e"},
            {"name": "x", "package": "p\x1f"},
            {"id": "r\ud800"},
            {"name": "xy\udfff"},
            {"n\ud800": "x"},
        ],
    )
    def test_ingest_ledger_message(self, tmp_path, row):
        bundle = write_bundle(tmp_path / "b", {"running_apps.jsonl": [row]})
        dump = ingest_device_dump(bundle)
        attributes = {k: v for k, v in row.items() if k != "id"}
        attributes.update(_file="running_apps.jsonl", _line="1")
        record_id = row.get("id", "running_apps:1")
        _, message = outcome(
            lambda: reference_checked_encode(record_id, "RunningApp", "", attributes, "Device")
        )
        assert dump.records == ()
        assert dump.ledger == ({"file": "running_apps.jsonl", "line": 1, "message": message},)


class TestEpochFromCivil:
    def test_first_and_last_second_of_every_day_matches_timegm(self):
        for year in range(1970, 2101):
            for month in range(1, 13):
                for day in range(1, calendar.monthrange(year, month)[1] + 1):
                    for clock in ((0, 0, 0), (23, 59, 59)):
                        civil = (year, month, day, *clock)
                        assert evidence._epoch_from_civil(*civil) == calendar.timegm(civil), civil


# Leap days, and the seconds either side of them, across 1972-2096.
leap_day_instants = st.builds(
    lambda year, offset: calendar.timegm((year, 2, 29, 0, 0, 0)) + offset,
    st.sampled_from([year for year in range(1972, 2100, 4) if year != 2100]),
    st.integers(min_value=-86400, max_value=2 * 86400),
)
instants = st.integers(min_value=EPOCH_MIN, max_value=EPOCH_MAX) | leap_day_instants
# A zone as the ISO text writes it: Z, or a sign, hours 00-23 and minutes 00-59.
zones = st.just("Z") | st.builds(
    lambda sign, hours, minutes: f"{sign}{hours:02d}:{minutes:02d}",
    st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59),
)


def reference_iso(epoch: int) -> str:
    """Uncached: the UTC rendering by time.gmtime."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


class TestDayCaches:
    """Each calendar day is converted once; every result equals an uncached reference."""

    @given(instants, zones)
    def test_normalize_iso_equals_reference(self, instant, zone):
        offset = 0 if zone == "Z" else (1 if zone[0] == "+" else -1) * (
            int(zone[1:3]) * 3600 + int(zone[4:6]) * 60
        )
        # The local civil time that, in this zone, names ``instant``.
        raw = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(instant + offset)) + zone
        local = time.gmtime(instant + offset)
        for _ in range(2):  # a first and a second reading of the day
            if not (1970 <= local.tm_year <= 2100 and EPOCH_MIN <= instant <= EPOCH_MAX):
                with pytest.raises(ImpossibleDate):
                    normalize_timestamp(raw, "day-first", 0)
            else:
                stamp = normalize_timestamp(raw, "day-first", 0)
                assert stamp.seconds_since_epoch == instant
                assert stamp.to_iso() == reference_iso(instant)

    @given(instants)
    def test_epoch_to_iso_equals_reference(self, instant):
        assert epoch_to_iso(instant) == epoch_to_iso(instant) == reference_iso(instant)

    def test_each_day_of_the_range_once(self):
        evidence._DAY_STARTS.clear()
        evidence._ISO_DATES.clear()
        for epoch in range(EPOCH_MIN, EPOCH_MAX + 1, 86400):
            raw = reference_iso(epoch + 86399)
            assert normalize_timestamp(raw, "day-first", 0).seconds_since_epoch == epoch + 86399
            assert epoch_to_iso(epoch + 43200) == reference_iso(epoch + 43200)
        days = (EPOCH_MAX + 1) // 86400
        assert len(evidence._DAY_STARTS) == len(evidence._ISO_DATES) == days

    def test_out_of_range_epochs_are_rendered_but_not_kept(self):
        for epoch in (-1, -86400 * 400, EPOCH_MAX + 1):
            assert epoch_to_iso(epoch) == reference_iso(epoch)
            assert epoch // 86400 not in evidence._ISO_DATES

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("2015-02-29T01:00:00Z", "day 29 does not exist in 2015-02"),
            ("2016-04-31T01:00:00Z", "day 31 does not exist in 2016-04"),
            ("2016-13-01T01:00:00Z", "month 13 does not exist"),
            ("2016-00-10T01:00:00Z", "month 0 does not exist"),
            ("1969-12-31T23:59:59Z", "year 1969 outside supported range 1970-2100"),
            ("2101-01-01T00:00:00Z", "year 2101 outside supported range 1970-2100"),
            ("2016-04-06T24:00:00Z", "time 24:00:00 out of range"),
            ("2016-04-06T23:60:00+01:00", "time 23:60:00 out of range"),
            ("2016-04-06T23:59:60Z", "time 23:59:60 out of range"),
            ("2016-02-30T25:00:00Z", "day 30 does not exist in 2016-02"),
            ("2100-12-31T23:59:59-00:01", "timestamp 4133980859 outside supported range 1970-2100"),
        ],
    )
    @pytest.mark.parametrize("day_read_before", [False, True])
    def test_impossible_times_keep_their_messages_on_every_call(
        self, raw, message, day_read_before
    ):
        evidence._DAY_STARTS.clear()
        if day_read_before:
            with contextlib.suppress(ImpossibleDate):
                normalize_timestamp(raw[:10] + "T12:00:00Z", "day-first", 0)
        for _ in range(2):
            with pytest.raises(ImpossibleDate) as raised:
                normalize_timestamp(raw, "day-first", 0)
            assert str(raised.value) == message
        if message.startswith(("day", "month", "year")):
            assert raw[:10] not in evidence._DAY_STARTS


class TestToIso:
    @pytest.mark.parametrize(
        "raw",
        [
            "2016-04-06T14:33:53Z",
            "1970-01-01T00:00:00Z",
            "2100-12-31T23:59:59Z",
            "2016-04-06T15:33:53+01:00",
            "2016-04-06T00:10:00-02:30",
            "06/04/2016 02:33:53 PM",
            "29/02/2016 12:00:00 AM",
        ],
    )
    @pytest.mark.parametrize("zone_offset_minutes", [0, 90])
    def test_equals_epoch_to_iso(self, raw, zone_offset_minutes):
        stamp = normalize_timestamp(raw, "day-first", zone_offset_minutes)
        assert stamp.to_iso() == epoch_to_iso(stamp.seconds_since_epoch)
        assert stamp.to_iso() is stamp.to_iso()

    @pytest.mark.parametrize(
        "raw",
        [
            "2016-04-06T14:33:53Z\n",  # a trailing newline
            "06/04/2016 02:33:53 PM\n",
            "٢٠١٦-٠٤-٠٦T14:33:53Z",  # digits of another script
            "２０１６-04-06T14:33:53Z",  # fullwidth digits
            "06/04/٢٠١٦ 02:33:53 PM",
        ],
    )
    def test_only_ascii_digits_and_the_whole_text(self, tmp_path, raw):
        with pytest.raises(UnparseableTimestamp):
            normalize_timestamp(raw, "day-first", 0)
        row = {"id": "w1", "ssid": "x", "last_connected": raw}
        dump = ingest_device_dump(write_bundle(tmp_path / "b", {"wifi_history.jsonl": [row]}))
        assert dump.records == ()
        assert dump.ledger == (
            {
                "file": "wifi_history.jsonl",
                "line": 1,
                "message": f"bad last_connected: timestamp {raw!r} matches no supported grammar",
            },
        )

    def test_iso_z_text_is_its_own_rendering(self):
        raw = "2016-04-06T14:33:53Z"
        assert normalize_timestamp(raw, "day-first", 0).to_iso() is raw

    @pytest.mark.parametrize("text", ["not a timestamp", "2016-04-06T14:33:53Z", "x"])
    def test_directly_built(self, text):
        stamp = UtcTimestamp(1459953233 + 7, text)
        assert stamp.to_iso() == epoch_to_iso(1459953240) == "2016-04-06T14:34:00Z"

    def test_rendering_is_not_part_of_equality(self):
        a = normalize_timestamp("2016-04-06T14:33:53Z", "day-first", 0)
        b = UtcTimestamp(a.seconds_since_epoch, a.original_text)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        b.to_iso()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
