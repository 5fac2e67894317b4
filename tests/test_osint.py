from __future__ import annotations

import functools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail.acquisition import ingest_device_dump
from synctrail.errors import MalformedTable
from synctrail.evidence import ArtifactCategory, EvidenceRecord, Source, UtcTimestamp
from synctrail.osint import (
    IdKind,
    Identifier,
    build_identity_graph,
    load_geo_table,
    normalize_identifier,
    resolve_ip,
)

from _oracles import linear_scan_geo
from test_acquisition import write_bundle

AT = UtcTimestamp(1462752000, "2016-05-09T00:00:00Z")


def record(category: ArtifactCategory, timestamp=None, **attributes: str) -> EvidenceRecord:
    return EvidenceRecord(
        record_id="r1",
        category=category,
        timestamp=timestamp,
        attributes=attributes,
        source=Source.DEVICE,
    )


def contact(*numbers: str) -> EvidenceRecord:
    return record(ArtifactCategory.CONTACT, name="c", numbers=json.dumps(numbers))


def message(peer: str, **attributes: str) -> EvidenceRecord:
    attributes = {"direction": "Incoming", **attributes}
    return record(ArtifactCategory.MESSAGE, peer=peer, **attributes)


def call(peer: str, timestamp=AT, **attributes: str) -> EvidenceRecord:
    attributes = {"direction": "Outgoing", **attributes}
    return record(ArtifactCategory.CALL_RECORD, timestamp, peer=peer, **attributes)


def owner(address: str) -> EvidenceRecord:
    return record(ArtifactCategory.CONFIGURED_EMAIL, address_or_number=address)


OWNER = Identifier(IdKind.EMAIL, "owner@x.com")
PEER = Identifier(IdKind.PHONE, "+3531")


class TestNormalizeIdentifier:
    def test_phone_strips_separators_keeps_plus(self):
        assert normalize_identifier(" +353 87-000 0001 ") == Identifier(
            IdKind.PHONE, "+353870000001"
        )

    def test_no_country_code_inference(self):
        assert normalize_identifier("0870000001") == Identifier(IdKind.PHONE, "0870000001")

    def test_email_lowercased(self):
        assert normalize_identifier("Alice@X.COM") == Identifier(IdKind.EMAIL, "alice@x.com")

    def test_empty_and_junk(self):
        assert normalize_identifier("") is None
        assert normalize_identifier("---") is None


class TestIdentityGraph:
    def test_empty_inputs(self):
        graph = build_identity_graph([])
        assert graph.nodes == frozenset()
        assert graph.edges == {}

    def test_contact_with_two_numbers(self):
        graph = build_identity_graph([contact("+3531", "+3532")])
        x = Identifier(IdKind.PHONE, "+3531")
        y = Identifier(IdKind.PHONE, "+3532")
        assert graph.nodes == frozenset({x, y})
        assert graph.edges == {(x, y): 1}

    def test_planted_clique_of_three(self):
        graph = build_identity_graph([contact("+1", "+2", "+3")])
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 3
        assert all(count == 1 for count in graph.edges.values())

    def test_messages_tie_owner_to_peer(self):
        graph = build_identity_graph([message("+3531"), message("+3531"), owner("owner@x.com")])
        assert graph.edges == {(OWNER, PEER): 2}

    def test_calls_count_separately(self):
        graph = build_identity_graph([message("+3531"), call("+3531"), owner("owner@x.com")])
        assert list(graph.edges.values()) == [2]

    def test_duplicate_number_in_one_contact_no_self_edge(self):
        graph = build_identity_graph([contact("+3531", "+353 1")])
        assert len(graph.nodes) == 1
        assert graph.edges == {}

    def test_order_independence(self):
        records = [
            contact("+1", "+2"), contact("+2", "+3"), contact("+1", "+3"),
            message("+1"), message("+2"), owner("o@x.com"),
        ]
        assert build_identity_graph(records) == build_identity_graph(reversed(records))

    def test_owners_are_nodes_without_any_artifact(self):
        graph = build_identity_graph([owner("Owner@X.com"), owner(""), owner("---")])
        assert graph.nodes == frozenset({OWNER})

    @pytest.mark.parametrize(
        "artifact, counts",
        [
            (message("+3531"), True),
            (message("+3531", direction="OUTGOING"), True),
            (record(ArtifactCategory.MESSAGE, peer="+3531"), True),
            (message("+3531", direction="Sideways"), False),
            (message("+3531", direction=""), False),
            (message("+3531", direction=" Incoming "), False),
            (call("+3531"), True),
            (call("+3531", direction="incoming", duration_s=" 7 "), True),
            (call("+3531", duration_s="-3"), True),
            (call("+3531", duration_s="1.5"), False),
            (call("+3531", duration_s="true"), False),
            (call("+3531", duration_s=""), False),
            (call("+3531", timestamp=None), False),
            (record(ArtifactCategory.CALL_RECORD, AT, peer="+3531"), False),
            (call("+3531", direction="Sideways"), False),
        ],
    )
    def test_which_messages_and_calls_count(self, artifact, counts):
        graph = build_identity_graph([artifact, owner("owner@x.com")])
        assert graph.edges == ({(OWNER, PEER): 1} if counts else {})
        assert graph.nodes == ({OWNER, PEER} if counts else {OWNER})

    @pytest.mark.parametrize(
        "numbers, nodes",
        [
            ('["+1","+2"]', 2),
            ("[]", 0),
            ('"+1"', 0),
            ("+1", 0),
            ("123", 0),
            ("[1,2]", 0),
            ('[["+1"]]', 0),
            ('["+1",null]', 0),
            ('{"a":"+1"}', 0),
            ('["+1",NaN]', 0),
            ('["+1",1e400]', 0),
            ('["+1"', 0),
            ("[" * 100_000, 0),
        ],
    )
    def test_contact_numbers_must_be_a_json_list_of_strings(self, numbers, nodes):
        graph = build_identity_graph([record(ArtifactCategory.CONTACT, numbers=numbers)])
        assert len(graph.nodes) == nodes

    def test_other_categories_take_no_part(self):
        records = [
            record(category, AT, peer="+1", numbers='["+2","+3"]', address_or_number="+4")
            for category in ArtifactCategory
            if category not in (
                ArtifactCategory.MESSAGE,
                ArtifactCategory.CALL_RECORD,
                ArtifactCategory.CONTACT,
                ArtifactCategory.CONFIGURED_EMAIL,
            )
        ]
        assert build_identity_graph(records).nodes == frozenset()

    def test_ingested_bundle(self, tmp_path):
        bundle = write_bundle(
            tmp_path / "b",
            {
                "messages.jsonl": [
                    {"id": "m1", "peer": "+3531", "body": "", "direction": "Outgoing",
                     "delivered_at": "2016-05-10T08:00:00Z"},
                    {"id": "m2", "peer": "+3532", "body": "hi"},
                    {"id": "m3", "peer": "+3539", "direction": "Sideways"},
                ],
                "calls.jsonl": [
                    {"id": "c1", "peer": "+3533", "at": "01/02/2016 09:00:00 AM",
                     "direction": "Outgoing", "duration_s": 60},
                    {"id": "c2", "peer": "+3539", "direction": "Outgoing"},
                ],
                "contacts.jsonl": [{"id": "ct1", "name": "Pat", "numbers": ["+3531", "+3534"]}],
                "configured_emails.jsonl": [{"id": "e1", "address_or_number": "Owner@x.com"}],
            },
        )
        graph = build_identity_graph(ingest_device_dump(bundle).records)
        phones = {n: Identifier(IdKind.PHONE, n) for n in ("+3531", "+3532", "+3533", "+3534")}
        assert graph.nodes == {OWNER, *phones.values()}
        assert graph.edges == {
            (OWNER, phones["+3531"]): 1,
            (OWNER, phones["+3532"]): 1,
            (OWNER, phones["+3533"]): 1,
            (phones["+3531"], phones["+3534"]): 1,
        }


def make_table(tmp_path, rows):
    path = tmp_path / "geo.csv"
    path.write_text("".join(f"{a},{b},{c},{d}\n" for a, b, c, d in rows), encoding="utf-8")
    return path


class TestGeoLookup:
    def test_containment(self, tmp_path):
        table = load_geo_table(make_table(tmp_path, [("10.0.0.0", "10.0.0.255", "IE", "Dublin")]))
        hit = resolve_ip("10.0.0.7", table)
        assert (hit.country, hit.city) == ("IE", "Dublin")
        assert hit.source_table == "geo.csv"

    def test_miss_is_absent(self, tmp_path):
        table = load_geo_table(make_table(tmp_path, [("10.0.0.0", "10.0.0.255", "IE", "Dublin")]))
        assert resolve_ip("11.0.0.1", table) is None

    def test_boundaries_inclusive(self, tmp_path):
        table = load_geo_table(make_table(tmp_path, [("10.0.0.10", "10.0.0.20", "IE", "Cork")]))
        assert resolve_ip("10.0.0.10", table) is not None
        assert resolve_ip("10.0.0.20", table) is not None
        assert resolve_ip("10.0.0.9", table) is None
        assert resolve_ip("10.0.0.21", table) is None

    def test_invalid_ip_is_absent(self, tmp_path):
        table = load_geo_table(make_table(tmp_path, [("10.0.0.0", "10.0.0.255", "IE", "Dublin")]))
        assert resolve_ip("not-an-ip", table) is None

    def test_overlap_rejected(self, tmp_path):
        rows = [("10.0.0.0", "10.0.0.255", "IE", "Dublin"), ("10.0.0.200", "10.0.1.0", "IE", "Cork")]
        with pytest.raises(MalformedTable):
            load_geo_table(make_table(tmp_path, rows))

    def test_unsorted_rejected(self, tmp_path):
        rows = [("10.0.1.0", "10.0.1.255", "IE", "Dublin"), ("10.0.0.0", "10.0.0.255", "IE", "Cork")]
        with pytest.raises(MalformedTable):
            load_geo_table(make_table(tmp_path, rows))

    def test_matches_linear_scan_oracle(self, tmp_path):
        rng = random.Random(4242)
        rows = []
        cursor = rng.randrange(1, 1000)
        for index in range(1000):
            start = cursor + rng.randrange(1, 5000)
            end = start + rng.randrange(0, 4000)
            rows.append((start, end, f"C{index % 50}", f"city{index}"))
            cursor = end
        csv_rows = [
            (str_ip(a), str_ip(b), country, city) for a, b, country, city in rows
        ]
        table = load_geo_table(make_table(tmp_path, csv_rows))
        span = rows[-1][1] + 10_000
        for _ in range(2000):
            value = rng.randrange(0, span)
            expected = linear_scan_geo(rows, value)
            got = resolve_ip(str_ip(value), table)
            if expected is None:
                assert got is None
            else:
                assert (got.country, got.city) == expected

    @settings(max_examples=80, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    def test_resolution_agrees_with_linear_scan(self, value):
        rows = [
            (100, 200, "A", "a"),
            (201, 202, "B", "b"),
            (1000, 5000, "C", "c"),
            (2**31, 2**31 + 10, "D", "d"),
        ]
        table = _small_table(tuple(rows))
        expected = linear_scan_geo(rows, value)
        got = resolve_ip(str_ip(value), table)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got.country, got.city) == expected


def str_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@functools.lru_cache(maxsize=None)
def _small_table(rows):
    path = Path(tempfile.mkdtemp()) / "t.csv"
    path.write_text("".join(f"{str_ip(a)},{str_ip(b)},{c},{d}\n" for a, b, c, d in rows))
    return load_geo_table(path)
