from __future__ import annotations

import csv
import functools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail import osint
from synctrail.acquisition import CATEGORY_FILES, ingest_device_dump
from synctrail.errors import ForensicsError
from synctrail.evidence import EvidenceRecord, UtcTimestamp
from synctrail.osint import (
    build_identity_graph,
    load_geo_table,
    normalize_identifier,
    resolve_ip,
)

from _oracles import brute_force_identity_graph, linear_scan_geo
from test_acquisition import write_bundle

AT = UtcTimestamp(1462752000, "2016-05-09T00:00:00Z")


def record(category: str, timestamp=None, **attributes: str) -> EvidenceRecord:
    return EvidenceRecord(
        record_id="r1",
        category=category,
        timestamp=timestamp,
        attributes=attributes,
    )


def contact(*numbers: str) -> EvidenceRecord:
    return record("Contact", name="c", numbers=json.dumps(numbers))


def message(peer: str, **attributes: str) -> EvidenceRecord:
    attributes = {"direction": "Incoming", **attributes}
    return record("Message", peer=peer, **attributes)


def call(peer: str, timestamp=AT, **attributes: str) -> EvidenceRecord:
    attributes = {"direction": "Outgoing", **attributes}
    return record("CallRecord", timestamp, peer=peer, **attributes)


def owner(address: str) -> EvidenceRecord:
    return record("ConfiguredEmail", address_or_number=address)


OWNER = ("Email", "owner@x.com")
PEER = ("Phone", "+3531")
DIRECTION = "direction not Incoming or Outgoing"
NO_IDENTIFIER = "no phone number or email"


def phone(number: str) -> tuple[str, str]:
    return ("Phone", number)


def graph_of(records, left_out=None) -> tuple[set, dict]:
    """The identity_graph.json payload as (node pairs, {(a, b): count})."""
    graph = build_identity_graph(records, left_out)

    def pair(node: dict) -> tuple[str, str]:
        return (node["kind"], node["value"])

    return (
        {pair(node) for node in graph["nodes"]},
        {(pair(edge["a"]), pair(edge["b"])): edge["count"] for edge in graph["edges"]},
    )


def lines_run(records) -> int:
    """How many lines of osint.py run while ``build_identity_graph`` reads ``records``."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace if frame.f_code.co_filename == osint.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        build_identity_graph(records)
    finally:
        sys.settrace(previous)
    return lines


def random_comm_records(rng: random.Random, index: int) -> list[EvidenceRecord]:
    """A small random mix of accounts, messages, calls and contacts with unique ids.

    Accounts repeat, differ only in case, and appear as peers; some
    messages and calls break a rule and are left out.
    """
    pool = ["Owner@X.com", "owner@x.com", "b@y.org", "+3531", "+353 1", "3531", "+3532",
            "0870", "---", ""]
    records = []
    for n in range(rng.randrange(12)):
        rid = f"{index}-{n}"
        shape = rng.randrange(4)
        if shape == 0:
            records.append(EvidenceRecord(rid, "ConfiguredEmail", None,
                                          {"address_or_number": rng.choice(pool)}))
        elif shape == 1:
            numbers = json.dumps(rng.sample(pool, rng.randrange(4)))
            records.append(EvidenceRecord(rid, "Contact", None,
                                          {"name": "c", "numbers": numbers}))
        else:
            category = "Message" if shape == 2 else "CallRecord"
            direction = rng.choice(["Incoming", "outgoing", "Sideways"])
            records.append(EvidenceRecord(rid, category, AT,
                                          {"peer": rng.choice(pool), "direction": direction}))
    return records


class TestNormalizeIdentifier:
    def test_phone_strips_separators_keeps_plus(self):
        assert normalize_identifier(" +353 87-000 0001 ") == phone("+353870000001")

    def test_no_country_code_inference(self):
        assert normalize_identifier("0870000001") == phone("0870000001")

    def test_email_lowercased(self):
        assert normalize_identifier("Alice@X.COM") == ("Email", "alice@x.com")

    def test_empty_and_junk(self):
        assert normalize_identifier("") is None
        assert normalize_identifier("---") is None


class TestIdentityGraph:
    def test_empty_inputs(self):
        assert build_identity_graph([]) == {"nodes": [], "edges": []}

    def test_contact_with_two_numbers(self):
        assert build_identity_graph([contact("+3532", "+3531")]) == {
            "nodes": [{"kind": "Phone", "value": "+3531"}, {"kind": "Phone", "value": "+3532"}],
            "edges": [
                {
                    "a": {"kind": "Phone", "value": "+3531"},
                    "b": {"kind": "Phone", "value": "+3532"},
                    "count": 1,
                }
            ],
        }

    def test_planted_clique_of_three(self):
        nodes, edges = graph_of([contact("+1", "+2", "+3")])
        assert len(nodes) == 3
        assert len(edges) == 3
        assert all(count == 1 for count in edges.values())

    def test_messages_tie_owner_to_peer(self):
        _, edges = graph_of([message("+3531"), message("+3531"), owner("owner@x.com")])
        assert edges == {(OWNER, PEER): 2}

    def test_calls_count_separately(self):
        _, edges = graph_of([message("+3531"), call("+3531"), owner("owner@x.com")])
        assert list(edges.values()) == [2]

    def test_peers_that_normalize_alike_count_together(self):
        records = [message("+353 1"), call("+3531"), message("+353-1"), message("+3532"),
                   owner("owner@x.com"), owner("+3539")]
        _, edges = graph_of(records)
        assert edges == {
            (OWNER, PEER): 3,
            (OWNER, phone("+3532")): 1,
            (OWNER, phone("+3539")): 4,
            (PEER, phone("+3539")): 3,
            (phone("+3532"), phone("+3539")): 1,
        }

    def test_peer_that_is_an_owner_ties_only_the_owners(self):
        _, edges = graph_of([message("Owner@X.com"), owner("owner@x.com"), owner("+3539")])
        assert edges == {(OWNER, phone("+3539")): 1}

    def test_equals_counting_every_pair_of_every_artifact(self):
        rng = random.Random(6)
        for index in range(300):
            records = random_comm_records(rng, index)
            left_out: list = []
            graph = graph_of(records, left_out)
            ids = {record_id for record_id, _ in left_out}
            assert graph == brute_force_identity_graph(records, ids), records

    @pytest.mark.parametrize("owners, peers", [(10, 40), (40, 160)])
    def test_work_is_linear_in_accounts_times_peers(self, owners, peers):
        # Each peer's edges to the owners are output; the owners' own
        # pairs are added once, not once per peer.
        records = [owner(f"o{i}@x.com") for i in range(owners)]
        records += [message(f"+{i}") for i in range(peers)]
        edges = owners * peers + owners * (owners - 1) // 2
        assert len(build_identity_graph(records)["edges"]) == edges
        assert lines_run(records) <= 10 * (len(records) + edges)

    def test_nodes_and_edges_sort_by_kind_then_value(self):
        graph = build_identity_graph(
            [contact("b@x.com", "+2", "a@x.com", "+1"), owner("c@x.com")]
        )
        pairs = [(node["kind"], node["value"]) for node in graph["nodes"]]
        assert pairs == sorted(pairs) == [
            ("Email", "a@x.com"), ("Email", "b@x.com"), ("Email", "c@x.com"),
            ("Phone", "+1"), ("Phone", "+2"),
        ]
        ends = [
            ((e["a"]["kind"], e["a"]["value"]), (e["b"]["kind"], e["b"]["value"]))
            for e in graph["edges"]
        ]
        assert ends == sorted(ends)
        assert all(a < b for a, b in ends)

    def test_duplicate_number_in_one_contact_no_self_edge(self):
        nodes, edges = graph_of([contact("+3531", "+353 1")])
        assert len(nodes) == 1
        assert edges == {}

    def test_order_independence(self):
        records = [
            contact("+1", "+2"), contact("+2", "+3"), contact("+1", "+3"),
            message("+1"), message("+2"), owner("o@x.com"),
        ]
        assert build_identity_graph(records) == build_identity_graph(reversed(records))

    def test_owners_are_nodes_without_any_artifact(self):
        owners = [owner("Owner@X.com"), owner(""), owner("---")]
        nodes, _ = graph_of(owners)
        assert nodes == {OWNER}
        left_out: list = []
        build_identity_graph(owners, left_out)
        assert left_out == [(o.record_id, NO_IDENTIFIER) for o in owners[1:]]

    def test_each_distinct_peer_is_normalized_once(self, monkeypatch):
        seen = []

        def counting(raw):
            seen.append(raw)
            return normalize_identifier(raw)

        monkeypatch.setattr(osint, "normalize_identifier", counting)
        records = [message("+3531"), call("+3531"), message(""), call(""), owner("owner@x.com")]
        left_out: list = []
        graph = build_identity_graph(records, left_out)
        assert sorted(seen) == ["", "+3531", "owner@x.com"]
        assert graph["edges"][0]["count"] == 2
        assert left_out == [(r.record_id, NO_IDENTIFIER) for r in records[2:4]]

    @pytest.mark.parametrize(
        "artifact, left_out_as",
        [
            (message("+3531"), None),
            (message("+3531", direction="OUTGOING"), None),
            (record("Message", peer="+3531"), None),
            (message("+3531", direction="Sideways"), DIRECTION),
            (message("+3531", direction=""), DIRECTION),
            (message("+3531", direction=" Incoming "), DIRECTION),
            (call("+3531"), None),
            (call("+3531", direction="incoming", duration_s=" 7 "), None),
            (call("+3531", duration_s="-3"), None),
            (call("+3531", duration_s="1.5"), "duration_s not an integer"),
            (call("+3531", duration_s="true"), "duration_s not an integer"),
            (call("+3531", duration_s=""), "duration_s not an integer"),
            (call("+3531", timestamp=None), "undated call"),
            (call("+3531", timestamp=None, duration_s="x"), "undated call"),
            (record("CallRecord", AT, peer="+3531"), DIRECTION),
            (call("+3531", direction="Sideways"), DIRECTION),
            (call("+3531", direction="Sideways", timestamp=None), DIRECTION),
            (message(""), NO_IDENTIFIER),
            (record("Message", direction="Incoming"), NO_IDENTIFIER),
            (call("---"), NO_IDENTIFIER),
            (call("---", timestamp=None), "undated call"),
            (message("---", direction="Sideways"), DIRECTION),
        ],
    )
    def test_which_messages_and_calls_count(self, artifact, left_out_as):
        left_out: list = []
        graph = build_identity_graph([artifact, owner("owner@x.com")], left_out)
        assert graph == build_identity_graph([artifact, owner("owner@x.com")])
        nodes, edges = graph_of([artifact, owner("owner@x.com")])
        counts = left_out_as is None
        assert edges == ({(OWNER, PEER): 1} if counts else {})
        assert nodes == ({OWNER, PEER} if counts else {OWNER})
        assert left_out == ([] if counts else [(artifact.record_id, left_out_as)])

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
        artifact = record("Contact", numbers=numbers)
        left_out: list = []
        graph = build_identity_graph([artifact], left_out)
        assert len(graph["nodes"]) == nodes
        listed = numbers in ('["+1","+2"]', "[]")
        assert left_out == (
            [] if listed else [(artifact.record_id, "numbers not a JSON list of strings")]
        )

    def test_other_categories_take_no_part(self):
        records = [
            record(category, AT, peer="+1", numbers='["+2","+3"]', address_or_number="+4")
            for _, category in CATEGORY_FILES
            if category not in (
                "Message",
                "CallRecord",
                "Contact",
                "ConfiguredEmail",
            )
        ]
        assert build_identity_graph(records) == {"nodes": [], "edges": []}

    def test_each_comm_record_left_out_is_named_with_its_reason(self):
        """Every malformed messages, calls and contacts shape: each record the
        graph leaves out is named once, with the first rule it breaks."""
        bundle = Path(__file__).parent / "data" / "comm_shapes" / "bundle"
        records = ingest_device_dump(bundle).records
        left_out: list = []
        graph = build_identity_graph(records, left_out)
        assert graph == build_identity_graph(records)
        duration, numbers = "duration_s not an integer", "numbers not a JSON list of strings"
        assert left_out == [
            *((f"m{n}", DIRECTION) for n in (4, 5, 6)),
            ("m8", NO_IDENTIFIER), ("m9", NO_IDENTIFIER),
            ("m12", DIRECTION), ("m13", DIRECTION),
            *((f"c{n}", duration) for n in (3, 4, 5, 6)),
            ("c8", "undated call"), ("c9", "undated call"),
            ("c10", DIRECTION), ("c11", DIRECTION),
            ("c15", NO_IDENTIFIER),
            ("c17", duration), ("c18", duration),
            *((f"k{n}", numbers) for n in (3, 4, 5, 9, 10, 13, 14, 15)),
            *((f"e{n}", NO_IDENTIFIER) for n in (3, 4, 5)),
        ]

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
        nodes, edges = graph_of(ingest_device_dump(bundle).records)
        phones = {n: phone(n) for n in ("+3531", "+3532", "+3533", "+3534")}
        assert nodes == {OWNER, *phones.values()}
        assert edges == {
            (OWNER, phones["+3531"]): 1,
            (OWNER, phones["+3532"]): 1,
            (OWNER, phones["+3533"]): 1,
            (phones["+3531"], phones["+3534"]): 1,
        }


# What load_geo_table says of a second row that overlaps or precedes the first.
UNSORTED = r"geo\.csv:2: ranges must be sorted and non-overlapping$"


def make_table(tmp_path, rows):
    path = tmp_path / "geo.csv"
    path.write_text("".join(f"{a},{b},{c},{d}\n" for a, b, c, d in rows), encoding="utf-8")
    return path


class TestGeoLookup:
    def test_containment(self, tmp_path):
        table = load_geo_table(make_table(tmp_path, [("10.0.0.0", "10.0.0.255", "IE", "Dublin")]))
        assert resolve_ip(" 10.0.0.7", table) == {
            "ip": "10.0.0.7", "country": "IE", "city": "Dublin", "source_table": "geo.csv"
        }

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
        with pytest.raises(ForensicsError, match=UNSORTED):
            load_geo_table(make_table(tmp_path, rows))

    def test_unsorted_rejected(self, tmp_path):
        rows = [("10.0.1.0", "10.0.1.255", "IE", "Dublin"), ("10.0.0.0", "10.0.0.255", "IE", "Cork")]
        with pytest.raises(ForensicsError, match=UNSORTED):
            load_geo_table(make_table(tmp_path, rows))

    def test_non_utf8_table_rejected(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_bytes(b"10.0.0.0,10.0.0.255,IE,Cork\n10.0.1.0,10.0.1.255,\xff\xfe,Cork\n")
        problem = r"geo\.csv: not UTF-8 text \(invalid start byte\)$"
        with pytest.raises(ForensicsError, match=problem):
            load_geo_table(path)

    def test_field_over_csv_limit_rejected(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "geo.csv"
        path.write_text(f"10.0.0.0,10.0.0.255,IE,{'x' * (limit + 1)}\n", encoding="utf-8")
        problem = rf"geo\.csv:1: field larger than field limit \({limit}\)$"
        with pytest.raises(ForensicsError, match=problem):
            load_geo_table(path)

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
                assert (got["country"], got["city"]) == expected

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
            assert (got["country"], got["city"]) == expected


def str_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@functools.lru_cache(maxsize=None)
def _small_table(rows):
    path = Path(tempfile.mkdtemp()) / "t.csv"
    path.write_text("".join(f"{str_ip(a)},{str_ip(b)},{c},{d}\n" for a, b, c, d in rows))
    return load_geo_table(path)
