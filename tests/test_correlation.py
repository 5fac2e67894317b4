from __future__ import annotations

import hashlib
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synctrail.acquisition import CloudEvent, EventKind, ingest_cloud_log, ingest_device_dump
from synctrail.correlation import (
    DEFAULT_MIN_SKEW_SUPPORT,
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    digest_index,
    estimate_clock_skew,
    match_synced_artifacts,
    zero_skew,
)
from synctrail.evidence import (
    ArtifactCategory,
    EvidenceRecord,
    UtcTimestamp,
    epoch_to_iso,
)
from synctrail.simulator import SimParams, generate_case

from _oracles import (
    brute_force_match,
    brute_force_transfer_groups,
    lower_median,
    reference_skew,
)

BASE = 1462752000  # inside the simulated week


def link_tuple(link: dict) -> tuple:
    """A links.json row as (record id, event id, tier, time delta)."""
    return (
        link["device_record_id"], link["cloud_event_id"], link["tier"], link["time_delta_seconds"]
    )


def ts(epoch: int) -> UtcTimestamp:
    return UtcTimestamp(epoch, epoch_to_iso(epoch))


def device_file(rid: str, epoch: int | None, digest: str | None = None,
                name: str | None = None, size: int | None = None) -> EvidenceRecord:
    attrs = {"_file": "messages.jsonl", "_line": "1"}
    if digest is not None:
        attrs["content_digest"] = digest
    if name is not None:
        attrs["object"] = name
    if size is not None:
        attrs["size_bytes"] = str(size)
    return EvidenceRecord(
        record_id=rid,
        category=ArtifactCategory.MESSAGE,
        timestamp=ts(epoch) if epoch is not None else None,
        attributes=attrs,
    )


def app(rid: str, status: str, name: str = "App", package: str | None = None) -> EvidenceRecord:
    """An installed-app inventory line."""
    attrs = {"_file": "installed_apps.jsonl", "_line": "1", "name": name, "status": status}
    if package is not None:
        attrs["package"] = package
    return EvidenceRecord(rid, ArtifactCategory.INSTALLED_APP, None, attrs)


def cloud(eid: str, epoch: int, kind: EventKind = EventKind.UPLOAD,
          digest: str | None = None, name: str = "", size: int | None = None,
          account: str = "a@x") -> CloudEvent:
    return CloudEvent(
        event_id=eid,
        kind=kind,
        timestamp=ts(epoch),
        account=account,
        package_or_object=name,
        content_digest=digest if digest else None,
        size_bytes=size,
    )


def digest_hex(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _tie_heavy_case(rng: random.Random):
    """A small case dense in what a time sweep can get wrong.

    Few digests and object names, so keys repeat, or a few more, so many
    keys hold one record and one event; a span of 0 puts every item at
    one timestamp; sizes may be missing on either side, or on none; some
    records are undated; ids are drawn independently of time order.
    """
    digests = [digest_hex(f"c{i}") for i in range(rng.randint(1, 6))]
    objects = ["a.bin", "b.bin", "c.bin", "d.bin"][: rng.randint(1, 4)]
    sizes = rng.choice(((None, 1, 2), (1, 2), (None, 1, 2, 1, 2, 1, 2)))
    span = rng.choice((0, 2, 10, 400))
    offset = rng.choice((0, 5, -7, 120))
    records = [
        device_file(
            f"r{rng.randrange(100):02d}-{i}",
            None if rng.random() < 0.15 else BASE + rng.randint(0, span),
            rng.choice(digests) if rng.random() < 0.5 else None,
            name=rng.choice(objects) if rng.random() < 0.8 else None,
            size=rng.choice(sizes),
        )
        for i in range(rng.randint(0, 8))
    ]
    events = [
        cloud(
            f"e{rng.randrange(100):02d}-{i}",
            BASE + offset + rng.randint(0, span),
            digest=rng.choice(digests) if rng.random() < 0.5 else None,
            name=rng.choice(objects + [""]),
            size=rng.choice(sizes),
        )
        for i in range(rng.randint(0, 8))
    ]
    return records, events, offset


_SKEW_DIGESTS = [digest_hex(f"skew{i}") for i in range(8)]

# Device content_digest values that name no content, each made from a digest.
NOT_A_DIGEST = {
    "padded": lambda d: f"\t{d} ",
    "non-hex": lambda d: "not-a-digest",
    "63-digits": lambda d: d[:63],
}

# Ways a device line may write a content digest: only the first two name it.
_FORMS = {"lower": str, "upper": str.upper, **NOT_A_DIGEST}


@st.composite
def skew_cases(draw):
    """Few records and events over a pool of eight digests.

    Digests repeat on either side; some items carry none; a device copy
    may be undated, or carry its digest in uppercase, padded, cut short
    or replaced by text that is not hex; an event of a content may be its upload or its download.
    """
    digest = st.sampled_from([None, *_SKEW_DIGESTS])
    record_rows = draw(st.lists(
        st.tuples(
            digest, st.one_of(st.none(), st.integers(0, 3600)), st.sampled_from(list(_FORMS))
        ),
        max_size=10,
    ))
    event_rows = draw(st.lists(
        st.tuples(digest, st.integers(-600, 4200),
                  st.sampled_from([EventKind.UPLOAD, EventKind.DOWNLOAD])),
        max_size=10,
    ))
    records = [
        device_file(f"r{i}", None if at is None else BASE + at, _FORMS[form](d) if d else d)
        for i, (d, at, form) in enumerate(record_rows)
    ]
    events = [
        cloud(f"e{i}", BASE + at, kind=kind, digest=d) for i, (d, at, kind) in enumerate(event_rows)
    ]
    return records, events


def test_every_device_digest_that_is_not_64_hex_digits_is_counted():
    d = digest_hex("count")
    records = [
        device_file("lower", BASE, d),
        device_file("upper", BASE, d.upper()),
        device_file("none", BASE),
        device_file("empty", BASE, ""),
        *(device_file(name, None, form(d)) for name, form in NOT_A_DIGEST.items()),
    ]
    assert digest_index(records, ())[1] == 1 + len(NOT_A_DIGEST)
    assert digest_index(records[:3], ())[1] == 0


def skew_of(records, events, min_support=DEFAULT_MIN_SKEW_SUPPORT):
    """``estimate_clock_skew`` over the digest index of ``records`` and ``events``."""
    return estimate_clock_skew(digest_index(records, events), min_support)


class TestEstimateClockSkew:
    def test_identical_clocks(self):
        records = [device_file(f"r{i}", BASE + i, digest_hex(f"d{i}")) for i in range(5)]
        events = [cloud(f"e{i}", BASE + i, digest=digest_hex(f"d{i}")) for i in range(5)]
        skew, short = skew_of(records, events, min_support=3)
        assert short is None
        assert skew["offset_seconds"] == 0
        assert skew["spread_seconds"] == 0
        assert skew["support_count"] == 5
        assert not skew["fallback"]

    def test_median_of_three_deltas(self):
        deltas = [118, 120, 125]
        records = [device_file(f"r{i}", BASE + 10 * i, digest_hex(f"d{i}")) for i in range(3)]
        events = [
            cloud(f"e{i}", BASE + 10 * i + deltas[i], digest=digest_hex(f"d{i}"))
            for i in range(3)
        ]
        skew, short = skew_of(records, events, min_support=3)
        assert short is None
        assert skew["offset_seconds"] == lower_median(deltas) == 120
        assert skew["spread_seconds"] == 125 - 118

    def test_even_count_takes_lower_median(self):
        deltas = [100, 200]
        records = [device_file(f"r{i}", BASE, digest_hex(f"d{i}")) for i in range(2)]
        events = [cloud(f"e{i}", BASE + deltas[i], digest=digest_hex(f"d{i}")) for i in range(2)]
        skew, short = skew_of(records, events, min_support=2)
        assert short is None
        assert skew["offset_seconds"] == 100

    def test_insufficient_support(self):
        records = [device_file("r0", BASE, digest_hex("d0"))]
        events = [cloud("e0", BASE, digest=digest_hex("d0"))]
        assert skew_of(records, events, min_support=3) == (
            zero_skew(), "1 one-to-one digest pairs, need at least 3"
        )
        assert zero_skew()["fallback"]

    @pytest.mark.parametrize("min_support", [0, -1])
    def test_no_pairs_is_insufficient_whatever_the_minimum(self, min_support):
        records = [device_file("r0", BASE, name="x.jpg")]
        events = [cloud("e0", BASE, name="x.jpg")]
        assert skew_of(records, events, min_support=min_support) == (
            zero_skew(), "0 one-to-one digest pairs, need at least 1"
        )

    def test_falls_back_below_the_minimum_and_estimates_at_it(self):
        pairs = DEFAULT_MIN_SKEW_SUPPORT
        records = [device_file(f"r{i}", BASE + i, digest_hex(f"d{i}")) for i in range(pairs)]
        events = [cloud(f"e{i}", BASE + 60 + i, digest=digest_hex(f"d{i}")) for i in range(pairs)]
        for count in (0, pairs - 1):
            assert skew_of(records[:count], events[:count]) == (
                zero_skew(), f"{count} one-to-one digest pairs, need at least {pairs}"
            )
        payload = {
            "offset_seconds": 60, "support_count": pairs, "spread_seconds": 0, "fallback": False
        }
        assert skew_of(records, events) == (payload, None)

    def test_repeated_content_gives_no_support(self):
        # Three one-to-one pairs carry the truth. One content was saved k
        # times an hour apart on the device and uploaded in one burst
        # after the last copy, so its k*k cross product is skewed late.
        true_skew, k = 300, 5
        records, events = [], []
        for i in range(3):
            d = digest_hex(f"unique{i}")
            records.append(device_file(f"u{i}", BASE + 10_000 * i, d))
            events.append(cloud(f"ue{i}", BASE + 10_000 * i + true_skew + i, digest=d))
        shared = digest_hex("shared")
        first_copy = BASE + 100_000
        for i in range(k):
            records.append(device_file(f"s{i}", first_copy + 3600 * i, shared))
            events.append(
                cloud(f"se{i}", first_copy + 3600 * (k - 1) + true_skew + i, digest=shared)
            )
        cross_product = [
            e.timestamp.seconds_since_epoch - r.timestamp.seconds_since_epoch
            for r in records
            for e in events
            if e.content_digest == r.attributes["content_digest"]
        ]
        assert lower_median(cross_product) - true_skew >= 3600

        skew, short = skew_of(records, events, min_support=3)
        assert short is None
        assert true_skew <= skew["offset_seconds"] <= true_skew + 2
        assert skew["support_count"] == 3
        assert skew["spread_seconds"] == 2

    def test_only_repeated_content_is_insufficient(self):
        d = digest_hex("again")
        records = [device_file(f"r{i}", BASE + i, d) for i in range(4)]
        events = [cloud(f"e{i}", BASE + i, digest=d) for i in range(4)]
        assert skew_of(records, events, min_support=1) == (
            zero_skew(), "0 one-to-one digest pairs, need at least 1"
        )

    def test_upload_then_download_of_one_content_is_not_counted(self):
        # Any two events make a digest repeat, whatever their kinds: the
        # download leaves the upload's pair out of the support.
        d = digest_hex("round trip")
        records = [device_file("r0", BASE, d)]
        events = [cloud("e0", BASE + 300, digest=d),
                  cloud("e1", BASE + 900, kind=EventKind.DOWNLOAD, digest=d)]
        for i in range(2):
            u = digest_hex(f"once{i}")
            records.append(device_file(f"u{i}", BASE + 5000 * (i + 1), u))
            events.append(cloud(f"ue{i}", BASE + 5000 * (i + 1) + 301, digest=u))
        skew, short = skew_of(records, events, min_support=1)
        assert short is None
        assert (skew["offset_seconds"], skew["support_count"]) == (301, 2)

    @pytest.mark.parametrize("copy_epoch", [None, BASE + 30])
    def test_second_device_copy_makes_a_digest_ambiguous(self, copy_epoch):
        d = digest_hex("copy")
        records = [device_file("r0", BASE, d), device_file("r1", copy_epoch, d)]
        events = [cloud("e0", BASE + 60, digest=d)]
        assert skew_of(records, events, min_support=1) == (
            zero_skew(), "0 one-to-one digest pairs, need at least 1"
        )

    @pytest.mark.parametrize("form", NOT_A_DIGEST.values(), ids=NOT_A_DIGEST)
    def test_a_device_value_that_is_not_64_hex_digits_gives_no_support(self, form):
        d = digest_hex("pair")
        records = [device_file("r0", BASE, form(d))]
        events = [cloud("e0", BASE + 60, digest=d)]
        assert skew_of(records, events, min_support=1) == (
            zero_skew(), "0 one-to-one digest pairs, need at least 1"
        )

    def test_an_uppercase_device_digest_gives_support(self):
        d = digest_hex("pair")
        records = [device_file("r0", BASE, d.upper())]
        events = [cloud("e0", BASE + 60, digest=d)]
        skew, short = skew_of(records, events, min_support=1)
        assert short is None
        assert (skew["offset_seconds"], skew["support_count"]) == (60, 1)

    @given(case=skew_cases(), min_support=st.integers(-1, 3))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_counting_the_items_of_each_digest(self, case, min_support):
        records, events = case
        assert skew_of(records, events, min_support) == reference_skew(records, events, min_support)

    @pytest.mark.parametrize("true_skew", [-300, 300])
    def test_simulator_skew_recovered_within_jitter(self, tmp_path, true_skew):
        case = generate_case(
            SimParams(seed=400 + true_skew, n_uploads=8, skew_seconds=true_skew, sync_lag_max_s=2),
            tmp_path / str(true_skew),
        )
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        assert true_skew - 2 <= skew["offset_seconds"] <= true_skew + 2


class TestMatchSyncedArtifacts:
    def test_disjoint_inputs_give_no_links(self):
        records = [device_file("r0", BASE, digest_hex("a"), name="x.jpg")]
        events = [cloud("e0", BASE, digest=digest_hex("b"), name="y.jpg")]
        assert match_synced_artifacts(records, events, zero_skew()) == []

    def test_singleton_exact_digest(self):
        d = digest_hex("photo")
        records = [device_file("r0", BASE, d)]
        events = [cloud("e0", BASE + 1, digest=d)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert len(links) == 1
        assert links[0]["tier"] == "ExactDigest"
        assert links[0]["time_delta_seconds"] == 1

    def test_each_side_used_at_most_once(self):
        d = digest_hex("same")
        records = [device_file("r0", BASE, d), device_file("r1", BASE + 5, d)]
        events = [cloud("e0", BASE + 1, digest=d)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert len(links) == 1
        assert links[0]["device_record_id"] == "r0"  # smallest corrected delta wins

    @pytest.mark.parametrize("form", NOT_A_DIGEST.values(), ids=NOT_A_DIGEST)
    def test_a_device_value_that_is_not_64_hex_digits_is_no_exact_candidate(self, form):
        d = digest_hex("photo")
        records = [device_file("r0", BASE, form(d))]
        events = [cloud("e0", BASE + 1, digest=d)]
        assert match_synced_artifacts(records, events, zero_skew()) == []

    def test_an_uppercase_device_digest_links_exactly(self):
        d = digest_hex("photo")
        records = [device_file("r0", BASE, d.upper())]
        events = [cloud("e0", BASE + 1, digest=d)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert [link_tuple(link) for link in links] == [("r0", "e0", "ExactDigest", 1)]

    def test_metadata_window_respects_size_and_window(self):
        records = [device_file("r0", BASE, name="IMG.jpg", size=100)]
        same = [cloud("e0", BASE + 10, name="IMG.jpg", size=100)]
        other_size = [cloud("e1", BASE + 10, name="IMG.jpg", size=999)]
        far = [cloud("e2", BASE + 301, name="IMG.jpg", size=100)]
        assert match_synced_artifacts(records, same, zero_skew())[0]["tier"] == "MetadataWindow"
        assert match_synced_artifacts(records, other_size, zero_skew()) == []
        assert match_synced_artifacts(records, far, zero_skew(), window_seconds=300) == []

    @pytest.mark.parametrize(
        "size", ["12kb", "1.5", "", "twelve", " 12 ", "+12", "1_000", "12.0", "0x10"]
    )
    def test_a_size_that_is_not_an_integer_is_matched_as_no_size(self, size, tmp_path):
        unsized = device_file("r0", BASE, name="IMG.jpg")
        badly_sized = EvidenceRecord(
            record_id="r0",
            category=ArtifactCategory.MESSAGE,
            timestamp=ts(BASE),
            attributes={**unsized.attributes, "size_bytes": size},
        )
        events = [cloud("e0", BASE + 10, name="IMG.jpg", size=100),
                  cloud("e1", BASE + 20, name="IMG.jpg")]
        # The same text as a cloud size: read as an integer, or ledgered.
        log = tmp_path / "log.jsonl"
        line = {"id": "c", "kind": "Upload", "ts": "2016-05-10T10:00:00Z", "size": size}
        log.write_text(json.dumps(line) + "\n")
        ledger: list[dict] = []
        cloud_sizes = [event.size_bytes for event in ingest_cloud_log(log, ledger)]
        if ledger:
            assert cloud_sizes == []
            as_read = unsized
            expected = [("r0", "e0", "MetadataWindow", 10)]
        else:
            (value,) = cloud_sizes
            as_read = device_file("r0", BASE, name="IMG.jpg", size=value)
            events.append(cloud("e2", BASE + 15, name="IMG.jpg", size=value))
            expected = [("r0", "e2", "MetadataWindow", 15)]
        links = [link_tuple(l) for l in match_synced_artifacts([badly_sized], events, zero_skew())]
        assert links == expected
        assert links == [
            link_tuple(l) for l in match_synced_artifacts([as_read], events, zero_skew())
        ]

    def test_undated_record_still_links_by_digest(self):
        d = digest_hex("undated")
        records = [device_file("r0", None, d)]
        events = [cloud("e0", BASE, digest=d)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert links[0]["tier"] == "ExactDigest"
        assert links[0]["time_delta_seconds"] is None

    def test_matches_brute_force_on_dense_grid(self):
        # 20 records x 20 events with colliding names and a few shared digests.
        records = []
        events = []
        for i in range(20):
            shared = digest_hex(f"s{i % 6}")
            records.append(
                device_file(f"r{i:02d}", BASE + 7 * i, shared if i % 2 == 0 else None,
                            name=f"obj{i % 4}.bin", size=10 + i % 3)
            )
            events.append(
                cloud(f"e{i:02d}", BASE + 7 * i + (i % 5), kind=EventKind.UPLOAD,
                      digest=shared if i % 3 == 0 else None,
                      name=f"obj{i % 4}.bin", size=10 + i % 3)
            )
        skew = zero_skew()
        mine = [
            link_tuple(l)
            for l in match_synced_artifacts(records, events, skew, window_seconds=300)
        ]
        oracle = brute_force_match(records, events, skew["offset_seconds"], 300)
        assert mine == oracle

    def test_matches_brute_force_on_seeded_tie_heavy_cases(self):
        rng = random.Random(20_161_109)
        for index in range(3000):
            records, events, offset = _tie_heavy_case(rng)
            window = (0, 3, 300)[index % 3]
            skew = {
                "offset_seconds": offset, "support_count": 0, "spread_seconds": 0, "fallback": False,
            }
            mine = [
                link_tuple(l)
                for l in match_synced_artifacts(records, events, skew, window_seconds=window)
            ]
            assert mine == brute_force_match(records, events, offset, window), f"case {index}"

    def test_undated_records_take_leftover_events_in_id_order(self):
        d = digest_hex("undated-many")
        records = [device_file("r2", None, d), device_file("r1", None, d),
                   device_file("r3", BASE, d)]
        events = [cloud(f"e{i}", BASE + 50 * i, digest=d) for i in (3, 1, 2, 0)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert [
            (l["device_record_id"], l["cloud_event_id"], l["time_delta_seconds"]) for l in links
        ] == [
            ("r1", "e1", None),
            ("r2", "e2", None),
            ("r3", "e0", 0),
        ]

    def test_shared_digest_and_object_match_in_bounded_time(self):
        # At n = 2,000 the old cross products took tens of seconds; the
        # bound is loose so the test never flakes on a slow machine.
        n = 2000
        d = digest_hex("one content")
        records, events = [], []
        for i in range(n):
            records.append(device_file(f"d{i:05d}", BASE + 7 * i, d, name="same.bin", size=5))
            events.append(cloud(f"x{i:05d}", BASE + 7 * i + 1, digest=d, name="same.bin", size=5))
            # Every one of these is within the window of about 600 others.
            records.append(device_file(f"o{i:05d}", BASE + 100_000 + i, name="same.bin", size=5))
            events.append(cloud(f"y{i:05d}", BASE + 100_000 + i, name="same.bin", size=5))
        started = time.perf_counter()
        links = match_synced_artifacts(records, events, zero_skew())
        assert time.perf_counter() - started < 5.0
        assert [link_tuple(l)[:3] for l in links] == [
            (f"d{i:05d}", f"x{i:05d}", "ExactDigest") for i in range(n)
        ] + [(f"o{i:05d}", f"y{i:05d}", "MetadataWindow") for i in range(n)]

    def test_no_record_or_event_in_two_links(self):
        d = digest_hex("x")
        records = [device_file(f"r{i}", BASE + i, d, name="n.bin") for i in range(4)]
        events = [cloud(f"e{i}", BASE + i, digest=d, name="n.bin") for i in range(4)]
        links = match_synced_artifacts(records, events, zero_skew())
        seen_r = [l["device_record_id"] for l in links]
        seen_e = [l["cloud_event_id"] for l in links]
        assert len(seen_r) == len(set(seen_r))
        assert len(seen_e) == len(set(seen_e))

    def test_skew_invariance_of_link_set(self, tmp_path):
        case = generate_case(SimParams(seed=77, n_uploads=9, skew_seconds=120), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        baseline = match_synced_artifacts(dump.records, events, skew)

        shift = 5000
        shifted_events = [
            CloudEvent(
                event_id=e.event_id,
                kind=e.kind,
                timestamp=ts(e.timestamp.seconds_since_epoch + shift),
                account=e.account,
                package_or_object=e.package_or_object,
                content_digest=e.content_digest,
                size_bytes=e.size_bytes,
            )
            for e in events
        ]
        shifted_skew, short = skew_of(dump.records, shifted_events)
        assert short is None
        assert shifted_skew["offset_seconds"] == skew["offset_seconds"] + shift
        shifted = match_synced_artifacts(dump.records, shifted_events, shifted_skew)
        assert [link_tuple(l)[:3] for l in shifted] == [link_tuple(l)[:3] for l in baseline]


class TestBuildTimeline:
    def test_empty(self):
        timeline = build_timeline([], [], zero_skew())
        assert timeline == {"entries": [], "excluded_undated": 0}

    def test_tie_rule_device_before_cloud(self):
        offset = 300
        records = [device_file("r0", BASE)]
        events = [cloud("e0", BASE + offset, kind=EventKind.LOGIN)]
        skew = {
            "offset_seconds": offset, "support_count": 5, "spread_seconds": 0, "fallback": False,
        }
        timeline = build_timeline(records, events, skew)
        assert [e["id"] for e in timeline["entries"]] == ["r0", "e0"]
        assert [e["timestamp_utc"] for e in timeline["entries"]] == [epoch_to_iso(BASE)] * 2

    def test_id_breaks_remaining_ties(self):
        records = [device_file("rb", BASE), device_file("ra", BASE)]
        timeline = build_timeline(records, [], zero_skew())
        assert [e["id"] for e in timeline["entries"]] == ["ra", "rb"]

    def test_cloud_time_shifted_out_of_range_is_left_off(self):
        skew = {"offset_seconds": 200, "support_count": 3, "spread_seconds": 0, "fallback": False}
        out_of_range: list[str] = []
        shifted = build_timeline([], [cloud("e0", 200, kind=EventKind.LOGIN)], skew, out_of_range)
        assert shifted["entries"][0]["timestamp_utc"] == "1970-01-01T00:00:00Z"
        assert out_of_range == []
        events = [cloud("e0", 199, kind=EventKind.LOGIN), cloud("e1", 201, kind=EventKind.LOGIN)]
        shifted = build_timeline([device_file("r0", 5)], events, skew, out_of_range)
        assert [e["id"] for e in shifted["entries"]] == ["e1", "r0"]
        assert out_of_range == ["e0"]
        # Past 2100 too, and without a list to name it in.
        late = {**skew, "offset_seconds": -200}
        events = [cloud("e2", 4133980600, kind=EventKind.LOGIN)]
        assert build_timeline([], events, late) == {"entries": [], "excluded_undated": 0}

    def test_total_order_oracle(self, tmp_path):
        case = generate_case(SimParams(seed=88, skew_seconds=60), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        timeline = build_timeline(dump.records, events, skew)

        # ISO-Z text of one format sorts as its instant does.
        keys = [
            (e["timestamp_utc"], 0 if e["source"] == "Device" else 1, e["id"])
            for e in timeline["entries"]
        ]
        assert keys == sorted(keys)
        dated_records = sum(1 for r in dump.records if r.timestamp is not None)
        assert len(timeline["entries"]) == dated_records + len(events)
        assert timeline["excluded_undated"] == len(dump.records) - dated_records

    def test_rebuild_is_deterministic(self, tmp_path):
        case = generate_case(SimParams(seed=89), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        assert build_timeline(dump.records, events, skew) == build_timeline(
            dump.records, events, skew
        )


class TestUninstallEvidence:
    def test_device_and_cloud_agree_high_confidence(self, golden_bundle, golden_cloud_log):
        dump = ingest_device_dump(golden_bundle)
        events = ingest_cloud_log(golden_cloud_log)
        findings = detect_uninstall_evidence(dump.records, events)
        assert len(findings) == 1
        finding = findings[0]
        assert finding["kind"] == "AppUsedThenUninstalled"
        assert finding["confidence"] == "High"
        assert "com.example.ccs.osfunctionenable" in finding["narrative"]
        assert "app-0007" in finding["supporting_ids"]
        assert {"e1", "e2"} <= set(finding["supporting_ids"])
        assert "finding_id" not in finding

    def test_no_evidence_no_findings(self):
        assert detect_uninstall_evidence([app("a1", "All", name="Fine")], []) == []

    def test_orphan_cloud_install_is_medium(self):
        events = [cloud("e0", BASE, kind=EventKind.INSTALL, name="com.example.gone")]
        findings = detect_uninstall_evidence([], events)
        assert len(findings) == 1
        assert findings[0]["confidence"] == "Medium"
        assert findings[0]["supporting_ids"] == ["e0"]

    def test_device_uninstall_without_cloud_events_is_silent(self):
        apps = [app("a1", "Uninstalled", name="Gone", package="com.example.gone")]
        assert detect_uninstall_evidence(apps, []) == []

    @pytest.mark.parametrize("package", [None, ""])
    def test_a_line_without_a_package_is_keyed_by_its_name(self, package):
        apps = [app("a1", "uninstalled", name="com.example.gone", package=package)]
        events = [cloud("e0", BASE, kind=EventKind.LOGIN, name="com.example.gone")]
        findings = detect_uninstall_evidence(apps, events)
        assert [f["supporting_ids"] for f in findings] == [["a1", "e0"]]
        assert findings[0]["confidence"] == "Medium"

    def test_the_last_uninstalled_line_supplies_the_record_id(self):
        apps = [
            app("a1", "Uninstalled", package="com.example.gone"),
            app("a2", "UNINSTALLED", package="com.example.gone"),
            app("a3", "All", package="com.example.gone"),
        ]
        events = [cloud("e0", BASE, kind=EventKind.UNINSTALL, name="com.example.gone")]
        findings = detect_uninstall_evidence(apps, events)
        assert [f["supporting_ids"] for f in findings] == [["a2", "e0"]]
        assert findings[0]["confidence"] == "High"

    def test_lines_the_inventory_skips_leave_no_trace(self):
        """Nor does a record of another category that has an app's attributes."""
        records = [
            app("a1", "Sideloaded", package="com.example.gone"),
            app("a2", "Uninstalled", name="", package="com.example.gone"),
            EvidenceRecord("m1", ArtifactCategory.MESSAGE, None,
                           {"name": "X", "package": "com.example.gone", "status": "Uninstalled"}),
        ]
        events = [cloud("e0", BASE, kind=EventKind.INSTALL, name="com.example.gone")]
        findings = detect_uninstall_evidence(records, events)
        assert [f["supporting_ids"] for f in findings] == [["e0"]]
        assert "the device has no trace of it" in findings[0]["narrative"]


def transfer_links(links: list[dict], finding: dict) -> list[dict]:
    """The links that a proven-transfer finding's key selects."""
    kind = {"ProvenUpload": "Upload", "ProvenDownload": "Download"}[finding["kind"]]
    return [
        link for link in links
        if (link["account"], link["kind"], link["tier"]) == (finding["account"], kind,
                                                            finding["tier"])
    ]


def assert_transfers_match_oracle(links, events, skew, findings) -> None:
    """Every Upload/Download link is counted in exactly one proven finding,
    whose count, first link and times equal the brute-force grouping."""
    proven = [f for f in findings if f["kind"] in ("ProvenUpload", "ProvenDownload")]
    kinds = {"ProvenUpload": "Upload", "ProvenDownload": "Download"}
    got = {
        (f["account"], kinds[f["kind"]], f["tier"]):
            (f["link_count"], tuple(f["supporting_ids"]), f["first_utc"], f["last_utc"])
        for f in proven
    }
    assert len(got) == len(proven)
    assert got == brute_force_transfer_groups(links, events, skew["offset_seconds"])
    transfers = [link for link in links if link["kind"] in ("Upload", "Download")]
    selected = [link for f in proven for link in transfer_links(links, f)]
    assert sorted(map(link_tuple, selected)) == sorted(map(link_tuple, transfers))
    for f in proven:
        assert f["confidence"] == ("High" if f["tier"] == "ExactDigest" else "Medium")
        assert f["link_count"] == len(transfer_links(links, f))


class TestDeriveFindings:
    def test_exact_upload_link_becomes_high_proven_upload(self):
        d = digest_hex("img")
        records = [device_file("r0", BASE, d)]
        events = [cloud("e0", BASE + 1, kind=EventKind.UPLOAD, digest=d)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert [(link["account"], link["kind"]) for link in links] == [("a@x", "Upload")]
        findings = derive_cloud_usage_findings(links, [], events, zero_skew())
        assert findings == [{
            "finding_id": "F001",
            "kind": "ProvenUpload",
            "confidence": "High",
            "supporting_ids": ["r0", "e0"],
            "narrative": "1 device artifact(s) are the same object(s) as Upload cloud event(s) "
                         "of account a@x, each established by an exact content digest match; "
                         f"corrected cloud times {epoch_to_iso(BASE + 1)} to "
                         f"{epoch_to_iso(BASE + 1)}.",
            "account": "a@x",
            "tier": "ExactDigest",
            "link_count": 1,
            "first_utc": epoch_to_iso(BASE + 1),
            "last_utc": epoch_to_iso(BASE + 1),
        }]

    def test_download_and_metadata_confidence(self):
        records = [device_file("r0", BASE, name="doc.pdf", size=5)]
        events = [cloud("e0", BASE + 2, kind=EventKind.DOWNLOAD, name="doc.pdf", size=5)]
        links = match_synced_artifacts(records, events, zero_skew())
        findings = derive_cloud_usage_findings(links, [], events, zero_skew())
        assert findings[0]["kind"] == "ProvenDownload"
        assert findings[0]["confidence"] == "Medium"
        assert findings[0]["tier"] == "MetadataWindow"

    def test_a_window_link_to_a_sync_event_gives_no_finding(self):
        records = [device_file("r0", BASE, name="doc.pdf", size=5)]
        events = [cloud("e0", BASE + 2, kind=EventKind.SYNC, name="doc.pdf", size=5)]
        links = match_synced_artifacts(records, events, zero_skew())
        assert [link_tuple(l) for l in links] == [("r0", "e0", "MetadataWindow", 2)]
        assert links[0]["kind"] == "Sync"
        assert derive_cloud_usage_findings(links, [], events, zero_skew()) == []

    def test_empty_case_keeps_only_uninstall_findings(self):
        uninstall = detect_uninstall_evidence(
            [], [cloud("e0", BASE, kind=EventKind.INSTALL, name="com.example.gone")]
        )
        findings = derive_cloud_usage_findings([], uninstall, [], zero_skew())
        assert [f["kind"] for f in findings] == ["AppUsedThenUninstalled"]

    def test_account_activity_per_login_account(self):
        events = [
            cloud("e0", BASE, kind=EventKind.LOGIN, account="b@x"),
            cloud("e1", BASE + 5, kind=EventKind.LOGIN, account="a@x"),
            cloud("e2", BASE + 9, kind=EventKind.LOGIN, account="a@x"),
        ]
        findings = derive_cloud_usage_findings([], [], events, zero_skew())
        assert [f["kind"] for f in findings] == ["AccountActivity"] * 2
        # Final order is (kind, first supporting id): e0 before e1.
        assert findings[0]["supporting_ids"] == ["e0"]
        assert "b@x" in findings[0]["narrative"]
        assert findings[1]["supporting_ids"] == ["e1", "e2"]
        assert "a@x" in findings[1]["narrative"]
        assert [f["finding_id"] for f in findings] == ["F001", "F002"]

    def test_findings_select_the_ground_truth_links(self, tmp_path):
        case = generate_case(SimParams(seed=90, n_uploads=7, skew_seconds=200), tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        links = match_synced_artifacts(dump.records, events, skew)
        uninstall = detect_uninstall_evidence(dump.records, events)
        findings = derive_cloud_usage_findings(links, uninstall, events, skew)

        proven = [f for f in findings if f["kind"] in ("ProvenUpload", "ProvenDownload")]
        selected = {
            (link["device_record_id"], link["cloud_event_id"])
            for f in proven
            for link in transfer_links(links, f)
        }
        assert selected == set(case.ground_truth.true_links)
        assert sum(f["link_count"] for f in proven) == len(case.ground_truth.true_links)

    @pytest.mark.parametrize("digest_logging", [True, False])
    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_grouping_matches_brute_force_oracle(self, tmp_path, seed, digest_logging):
        params = SimParams(seed=seed, n_uploads=40, skew_seconds=150,
                           digest_logging=digest_logging)
        case = generate_case(params, tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, _ = skew_of(dump.records, events)
        links = match_synced_artifacts(dump.records, events, skew)
        findings = derive_cloud_usage_findings(links, [], events, skew)
        tiers = {link["tier"] for link in links}
        assert tiers == ({"ExactDigest"} if digest_logging else {"MetadataWindow"})
        assert_transfers_match_oracle(links, events, skew, findings)

    def test_downloads_two_accounts_and_out_of_range_times(self):
        """Both kinds, both tiers, two accounts and an account-less event;
        the skew moves one group's every time, and one time of another
        group, before 1970."""
        d = [digest_hex(f"x{i}") for i in range(7)]
        early = 100
        records = [
            device_file("r0", BASE, d[0]),
            device_file("r1", BASE + 50, d[1]),
            device_file("r2", BASE + 10, d[2]),
            device_file("r3", BASE + 20, name="n.txt", size=3),
            device_file("r4", BASE + 30, name="m.txt"),
            device_file("r5", None, d[3]),
            device_file("r6", early, d[4]),
            device_file("r7", BASE + 40, d[5]),
            device_file("r8", early + 5, name="q.txt"),
            device_file("r9", early, d[6]),
        ]
        events = [
            cloud("e0", BASE + 200, digest=d[0], account="a@x"),
            cloud("e1", BASE + 260, digest=d[1], account="a@x"),
            cloud("e2", BASE + 205, kind=EventKind.DOWNLOAD, digest=d[2], account="b@x"),
            cloud("e3", BASE + 230, kind=EventKind.DOWNLOAD, name="n.txt", size=3,
                  account="b@x"),
            cloud("e4", BASE + 240, name="m.txt", account="b@x"),
            cloud("e5", BASE + 300, digest=d[3], account="a@x"),
            cloud("e6", early + 50, kind=EventKind.DOWNLOAD, digest=d[4], account=None),
            cloud("e7", BASE + 250, digest=d[5], account="b@x"),
            cloud("e8", early + 210, name="q.txt", account="a@x"),
            cloud("e9", BASE, kind=EventKind.LOGIN, account="a@x"),
            cloud("e10", early + 20, digest=d[6], account="a@x"),
        ]
        skew = {"offset_seconds": 200, "support_count": 3, "spread_seconds": 0, "fallback": False}
        links = match_synced_artifacts(records, events, skew)
        findings = derive_cloud_usage_findings(links, [], events, skew)
        assert_transfers_match_oracle(links, events, skew, findings)
        groups = {
            (f["kind"], f["account"], f["tier"]): (f["link_count"], f["first_utc"], f["last_utc"])
            for f in findings if f["kind"] != "AccountActivity"
        }
        assert groups == {
            ("ProvenUpload", "a@x", "ExactDigest"):
                (4, epoch_to_iso(BASE), epoch_to_iso(BASE + 100)),
            ("ProvenUpload", "b@x", "ExactDigest"):
                (1, epoch_to_iso(BASE + 50), epoch_to_iso(BASE + 50)),
            ("ProvenDownload", "b@x", "ExactDigest"):
                (1, epoch_to_iso(BASE + 5), epoch_to_iso(BASE + 5)),
            ("ProvenDownload", "b@x", "MetadataWindow"):
                (1, epoch_to_iso(BASE + 30), epoch_to_iso(BASE + 30)),
            ("ProvenUpload", "b@x", "MetadataWindow"):
                (1, epoch_to_iso(BASE + 40), epoch_to_iso(BASE + 40)),
            ("ProvenDownload", None, "ExactDigest"): (1, None, None),
            ("ProvenUpload", "a@x", "MetadataWindow"):
                (1, epoch_to_iso(early + 10), epoch_to_iso(early + 10)),
        }
        none = next(f for f in findings if f["account"] is None)
        assert "of no account" in none["narrative"]
        assert "no corrected cloud time in 1970-2100" in none["narrative"]

    def test_order_is_kind_then_first_supporting_id(self):
        d = digest_hex("z")
        records = [device_file("r0", BASE, d)]
        events = [
            cloud("e0", BASE + 1, kind=EventKind.UPLOAD, digest=d),
            cloud("e1", BASE + 2, kind=EventKind.LOGIN, account="a@x"),
            cloud("e2", BASE + 3, kind=EventKind.INSTALL, name="com.example.gone"),
        ]
        links = match_synced_artifacts(records, events, zero_skew())
        uninstall = detect_uninstall_evidence([], events)
        findings = derive_cloud_usage_findings(links, uninstall, events, zero_skew())
        assert [f["kind"] for f in findings] == [
            "ProvenUpload",
            "AppUsedThenUninstalled",
            "AccountActivity",
        ]
        assert [f["finding_id"] for f in findings] == ["F001", "F002", "F003"]

    def test_each_finding_is_built_once(self, tmp_path):
        """tracemalloc's peak over the call, on a case of the benchmark's
        sync-bulk size, above what is still held when it returns, stays
        under 0.15x of what the links it groups hold: the call builds
        nothing per link, where one finding per link held about as much
        as the links."""
        params = SimParams(seed=1, n_uploads=2000, n_messages=800, n_calls=200, n_apps=200,
                           skew_seconds=300)
        case = generate_case(params, tmp_path)
        dump = ingest_device_dump(case.bundle_dir)
        events = ingest_cloud_log(case.cloud_log)
        skew, short = skew_of(dump.records, events)
        assert short is None
        uninstall = detect_uninstall_evidence(dump.records, events)
        tracemalloc.start()
        try:
            links = match_synced_artifacts(dump.records, events, skew)
            links_size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            findings = derive_cloud_usage_findings(links, uninstall, events, skew)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(links) == 2000
        assert sum(f.get("link_count", 0) for f in findings) == 2000
        assert len(findings) == len(uninstall) + 2
        assert peak - held < 0.15 * links_size
        assert held - before < 0.15 * links_size
