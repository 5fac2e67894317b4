"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and time budget and prints one
PASS/FAIL line (run pytest with -s to watch them). Oracles are the
independent implementations in _oracles plus the simulator's ground
truth, never the code path under test.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from contextlib import contextmanager

from synctrail.acquisition import ingest_cloud_log, ingest_device_dump, parse_app_inventory
from synctrail.cli import run
from synctrail.correlation import (
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    digest_index,
    estimate_clock_skew,
    match_synced_artifacts,
    zero_skew,
)
from synctrail.evidence import EvidenceRecord
from synctrail.osint import load_geo_table, resolve_ip
from synctrail.preservation import (
    load_sealed_manifest,
    seal_dump,
    verify_chain,
    write_sealed_manifest,
)
from synctrail.simulator import SimParams, generate_case, inject_tamper

from _oracles import brute_force_match, linear_scan_geo

_SAFE = "abcdefghijklmnopqrstuvwxyz0123456789"


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.2f}s)"
    )
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit_seconds:g}s): {description}")


def mutate_attribute(record: EvidenceRecord, rng: random.Random) -> EvidenceRecord:
    """Return a copy of the record with one attribute character flipped."""
    keys = sorted(k for k, v in record.attributes.items() if v)
    key = rng.choice(keys)
    value = record.attributes[key]
    pos = rng.randrange(len(value))
    replacement = rng.choice([c for c in _SAFE if c != value[pos]])
    attrs = dict(record.attributes)
    attrs[key] = value[:pos] + replacement + value[pos + 1 :]
    return EvidenceRecord(
        record_id=record.record_id,
        category=record.category,
        timestamp=record.timestamp,
        attributes=attrs,
    )


def test_criterion_1_golden_fixture_parses_exactly(golden_bundle):
    with criterion(1, "hand-authored golden fixture parses exactly", 1.0):
        dump = ingest_device_dump(golden_bundle)
        profile = dump.device
        assert profile["model"] == "LG-D802"
        assert profile["android_version"] == "4.4.2"
        assert profile["sdk_level"] == "19"
        assert profile["brand"] == "lge"
        assert profile["manufacturer"] == "LGE"

        apps = parse_app_inventory(dump.records)
        inventory = {
            (a.attributes["name"], a.attributes.get("package"), a.attributes["status"],
             a.timestamp.to_iso())
            for a in apps
        }
        assert inventory == {
            ("AirDroid", None, "All", "2015-12-05T22:29:41Z"),
            ("Sheets", None, "All", "2015-12-16T23:58:23Z"),
            ("LinkedIn", None, "All", "2016-01-08T18:13:27Z"),
            ("ButtonTest", None, "All", "2016-05-10T16:51:11Z"),
            ("Instagram", None, "All", "2016-04-06T14:33:53Z"),
            ("TestTest", None, "All", "2016-05-10T17:06:37Z"),
            (
                "OSFunctionEnable",
                "com.example.ccs.osfunctionenable",
                "Uninstalled",
                "2016-05-10T17:51:13Z",
            ),
        }
        installed = [a for a in apps if a.attributes["status"] != "Uninstalled"]
        assert sorted(a.attributes["name"] for a in installed) == [
            "AirDroid", "ButtonTest", "Instagram", "LinkedIn", "Sheets", "TestTest",
        ]


def test_criterion_2_uninstall_evidence(golden_bundle, golden_cloud_log):
    with criterion(2, "golden fixture yields one High uninstall finding", 1.0):
        dump = ingest_device_dump(golden_bundle)
        events = ingest_cloud_log(golden_cloud_log)
        links = match_synced_artifacts(dump.records, events, zero_skew())
        uninstall = detect_uninstall_evidence(dump.records, events)
        findings = derive_cloud_usage_findings(links, uninstall, events, zero_skew())
        flagged = [
            f for f in findings if f["kind"] == "AppUsedThenUninstalled"
        ]
        assert len(flagged) == 1
        assert flagged[0]["confidence"] == "High"
        assert "com.example.ccs.osfunctionenable" in flagged[0]["narrative"]


def test_criterion_3_tamper_detection(tmp_path):
    with criterion(3, "1000+ single-byte mutations all localized, clean bundles intact", 60.0):
        bundles = []
        for seed in (3001, 3002, 3003, 3004):
            case = generate_case(
                SimParams(seed=seed, n_apps=5, n_messages=6, n_calls=3, n_uploads=5),
                tmp_path / str(seed),
            )
            dump = ingest_device_dump(case.bundle_dir)
            write_sealed_manifest(seal_dump(dump), case.bundle_dir)
            manifest = load_sealed_manifest(case.bundle_dir)
            assert verify_chain(manifest, dump.records)["verdict"] == "Intact"
            bundles.append((case, dump, manifest))

        rng = random.Random(987)
        trials = 0
        for _ in range(1000):
            case, dump, manifest = bundles[rng.randrange(len(bundles))]
            index = rng.randrange(len(dump.records))
            mutated = list(dump.records)
            mutated[index] = mutate_attribute(dump.records[index], rng)
            report = verify_chain(manifest, mutated)
            assert report["verdict"] == "Tampered"
            assert report["first_divergent_index"] == index
            trials += 1

        # A handful of on-disk mutations through the tamper injector too.
        for seed in range(8):
            case, dump, manifest = bundles[seed % len(bundles)]
            scratch = tmp_path / f"disk-{seed}"
            shutil.copytree(case.bundle_dir, scratch)
            _, index = inject_tamper(scratch, seed=seed)
            report = verify_chain(load_sealed_manifest(scratch), ingest_device_dump(scratch).records)
            assert report["verdict"] == "Tampered"
            assert report["first_divergent_index"] == index
            trials += 1
        assert trials >= 1000

        for case, dump, manifest in bundles:
            verification = verify_chain(manifest, ingest_device_dump(case.bundle_dir).records)
            assert verification["verdict"] == "Intact"


def test_criterion_4_skew_recovery(tmp_path):
    with criterion(4, "injected skews recovered within the 2s lag jitter, 100 trials", 30.0):
        trial = 0
        for skew_seconds in (-3600, -300, 0, 300, 3600):
            for repeat in range(20):
                seed = 41_000 + trial
                case = generate_case(
                    SimParams(
                        seed=seed,
                        n_apps=2,
                        n_messages=2,
                        n_calls=1,
                        n_uploads=6,
                        skew_seconds=skew_seconds,
                        sync_lag_max_s=2,
                    ),
                    tmp_path / f"t{trial}",
                )
                dump = ingest_device_dump(case.bundle_dir)
                events = ingest_cloud_log(case.cloud_log)
                estimate, short = estimate_clock_skew(
                    digest_index(dump.records, events), min_support=5
                )
                assert short is None
                truth = case.ground_truth.true_skew_seconds
                assert truth - 2 <= estimate["offset_seconds"] <= truth + 2, (
                    f"seed {seed}: estimated {estimate['offset_seconds']}, truth {truth}"
                )
                trial += 1
        assert trial == 100


def share_uploads(case, groups: int) -> None:
    """Rewrite a simulated case so its uploads repeat content.

    The simulator gives every upload its own digest and object name.
    Here upload k takes the digest, object name and size of upload
    k % groups on both sides, except that the cloud events of every
    third group carry no size.
    """
    messages = case.bundle_dir / "messages.jsonl"
    rows = [json.loads(line) for line in messages.read_text().splitlines()]
    uploads = [row for row in rows if "content_digest" in row]
    leaders = [(r["content_digest"], r["object"], r["size_bytes"]) for r in uploads[:groups]]
    group_of_object = {}
    for k, row in enumerate(uploads):
        group_of_object[row["object"]] = k % groups
        row["content_digest"], row["object"], row["size_bytes"] = leaders[k % groups]
    events = [json.loads(line) for line in case.cloud_log.read_text().splitlines()]
    for event in events:
        group = group_of_object.get(event.get("object"))
        if group is None:
            continue
        digest, event["object"], event["size"] = leaders[group]
        if "digest" in event:
            event["digest"] = digest
        if group % 3 == 2:
            del event["size"]
    for path, lines in ((messages, rows), (case.cloud_log, events)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_criterion_5_correlation_oracle_equivalence(tmp_path):
    with criterion(5, "exact links = ground truth and greedy = brute force, 200 seeds "
                   "+ 24 with repeated content", 60.0):
        for index in range(224):
            seed = 50_000 + index
            digest_logging = index % 4 != 3
            skew_seconds = (-300, 0, 120, 300)[index % 4] if digest_logging else (0, 100, -100)[index % 3]
            repeated = index >= 200
            params = SimParams(
                seed=seed,
                n_apps=index % 6,
                n_messages=index % 5,
                n_calls=index % 3,
                n_uploads=1 + index % 16,
                skew_seconds=skew_seconds,
                sync_lag_max_s=2,
                uninstall_fraction=0.5,
                digest_logging=digest_logging,
            )
            case = generate_case(params, tmp_path / str(index))
            if repeated:
                share_uploads(case, groups=1 + index % 3)
            dump = ingest_device_dump(case.bundle_dir)
            events = ingest_cloud_log(case.cloud_log)
            assert len(events) <= 50

            skew, _ = estimate_clock_skew(digest_index(dump.records, events))
            links = match_synced_artifacts(dump.records, events, skew)

            mine = [
                (l["device_record_id"], l["cloud_event_id"], l["tier"], l["time_delta_seconds"])
                for l in links
            ]
            oracle = brute_force_match(dump.records, events, skew["offset_seconds"], 300)
            assert mine == oracle, f"seed {seed}: greedy diverged from brute force"
            if repeated:
                # Which copy synced is ambiguous, so the truth cannot be asked for.
                continue

            truth = set(case.ground_truth.true_links)
            if digest_logging:
                exact = {
                    (l["device_record_id"], l["cloud_event_id"])
                    for l in links
                    if l["tier"] == "ExactDigest"
                }
                assert exact == truth, f"seed {seed}: precision/recall below 1.0"
            else:
                window = {
                    (l["device_record_id"], l["cloud_event_id"])
                    for l in links
                    if l["tier"] == "MetadataWindow"
                }
                recall = len(window & truth) / len(truth) if truth else 1.0
                assert recall >= 1.0, f"seed {seed}: metadata recall {recall}"


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "run-all twice byte-identical; cloud log permutation changes nothing", 10.0):
        case = generate_case(
            SimParams(seed=606, n_uploads=6, skew_seconds=120), tmp_path / "case"
        )
        out_1, out_2, out_3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"

        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out_1)]) == 0
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out_2)]) == 0
        name = "sim-606.report.json"
        assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()

        permuted_dir = tmp_path / "permuted"
        permuted_dir.mkdir()
        permuted = permuted_dir / case.cloud_log.name
        lines = case.cloud_log.read_text().splitlines()
        permuted.write_text("\n".join(reversed(lines)) + "\n")
        assert run(["run-all", str(case.bundle_dir), str(permuted), "--out", str(out_3)]) == 0
        assert (out_1 / name).read_bytes() == (out_3 / name).read_bytes()


def test_criterion_7_ingestion_losslessness(tmp_path, golden_bundle):
    with criterion(7, "records + ledgered lines = input lines, per file, incl. corrupted", 30.0):
        def check(bundle):
            dump = ingest_device_dump(bundle)
            assert dump.line_counts, f"{bundle} had no category files"
            for file_name, total in dump.line_counts.items():
                parsed = sum(1 for r in dump.records if r.attributes["_file"] == file_name)
                ledgered = sum(1 for e in dump.ledger if e["file"] == file_name and e["line"] > 0)
                assert parsed + ledgered == total, f"{bundle}/{file_name}"
            return dump

        check(golden_bundle)

        for index, seed in enumerate((7001, 7002, 7003, 7004, 7005)):
            case = generate_case(
                SimParams(seed=seed, n_apps=4, n_messages=5, n_calls=3, n_uploads=4),
                tmp_path / f"gen{index}",
            )
            check(case.bundle_dir)

            corrupted = tmp_path / f"bad{index}"
            shutil.copytree(case.bundle_dir, corrupted)
            messages = corrupted / "messages.jsonl"
            lines = messages.read_text().splitlines()
            lines[0] = "{truncated"
            lines[2] = json.dumps({"id": "spoof", "_line": "1", "peer": "+1"})
            lines.insert(3, "")  # blank line is still an input line
            messages.write_text("\n".join(lines) + "\n")
            apps = corrupted / "installed_apps.jsonl"
            app_lines = apps.read_text().splitlines()
            bad_app = json.loads(app_lines[0])
            bad_app["installed"] = "99/99/2016 01:01:01 AM"
            app_lines[0] = json.dumps(bad_app)
            apps.write_text("\n".join(app_lines) + "\n")

            dump = check(corrupted)
            assert len(dump.ledger) >= 4


def test_criterion_8_geo_lookup_oracle(tmp_path):
    with criterion(8, "10^4 random lookups equal the linear-scan oracle on 1000 ranges", 5.0):
        rng = random.Random(31337)
        rows = []
        cursor = rng.randrange(1, 10_000)
        for index in range(1000):
            start = cursor + rng.randrange(1, 40_000)
            end = start + rng.randrange(0, 30_000)
            rows.append((start, end, f"C{index % 60}", f"city-{index}"))
            cursor = end

        def as_ip(value: int) -> str:
            return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))

        table_path = tmp_path / "ranges.csv"
        table_path.write_text(
            "".join(f"{as_ip(a)},{as_ip(b)},{c},{d}\n" for a, b, c, d in rows)
        )
        table = load_geo_table(table_path)

        span = rows[-1][1] + 100_000
        for _ in range(10_000):
            value = rng.randrange(0, span)
            expected = linear_scan_geo(rows, value)
            got = resolve_ip(as_ip(value), table)
            if expected is None:
                assert got is None
            else:
                assert (got["country"], got["city"]) == expected
