"""Benchmark workloads: seeded input files plus the outcome each must produce.

Every workload writes a device bundle and a cloud log under a directory,
and an ``expected.json`` beside them:

    {"links": {"ExactDigest": [[record_id, event_id], ...],
               "MetadataWindow": [[record_id, event_id], ...]},
     "skew": {"min": s, "max": s} | "fallback" | null}

``links`` is the complete link set per tier. ``skew`` bounds the
reported offset, demands the fallback estimate, or is not checked.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

EXPECTED_NAME = "expected.json"

# 3,215 records and 2,082 events: small enough that one 35 s run takes
# the median of about fifteen `run-all`s.
SIM_SIZES = {"n_uploads": 2000, "n_messages": 800, "n_calls": 200, "n_apps": 200}
SYNC_LAG_MAX_S = 2
SYNC_BULK_SKEW_S = 300
METADATA_ONLY_SKEW_S = 120  # inside the default 300 s window

# repeated-content: n records and events share one digest, m share one
# object name. Both tiers and the skew estimate build n*n or m*m pairs.
REPEATED_DIGEST_PAIRS = 400
REPEATED_OBJECT_PAIRS = 300
WINDOW_SECONDS = 300  # the program's default window
WEEK_START_EPOCH = 1462752000  # 2016-05-09T00:00:00Z
WEEK_SECONDS = 6 * 86400
_ACCOUNT = "user@example.com"


@dataclass(frozen=True)
class Case:
    bundle: Path
    cloud_log: Path
    expected: dict


def _write_expected(out: Path, expected: dict) -> None:
    (out / EXPECTED_NAME).write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")


def _simulated(seed: int, out: Path, skew_seconds: int, digest_logging: bool) -> Case:
    from synctrail.simulator import SimParams, generate_case

    params = SimParams(
        seed=seed,
        skew_seconds=skew_seconds,
        sync_lag_max_s=SYNC_LAG_MAX_S,
        digest_logging=digest_logging,
        **SIM_SIZES,
    )
    case = generate_case(params, out)
    truth = [list(pair) for pair in case.ground_truth.true_links]
    if digest_logging:
        links = {"ExactDigest": truth, "MetadataWindow": []}
        skew: object = {"min": skew_seconds, "max": skew_seconds + SYNC_LAG_MAX_S}
    else:
        links = {"ExactDigest": [], "MetadataWindow": truth}
        skew = "fallback"
    expected = {"links": links, "skew": skew}
    _write_expected(out, expected)
    return Case(case.bundle_dir, case.cloud_log, expected)


def sync_bulk(seed: int, out: Path) -> Case:
    return _simulated(seed, out, SYNC_BULK_SKEW_S, digest_logging=True)


def metadata_only(seed: int, out: Path) -> Case:
    return _simulated(seed, out, METADATA_ONLY_SKEW_S, digest_logging=False)


def _iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)


def repeated_content(
    seed: int,
    out: Path,
    n: int = REPEATED_DIGEST_PAIRS,
    m: int = REPEATED_OBJECT_PAIRS,
) -> Case:
    """Write a case where content repeats, per FORMAT.md.

    This generator exists because the simulator cannot repeat content:
    it gives every upload its own digest and its own object name.

    - n message records and n Upload events share one content digest,
      each record at a distinct second and its event at the same second.
    - m message records and m Sync events share one object name and
      size and carry no digest. Their distinct seconds all fall inside
      one window, so every pair of them is a window candidate.

    Each record's only zero-gap partner is its own event, and the
    lower-median skew over all n*n digest pairs is exactly 0. So the
    greedy matcher must link record i to event i in both tiers: n
    ExactDigest links and m MetadataWindow links, no record or event
    used twice.
    """
    if m > WINDOW_SECONDS + 1:
        raise ValueError(f"m = {m} cannot take distinct seconds inside the window")
    rng = random.Random(seed)
    digest = hashlib.sha256(f"perfbench-repeated-{seed}".encode()).hexdigest()
    shared_object = f"shared-{seed}.bin"
    shared_size = rng.randint(10_000, 2_000_000)
    digest_times = [WEEK_START_EPOCH + t for t in rng.sample(range(WEEK_SECONDS), n)]
    cluster_start = WEEK_START_EPOCH + rng.randrange(WEEK_SECONDS - WINDOW_SECONDS)
    object_times = [cluster_start + t for t in rng.sample(range(WINDOW_SECONDS + 1), m)]
    event_numbers = rng.sample(range(1, n + m + 1), n + m)

    records: list[dict] = []
    events: list[dict] = []
    exact: list[list[str]] = []
    window: list[list[str]] = []
    for i, epoch in enumerate(digest_times):
        record_id, event_id = f"dup-{i + 1:05d}", f"e{event_numbers[i]:05d}"
        name, size = f"dup-{i + 1:05d}.jpg", rng.randint(10_000, 2_000_000)
        records.append(
            {
                "id": record_id,
                "peer": "+353870000001",
                "body": "",
                "direction": "Outgoing",
                "delivered_at": _iso(epoch),
                "object": name,
                "size_bytes": size,
                "content_digest": digest,
            }
        )
        events.append(
            {
                "id": event_id,
                "kind": "Upload",
                "ts": _iso(epoch),
                "account": _ACCOUNT,
                "object": name,
                "size": size,
                "digest": digest,
            }
        )
        exact.append([record_id, event_id])
    for k, epoch in enumerate(object_times):
        record_id, event_id = f"obj-{k + 1:05d}", f"e{event_numbers[n + k]:05d}"
        records.append(
            {
                "id": record_id,
                "peer": "+353870000002",
                "body": "",
                "direction": "Outgoing",
                "delivered_at": _iso(epoch),
                "object": shared_object,
                "size_bytes": shared_size,
            }
        )
        events.append(
            {
                "id": event_id,
                "kind": "Sync",
                "ts": _iso(epoch),
                "account": _ACCOUNT,
                "object": shared_object,
                "size": shared_size,
            }
        )
        window.append([record_id, event_id])
    rng.shuffle(records)
    events.sort(key=lambda event: event["id"])

    bundle = out / "bundle"
    bundle.mkdir(parents=True, exist_ok=True)
    manifest = {
        "dump_id": f"rep-{seed}",
        "collected_at": _iso(WEEK_START_EPOCH + WEEK_SECONDS),
        "zone_offset_minutes": 0,
        "tool_name": "perfbench",
        "tool_version": "1",
    }
    (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (bundle / "messages.jsonl").write_text(_jsonl(records), encoding="utf-8")
    cloud_log = out / "cloud_events.jsonl"
    cloud_log.write_text(_jsonl(events), encoding="utf-8")
    # The skew is not checked: the estimate over repeated content is a
    # known defect, and a sound estimator may fall back to 0 here.
    expected = {"links": {"ExactDigest": exact, "MetadataWindow": window}, "skew": None}
    _write_expected(out, expected)
    return Case(bundle, cloud_log, expected)


WORKLOADS = {
    "sync-bulk": sync_bulk,
    "metadata-only": metadata_only,
    "repeated-content": repeated_content,
}
