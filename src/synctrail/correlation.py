"""Device/cloud correlation.

Estimates the constant offset between the device clock and the cloud
logger's clock, matches synchronized artifacts across the two sides,
merges everything onto one skew-corrected timeline, and derives
evidence-backed findings (proven uploads and downloads, app use
followed by uninstall, account activity).

Every operation here is a pure function over immutable inputs and is
deterministic down to the byte: all orderings are total, with explicit
tie rules, so repeated runs and permuted inputs cannot change output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .acquisition import AppRecord, AppStatus, CloudEvent, EventKind
from .errors import InsufficientSupport
from .evidence import EvidenceRecord, Source, UtcTimestamp

DEFAULT_WINDOW_SECONDS = 300
DEFAULT_MIN_SKEW_SUPPORT = 3

# Device records describe synced content through these attributes.
OBJECT_ATTR = "object"
SIZE_ATTR = "size_bytes"
CONTENT_DIGEST_ATTR = "content_digest"


class LinkTier(Enum):
    EXACT_DIGEST = "ExactDigest"
    METADATA_WINDOW = "MetadataWindow"


class FindingKind(Enum):
    PROVEN_UPLOAD = "ProvenUpload"
    PROVEN_DOWNLOAD = "ProvenDownload"
    APP_USED_THEN_UNINSTALLED = "AppUsedThenUninstalled"
    ACCOUNT_ACTIVITY = "AccountActivity"


class Confidence(Enum):
    HIGH = "High"
    MEDIUM = "Medium"


_KIND_ORDER = {kind: index for index, kind in enumerate(FindingKind)}
_TIER_ORDER = {tier: index for index, tier in enumerate(LinkTier)}


@dataclass(frozen=True)
class SkewEstimate:
    """Cloud clock minus device clock, in whole seconds.

    ``fallback`` is set on the zero estimate used when too few
    digest-matched pairs existed to measure anything.
    """

    offset_seconds: int
    support_count: int
    spread_seconds: int
    fallback: bool = False


@dataclass(frozen=True)
class SyncLink:
    """One matched device record / cloud event pair.

    ``time_delta_seconds`` is the skew-corrected cloud-minus-device gap;
    it is None only for digest matches where a side lacked a timestamp.
    """

    device_record_id: str
    cloud_event_id: str
    tier: LinkTier
    time_delta_seconds: Optional[int]


@dataclass(frozen=True)
class TimelineEntry:
    timestamp: UtcTimestamp
    source: Source
    ref_id: str
    label: str


@dataclass(frozen=True)
class UnifiedTimeline:
    """Merged, skew-corrected, totally ordered device and cloud events."""

    entries: tuple[TimelineEntry, ...]
    excluded_undated: int


@dataclass(frozen=True)
class CloudUsageFinding:
    kind: FindingKind
    confidence: Confidence
    supporting_ids: tuple[str, ...]
    narrative: str


def zero_skew() -> SkewEstimate:
    """Fallback estimate for when skew cannot be measured."""
    return SkewEstimate(offset_seconds=0, support_count=0, spread_seconds=0, fallback=True)


def _record_digest_attr(record: EvidenceRecord) -> Optional[str]:
    raw = record.attributes.get(CONTENT_DIGEST_ATTR)
    if raw is None:
        return None
    text = raw.strip().lower()
    return text or None


def _record_size(record: EvidenceRecord) -> Optional[int]:
    raw = record.attributes.get(SIZE_ATTR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _digest_pairs(
    device_records: Sequence[EvidenceRecord], cloud_events: Sequence[CloudEvent]
) -> list[tuple[EvidenceRecord, CloudEvent]]:
    by_digest: dict[str, list[EvidenceRecord]] = {}
    for record in device_records:
        digest = _record_digest_attr(record)
        if digest is not None:
            by_digest.setdefault(digest, []).append(record)
    pairs = []
    for event in cloud_events:
        if event.content_digest is None:
            continue
        for record in by_digest.get(event.content_digest.hex(), ()):
            pairs.append((record, event))
    return pairs


def estimate_clock_skew(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    min_support: int = DEFAULT_MIN_SKEW_SUPPORT,
) -> SkewEstimate:
    """Estimate cloud-minus-device clock offset from digest-matched pairs.

    The offset is the median of (cloud time - device time) over every
    pair sharing an exact content digest with timestamps on both sides;
    an even pair count takes the lower median so the result is always an
    observed delta. The median keeps a minority of mis-logged events
    from dragging the estimate.
    """
    deltas = sorted(
        event.timestamp.seconds_since_epoch - record.timestamp.seconds_since_epoch
        for record, event in _digest_pairs(device_records, cloud_events)
        if record.timestamp is not None
    )
    if len(deltas) < min_support:
        raise InsufficientSupport(
            f"{len(deltas)} digest-matched pairs, need at least {min_support}"
        )
    return SkewEstimate(
        offset_seconds=deltas[(len(deltas) - 1) // 2],
        support_count=len(deltas),
        spread_seconds=deltas[-1] - deltas[0],
    )


def _corrected_delta(
    record: EvidenceRecord, event: CloudEvent, offset_seconds: int
) -> Optional[int]:
    if record.timestamp is None:
        return None
    return (event.timestamp.seconds_since_epoch - offset_seconds) - (
        record.timestamp.seconds_since_epoch
    )


def match_synced_artifacts(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    skew: SkewEstimate,
    window_seconds: int = DEFAULT_WINDOW_SECONDS,
) -> list[SyncLink]:
    """Match device artifacts to the cloud events that mirror them.

    Pass 1 links every equal-content-digest pair it can, choosing
    greedily by smallest skew-corrected time gap with ties broken on
    (record id, event id); each record and event is used at most once.
    Pass 2 links the remainder on matching object name, equal size when
    both sides report one, and a corrected gap within the window.
    Output is sorted by (tier, device record id).
    """
    used_records: set[str] = set()
    used_events: set[str] = set()
    links: list[SyncLink] = []

    exact_candidates = []
    for record, event in _digest_pairs(device_records, cloud_events):
        delta = _corrected_delta(record, event, skew.offset_seconds)
        rank = (1, 0) if delta is None else (0, abs(delta))
        exact_candidates.append((rank, record.record_id, event.event_id, delta))
    exact_candidates.sort()
    for _, record_id, event_id, delta in exact_candidates:
        if record_id in used_records or event_id in used_events:
            continue
        used_records.add(record_id)
        used_events.add(event_id)
        links.append(SyncLink(record_id, event_id, LinkTier.EXACT_DIGEST, delta))

    window_candidates = []
    by_object: dict[str, list[EvidenceRecord]] = {}
    for record in device_records:
        if record.record_id in used_records:
            continue
        name = record.attributes.get(OBJECT_ATTR)
        if name:
            by_object.setdefault(name, []).append(record)
    for event in cloud_events:
        if event.event_id in used_events or not event.package_or_object:
            continue
        for record in by_object.get(event.package_or_object, ()):
            size = _record_size(record)
            if (
                size is not None
                and event.size_bytes is not None
                and size != event.size_bytes
            ):
                continue
            delta = _corrected_delta(record, event, skew.offset_seconds)
            if delta is None or abs(delta) > window_seconds:
                continue
            window_candidates.append((abs(delta), record.record_id, event.event_id, delta))
    window_candidates.sort()
    for _, record_id, event_id, delta in window_candidates:
        if record_id in used_records or event_id in used_events:
            continue
        used_records.add(record_id)
        used_events.add(event_id)
        links.append(SyncLink(record_id, event_id, LinkTier.METADATA_WINDOW, delta))

    links.sort(key=lambda link: (_TIER_ORDER[link.tier], link.device_record_id))
    return links


def build_timeline(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    skew: SkewEstimate,
) -> UnifiedTimeline:
    """Merge both sides onto the device clock.

    Cloud timestamps are shifted by minus the estimated offset. The sort
    is total: time, then Device before Cloud, then id, so the result is
    byte-stable across runs and input orderings. Undated records are
    excluded and counted.
    """
    entries: list[TimelineEntry] = []
    excluded = 0
    for record in device_records:
        if record.timestamp is None:
            excluded += 1
            continue
        entries.append(
            TimelineEntry(record.timestamp, Source.DEVICE, record.record_id, record.category.value)
        )
    for event in cloud_events:
        corrected = UtcTimestamp(
            event.timestamp.seconds_since_epoch - skew.offset_seconds,
            event.timestamp.original_text,
        )
        entries.append(TimelineEntry(corrected, Source.CLOUD, event.event_id, event.kind.value))
    entries.sort(
        key=lambda e: (
            e.timestamp.seconds_since_epoch,
            0 if e.source is Source.DEVICE else 1,
            e.ref_id,
        )
    )
    return UnifiedTimeline(entries=tuple(entries), excluded_undated=excluded)


def detect_uninstall_evidence(
    apps: Sequence[AppRecord], cloud_events: Sequence[CloudEvent]
) -> list[CloudUsageFinding]:
    """Flag packages that were used against the cloud and then removed.

    A package qualifies when the device inventory lists it as
    uninstalled, or the cloud logged its install while the device has no
    trace of it, provided the cloud saw at least one event for it.
    Confidence is High when the cloud also logged the uninstall.
    """
    events_by_package: dict[str, list[CloudEvent]] = {}
    for event in cloud_events:
        if event.package_or_object:
            events_by_package.setdefault(event.package_or_object, []).append(event)

    device_packages = {app.package or app.app_name for app in apps}
    uninstalled = {
        app.package or app.app_name: app
        for app in apps
        if app.status is AppStatus.UNINSTALLED
    }

    findings = []
    for package in sorted(events_by_package):
        events = events_by_package[package]
        orphan_install = (
            any(e.kind is EventKind.INSTALL for e in events)
            and package not in device_packages
        )
        if package not in uninstalled and not orphan_install:
            continue
        cloud_uninstall = any(e.kind is EventKind.UNINSTALL for e in events)
        supporting: list[str] = []
        if package in uninstalled and uninstalled[package].record_id:
            supporting.append(uninstalled[package].record_id)
        supporting.extend(sorted(e.event_id for e in events))
        source = (
            "the device inventory lists it as uninstalled"
            if package in uninstalled
            else "the cloud logged its install but the device has no trace of it"
        )
        closer = (
            "the cloud log also records the uninstall"
            if cloud_uninstall
            else "no cloud uninstall entry was logged"
        )
        findings.append(
            CloudUsageFinding(
                kind=FindingKind.APP_USED_THEN_UNINSTALLED,
                confidence=Confidence.HIGH if cloud_uninstall else Confidence.MEDIUM,
                supporting_ids=tuple(supporting),
                narrative=(
                    f"Package {package} produced {len(events)} cloud event(s); "
                    f"{source}, and {closer}."
                ),
            )
        )
    return findings


def derive_cloud_usage_findings(
    links: Sequence[SyncLink],
    uninstall_findings: Sequence[CloudUsageFinding],
    cloud_events: Sequence[CloudEvent],
) -> list[CloudUsageFinding]:
    """Assemble the final ordered finding list for the report.

    Each upload or download link becomes a proven-transfer finding
    (digest matches are High confidence, window matches Medium), every
    account with a login event becomes an account-activity finding, and
    the uninstall findings are folded in. Order is (kind, first
    supporting id). Narratives are templated, never free text.
    """
    events_by_id = {event.event_id: event for event in cloud_events}
    findings: list[CloudUsageFinding] = []

    for link in links:
        event = events_by_id.get(link.cloud_event_id)
        if event is None or event.kind not in (EventKind.UPLOAD, EventKind.DOWNLOAD):
            continue
        kind = (
            FindingKind.PROVEN_UPLOAD
            if event.kind is EventKind.UPLOAD
            else FindingKind.PROVEN_DOWNLOAD
        )
        confidence = (
            Confidence.HIGH if link.tier is LinkTier.EXACT_DIGEST else Confidence.MEDIUM
        )
        basis = (
            "an exact content digest match"
            if link.tier is LinkTier.EXACT_DIGEST
            else "matching object metadata inside the sync window"
        )
        findings.append(
            CloudUsageFinding(
                kind=kind,
                confidence=confidence,
                supporting_ids=(link.device_record_id, link.cloud_event_id),
                narrative=(
                    f"Device artifact {link.device_record_id} and cloud event "
                    f"{link.cloud_event_id} ({event.kind.value}) are the same object, "
                    f"established by {basis}."
                ),
            )
        )

    logins_by_account: dict[str, list[str]] = {}
    for event in cloud_events:
        if event.kind is EventKind.LOGIN and event.account:
            logins_by_account.setdefault(event.account, []).append(event.event_id)
    for account in sorted(logins_by_account):
        event_ids = sorted(logins_by_account[account])
        findings.append(
            CloudUsageFinding(
                kind=FindingKind.ACCOUNT_ACTIVITY,
                confidence=Confidence.HIGH,
                supporting_ids=tuple(event_ids),
                narrative=(
                    f"Account {account} authenticated against the cloud service "
                    f"{len(event_ids)} time(s)."
                ),
            )
        )

    findings.extend(uninstall_findings)
    findings.sort(key=lambda f: (_KIND_ORDER[f.kind], f.supporting_ids[0]))
    return findings
