"""Device/cloud correlation.

Estimates the constant offset between the device clock and the cloud
logger's clock, matches synchronized artifacts across the two sides,
merges everything onto one skew-corrected timeline, and derives
evidence-backed findings (proven uploads and downloads, one per
account, event kind and link tier; app use followed by uninstall;
account activity).

Every operation here is a pure function over immutable inputs and is
deterministic down to the byte: all orderings are total, with explicit
tie rules, so repeated runs and permuted inputs cannot change output.
The skew estimate, links, the timeline and findings come back as their
stage-file payloads (``skew.json``, ``links.json``, ``timeline.json``,
``findings.json``): JSON-ready lists and dicts whose tier, kind and
confidence fields hold the plain strings that REPORT_SCHEMA.md lists.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .acquisition import UNINSTALLED, CloudEvent, _integer, parse_app_inventory
from .evidence import (
    DEVICE,
    EPOCH_MAX,
    EPOCH_MIN,
    EvidenceRecord,
    checked_digest_hex,
    epoch_to_iso,
)

DEFAULT_WINDOW_SECONDS = 300
DEFAULT_MIN_SKEW_SUPPORT = 3

# Device records describe synced content through these attributes.
OBJECT_ATTR = "object"
SIZE_ATTR = "size_bytes"
CONTENT_DIGEST_ATTR = "content_digest"


# Link tiers, finding kinds and confidences, as the stage files hold them.
EXACT_DIGEST = "ExactDigest"
PROVEN_UPLOAD = "ProvenUpload"
PROVEN_DOWNLOAD = "ProvenDownload"
APP_USED_THEN_UNINSTALLED = "AppUsedThenUninstalled"
ACCOUNT_ACTIVITY = "AccountActivity"
HIGH = "High"
MEDIUM = "Medium"

# The finding kind that a link proves, by the linked event's kind.
_PROVEN = {"Upload": PROVEN_UPLOAD, "Download": PROVEN_DOWNLOAD}

# Findings sort by kind in this order.
_KIND_ORDER = {
    kind: index
    for index, kind in enumerate(
        (PROVEN_UPLOAD, PROVEN_DOWNLOAD, APP_USED_THEN_UNINSTALLED, ACCOUNT_ACTIVITY)
    )
}


def zero_skew() -> dict:
    """The fallback ``skew.json`` payload, for when skew cannot be measured."""
    return {"offset_seconds": 0, "support_count": 0, "spread_seconds": 0, "fallback": True}


# Each content digest both sides carry, as (dated, undated, events):
# dated records and events are (time, id) pairs with uncorrected times,
# undated records are their ids.
SharedDigest = tuple[Sequence[tuple[int, str]], Sequence[str], list[tuple[int, str]]]

# What skew, matching and the malformed-digest note read about content
# digests: the shared digests, and how many device records carry a
# content digest that is not 64 hex digits. Such a value names no
# content: it gives no skew support and no ExactDigest link, and the
# record is matched as if it had none.
DigestIndex = tuple[list[SharedDigest], int]


def digest_index(
    device_records: Sequence[EvidenceRecord], cloud_events: Sequence[CloudEvent]
) -> DigestIndex:
    """Index the content digests of both sides in one pass over each.

    ``estimate_clock_skew`` reads it, and so does ``match_synced_artifacts``,
    which builds it when not given one.
    """
    events_by_digest: dict[str, list[tuple[int, str]]] = {}
    for event in cloud_events:
        if event.content_digest is not None:
            events_by_digest.setdefault(event.content_digest, []).append(
                (event.timestamp.seconds_since_epoch, event.event_id)
            )
    dated: dict[str, list[tuple[int, str]]] = {}
    undated: dict[str, list[str]] = {}
    malformed = 0
    for record in device_records:
        raw = record.attributes.get(CONTENT_DIGEST_ATTR)
        if raw is None:
            continue
        try:
            digest = checked_digest_hex(raw)
        except ValueError:
            malformed += 1
            continue
        if digest in events_by_digest:
            if record.timestamp is None:
                undated.setdefault(digest, []).append(record.record_id)
            else:
                dated.setdefault(digest, []).append(
                    (record.timestamp.seconds_since_epoch, record.record_id)
                )
    shared = [
        (dated.get(digest, ()), undated.get(digest, ()), events)
        for digest, events in events_by_digest.items()
        if digest in dated or digest in undated
    ]
    return shared, malformed


def estimate_clock_skew(
    index: DigestIndex, min_support: int = DEFAULT_MIN_SKEW_SUPPORT
) -> tuple[dict, Optional[str]]:
    """Estimate cloud-minus-device clock offset from one-to-one digest pairs.

    A pair counts only when its content digest is carried by exactly one
    device record, which is dated, and exactly one cloud event: repeated
    content cannot say which copy synced when, and the median over its
    cross product is unsound. Two events repeat a digest whatever their
    kinds, so an upload and a later download of one content leave it
    out too. The offset is the median of (cloud time - device time) over
    those pairs; an even count takes the lower median so the result is
    always an observed delta. ``index`` is ``digest_index`` over both
    sides. Returns ``(skew, short)``: the ``skew.json`` payload (the
    offset in whole seconds, ``support_count``, the number of pairs
    used, ``spread_seconds``, the largest minus the smallest delta, and
    ``fallback`` false) and None; or, with no pairs or fewer than
    ``min_support``, ``zero_skew()`` and how many pairs there were and
    how many were needed.
    """
    # The exact tier's digest index, read for the digests with one item per side.
    deltas = sorted(
        events[0][0] - dated[0][0]
        for dated, undated, events in index[0]
        if len(events) == 1 and len(dated) == 1 and not undated
    )
    if not deltas or len(deltas) < min_support:
        return zero_skew(), (
            f"{len(deltas)} one-to-one digest pairs, need at least {max(min_support, 1)}"
        )
    return {
        "offset_seconds": deltas[(len(deltas) - 1) // 2],
        "support_count": len(deltas),
        "spread_seconds": deltas[-1] - deltas[0],
        "fallback": False,
    }, None


_RECORD, _EVENT = 0, 1


class _Sweep:
    """Greedy smallest-gap matching over time-sorted lines.

    Every record/event pair inside one line is a candidate, ranked by
    (|gap|, record id, event id); the sweep links the smallest unused
    pair whose gap fits ``max_gap`` until none is left. Items of a line
    are grouped by corrected timestamp (``add_line``), ids sorted within
    each group, and the groups are chained in time order. The smallest
    unused pair of a line lies inside one group or between two
    neighbouring groups that still hold unused items: an unused item
    between its two sides would form a pair with a smaller gap. So the
    heap holds only the best pair of each such place. A link can only
    change the places next to the groups of its two items, which are
    refreshed; heap entries that name a used item are dropped when
    popped. An item may sit in several lines, and all of its groups are
    refreshed.
    """

    def __init__(
        self,
        used_records: set[str],
        used_events: set[str],
        offset_seconds: int,
        max_gap: Optional[int],
    ) -> None:
        self.offset = offset_seconds
        self.max_gap = max_gap
        self.links: list[tuple[str, str, Optional[int]]] = []
        # Indexed by side (_RECORD or _EVENT), then by group: sorted ids,
        # and the index of the first id that may still be unused.
        self.used = (used_records, used_events)
        self.ids: tuple[list[list[str]], list[list[str]]] = ([], [])
        self.pos: tuple[list[int], list[int]] = ([], [])
        self.groups_of: tuple[dict[str, list[int]], dict[str, list[int]]] = ({}, {})
        # Per group: its time and its neighbours (-1 at either end of a line).
        self.times: list[int] = []
        self.prev: list[int] = []
        self.next: list[int] = []
        self.heap: list[tuple[int, str, str, int]] = []

    def link(self, record_id: str, event_id: str, delta: Optional[int]) -> None:
        self.used[_RECORD].add(record_id)
        self.used[_EVENT].add(event_id)
        self.links.append((record_id, event_id, delta))

    def add_line(
        self,
        records: Sequence[tuple[int, str]],
        events: Sequence[tuple[int, str]],
        disjoint: bool,
    ) -> None:
        """Add one line of (time, id) records and events.

        Times are uncorrected: records on the device clock, events on
        the cloud clock. ``disjoint`` says that no item of the line sits
        in any other line of this sweep.
        """
        if disjoint and len(records) == 1 and len(events) == 1:
            # The pair is the only candidate either item has: no sweep.
            (record_time, record_id), (event_time, event_id) = records[0], events[0]
            delta = event_time - self.offset - record_time
            if self._fits(delta):
                self.link(record_id, event_id, delta)
            return
        if not records or not events:
            return
        first = len(self.times)
        last_time = None
        group = first - 1
        # Record times move onto the cloud clock, which keeps every gap.
        for time, side, item in sorted(
            [(t + self.offset, _RECORD, record_id) for t, record_id in records]
            + [(t, _EVENT, event_id) for t, event_id in events]
        ):
            if time != last_time:
                last_time = time
                group += 1
                self.times.append(time)
                self.ids[_RECORD].append([])
                self.ids[_EVENT].append([])
            self.ids[side][group].append(item)
            self.groups_of[side].setdefault(item, []).append(group)
        end = group + 1
        for side in (_RECORD, _EVENT):
            self.pos[side].extend([0] * (end - first))
        self.prev.extend(range(first - 1, end - 1))
        self.next.extend(range(first + 1, end + 1))
        self.prev[first] = -1
        self.next[end - 1] = -1
        for group in range(first, end):
            self._push_within(group)
            self._push_between(group, self.next[group])

    def run(self) -> None:
        used_records, used_events = self.used
        while self.heap:
            _, record_id, event_id, delta = heapq.heappop(self.heap)
            if record_id in used_records or event_id in used_events:
                continue
            self.link(record_id, event_id, delta)
            for group in dict.fromkeys(
                self.groups_of[_RECORD][record_id] + self.groups_of[_EVENT][event_id]
            ):
                self._refresh(group)

    def _fits(self, gap: int) -> bool:
        return self.max_gap is None or abs(gap) <= self.max_gap

    def _first(self, side: int, group: int) -> Optional[str]:
        """The smallest unused id of one side of a group, or None."""
        ids, pos, used = self.ids[side][group], self.pos[side][group], self.used[side]
        while pos < len(ids) and ids[pos] in used:
            pos += 1
        self.pos[side][group] = pos
        return ids[pos] if pos < len(ids) else None

    def _push_within(self, group: int) -> None:
        record_id, event_id = self._first(_RECORD, group), self._first(_EVENT, group)
        if record_id is not None and event_id is not None:
            heapq.heappush(self.heap, (0, record_id, event_id, 0))

    def _push_between(self, early: int, late: int) -> None:
        if early < 0 or late < 0:
            return
        gap = self.times[late] - self.times[early]
        if not self._fits(gap):
            return
        candidates = []
        for record_group, event_group, delta in ((early, late, gap), (late, early, -gap)):
            record_id = self._first(_RECORD, record_group)
            event_id = self._first(_EVENT, event_group)
            if record_id is not None and event_id is not None:
                candidates.append((gap, record_id, event_id, delta))
        if candidates:
            heapq.heappush(self.heap, min(candidates))

    def _refresh(self, group: int) -> None:
        prev, next_ = self.prev[group], self.next[group]
        if self._first(_RECORD, group) is None and self._first(_EVENT, group) is None:
            if prev >= 0:
                self.next[prev] = next_
            if next_ >= 0:
                self.prev[next_] = prev
            self._push_between(prev, next_)
        else:
            self._push_within(group)
            self._push_between(prev, group)
            self._push_between(group, next_)


def _window_lines(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    used_records: set[str],
    used_events: set[str],
) -> list[tuple[list[tuple[int, str]], list[tuple[int, str]], bool]]:
    """Split each object's unused dated records and events into size-class lines.

    Lines are (records, events, disjoint) with (time, id) items, times
    uncorrected. Sizes are compatible when equal or when either side
    has none. Each compatible pair lands in exactly one line: equal
    sizes in that size's line, a size-less record in the line against
    every event of its object, a sized record in the line against its
    object's size-less events. So no item sits in more than two lines,
    and only items of an object with a size-less item sit in two: the
    lines of every other object are disjoint.
    """
    classes: dict[tuple[str, Optional[int]], tuple[list, list]] = {}
    for record in device_records:
        name = record.attributes.get(OBJECT_ATTR)
        if name and record.timestamp is not None and record.record_id not in used_records:
            size = _integer(record.attributes.get(SIZE_ATTR))
            classes.setdefault((name, size), ([], []))[0].append(
                (record.timestamp.seconds_since_epoch, record.record_id)
            )
    names = {name for name, _ in classes}
    for event in cloud_events:
        name = event.package_or_object
        if name in names and event.event_id not in used_events:
            line = classes.get((name, event.size_bytes))
            if line is None:
                line = classes[name, event.size_bytes] = ([], [])
            line[1].append((event.timestamp.seconds_since_epoch, event.event_id))
    mixed = {name for name, size in classes if size is None}
    lines = [
        (records, events, name not in mixed)
        for (name, size), (records, events) in classes.items()
        if size is not None
    ]
    if mixed:
        sized_of: dict[str, list[tuple[list, list]]] = {}
        for (name, size), line in classes.items():
            if size is not None and name in mixed:
                sized_of.setdefault(name, []).append(line)
        for (name, size), (sizeless_records, sizeless_events) in classes.items():
            if size is None:
                sized = sized_of.get(name, [])
                every_event = sizeless_events + [item for line in sized for item in line[1]]
                sized_records = [item for line in sized for item in line[0]]
                lines.append((sizeless_records, every_event, False))
                lines.append((sized_records, sizeless_events, False))
    return lines


def match_synced_artifacts(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    skew: dict,
    window_seconds: int = DEFAULT_WINDOW_SECONDS,
    index: Optional[DigestIndex] = None,
) -> list[dict]:
    """Match device artifacts to the cloud events that mirror them.

    Pass 1 links every equal-content-digest pair it can, choosing
    greedily by smallest skew-corrected time gap with ties broken on
    (record id, event id); each record and event is used at most once.
    Undated records of a digest then take its leftover events, both in
    id order. Pass 2 links the remainder by the same greedy rule on
    matching object name, equal size when both sides report one, and a
    corrected gap within the window. Each digest and each object is
    swept in time order (see ``_Sweep``), so no pass builds the cross
    product of a repeated key. Output is the ``links.json`` rows, sorted
    by (tier, device record id); each names the linked event's
    ``account`` and ``kind``. ``index`` is ``digest_index`` over both
    sides, built here if not given.
    """
    used_records: set[str] = set()
    used_events: set[str] = set()

    if index is None:
        index = digest_index(device_records, cloud_events)
    shared = index[0]
    exact = _Sweep(used_records, used_events, skew["offset_seconds"], max_gap=None)
    for dated, _, events in shared:
        # An item carries one digest, so it sits in that digest's line only.
        exact.add_line(dated, events, disjoint=True)
    exact.run()
    for _, undated, events in shared:
        if undated:
            leftover = sorted(event_id for _, event_id in events if event_id not in used_events)
            for record_id, event_id in zip(sorted(undated), leftover):
                exact.link(record_id, event_id, None)

    window = _Sweep(used_records, used_events, skew["offset_seconds"], max_gap=window_seconds)
    for records, events, disjoint in _window_lines(
        device_records, cloud_events, used_records, used_events
    ):
        window.add_line(records, events, disjoint)
    window.run()

    events_by_id = {event.event_id: event for event in cloud_events}
    rows = []
    for tier, sweep in ((EXACT_DIGEST, exact), ("MetadataWindow", window)):
        for record_id, event_id, delta in sorted(sweep.links):
            event = events_by_id[event_id]
            rows.append({
                "device_record_id": record_id,
                "cloud_event_id": event_id,
                "tier": tier,
                "time_delta_seconds": delta,
                "account": event.account,
                "kind": event.kind,
            })
    return rows


def build_timeline(
    device_records: Sequence[EvidenceRecord],
    cloud_events: Sequence[CloudEvent],
    skew: dict,
    out_of_range: Optional[list[str]] = None,
) -> dict:
    """Merge both sides onto the device clock, as the ``timeline.json`` payload.

    Cloud timestamps are shifted by minus the estimated offset. An event
    that the shift moves out of 1970-2100 is left off, and its id is
    appended to ``out_of_range`` when one is given. The sort is total:
    time, then Device before Cloud, then id, so the result is
    byte-stable across runs and input orderings. Each time is formatted
    once. Undated records are excluded and counted.
    """
    # (time, side, id, ISO time, label); side 0 is the device, 1 the cloud.
    rows = []
    excluded = 0
    for record in device_records:
        stamp = record.timestamp
        if stamp is None:
            excluded += 1
        else:
            rows.append(
                (stamp.seconds_since_epoch, 0, record.record_id, stamp.to_iso(), record.category)
            )
    offset = skew["offset_seconds"]
    for event in cloud_events:
        stamp = event.timestamp
        if offset:
            seconds = stamp.seconds_since_epoch - offset
            if not EPOCH_MIN <= seconds <= EPOCH_MAX:
                if out_of_range is not None:
                    out_of_range.append(event.event_id)
                continue
            iso = epoch_to_iso(seconds)
        else:
            seconds, iso = stamp.seconds_since_epoch, stamp.to_iso()
        rows.append((seconds, 1, event.event_id, iso, event.kind))
    rows.sort()
    sources = (DEVICE, "Cloud")
    return {
        "entries": [
            {"timestamp_utc": iso, "source": sources[side], "id": ref_id, "label": label}
            for _, side, ref_id, iso, label in rows
        ],
        "excluded_undated": excluded,
    }


def _finding(kind: str, confidence: str, supporting_ids: list[str], narrative: str) -> dict:
    """One ``findings.json`` row, before its id is assigned."""
    return {
        "kind": kind,
        "confidence": confidence,
        "supporting_ids": supporting_ids,
        "narrative": narrative,
    }


def detect_uninstall_evidence(
    device_records: Sequence[EvidenceRecord], cloud_events: Sequence[CloudEvent]
) -> list[dict]:
    """Flag packages that were used against the cloud and then removed.

    The device inventory is the lines ``parse_app_inventory`` keeps,
    each keyed by its ``package``, or by its ``name`` when ``package`` is
    missing or empty. A package qualifies when the inventory lists it as
    uninstalled, or the cloud logged its install while the device has no
    trace of it, provided the cloud saw at least one event for it.
    Confidence is High when the cloud also logged the uninstall. Each
    finding is a ``findings.json`` row without its ``finding_id``.
    """
    events_by_package: dict[str, list[CloudEvent]] = {}
    for event in cloud_events:
        if event.package_or_object:
            events_by_package.setdefault(event.package_or_object, []).append(event)

    device_packages: set[str] = set()
    # The record id of each uninstalled package's last inventory line.
    uninstalled: dict[str, str] = {}
    for app in parse_app_inventory(device_records):
        package = app.attributes.get("package") or app.attributes["name"]
        device_packages.add(package)
        if app.attributes["status"].lower() == UNINSTALLED:
            uninstalled[package] = app.record_id

    findings = []
    for package in sorted(events_by_package):
        events = events_by_package[package]
        orphan_install = (
            any(e.kind == "Install" for e in events)
            and package not in device_packages
        )
        if package not in uninstalled and not orphan_install:
            continue
        cloud_uninstall = any(e.kind == "Uninstall" for e in events)
        supporting: list[str] = []
        if package in uninstalled:
            supporting.append(uninstalled[package])
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
            _finding(
                APP_USED_THEN_UNINSTALLED,
                HIGH if cloud_uninstall else MEDIUM,
                supporting,
                f"Package {package} produced {len(events)} cloud event(s); "
                f"{source}, and {closer}.",
            )
        )
    return findings


def derive_cloud_usage_findings(
    links: Sequence[dict],
    uninstall_findings: Sequence[dict],
    cloud_events: Sequence[CloudEvent],
    skew: dict,
) -> list[dict]:
    """Assemble the final ordered finding list, as the ``findings.json`` rows.

    The upload and download links become one proven-transfer finding
    per (link ``account``, link ``kind``, tier), built in one pass over
    the links: digest matches are High confidence, window matches
    Medium. Each names the record and event ids of its group's first
    link, and counts the group's links in ``link_count``; ``first_utc``
    and ``last_utc`` are the group's earliest and latest corrected cloud
    times, as the timeline writes them, or null when the skew moves
    every one out of 1970-2100. Every account with a login event becomes
    an account-activity finding, and the uninstall findings are folded
    in. Order is (kind, first supporting id, then input order), and ids
    ``F001``, ``F002``, ... follow that order.
    Narratives are templated, never free text.
    """
    offset = skew["offset_seconds"]
    # Per group: its first link, its link count, and its earliest and
    # latest corrected time in range (none in range while low > high).
    groups: dict[tuple[str, str, str], list] = {}
    seconds_of = {
        event.event_id: event.timestamp.seconds_since_epoch
        for event in cloud_events
        if event.kind in _PROVEN
    }
    for link in links:
        kind = link["kind"]
        if kind not in _PROVEN:
            continue
        key = (link["account"], kind, link["tier"])
        group = groups.get(key)
        if group is None:
            group = groups[key] = [link, 0, EPOCH_MAX + 1, EPOCH_MIN - 1]
        group[1] += 1
        seconds = seconds_of[link["cloud_event_id"]] - offset
        if EPOCH_MIN <= seconds <= EPOCH_MAX:
            if seconds < group[2]:
                group[2] = seconds
            if seconds > group[3]:
                group[3] = seconds

    findings: list[dict] = []
    for (account, kind, tier), (link, count, low, high) in groups.items():
        exact = tier == EXACT_DIGEST
        basis = (
            "an exact content digest match"
            if exact
            else "matching object metadata inside the sync window"
        )
        first, last = (epoch_to_iso(low), epoch_to_iso(high)) if low <= high else (None, None)
        span = (
            f"corrected cloud times {first} to {last}"
            if first is not None
            else "no corrected cloud time in 1970-2100"
        )
        owner = f"account {account}" if account else "no account"
        finding = _finding(
            _PROVEN[kind],
            HIGH if exact else MEDIUM,
            [link["device_record_id"], link["cloud_event_id"]],
            f"{count} device artifact(s) are the same object(s) as {kind} cloud "
            f"event(s) of {owner}, each established by {basis}; {span}.",
        )
        finding.update(account=account, tier=tier, link_count=count, first_utc=first, last_utc=last)
        findings.append(finding)

    logins_by_account: dict[str, list[str]] = {}
    for event in cloud_events:
        if event.kind == "Login" and event.account:
            logins_by_account.setdefault(event.account, []).append(event.event_id)
    for account in sorted(logins_by_account):
        event_ids = sorted(logins_by_account[account])
        findings.append(_finding(
            ACCOUNT_ACTIVITY,
            HIGH,
            event_ids,
            f"Account {account} authenticated against the cloud service "
            f"{len(event_ids)} time(s).",
        ))

    findings += uninstall_findings
    findings.sort(key=lambda f: (_KIND_ORDER[f["kind"]], f["supporting_ids"][0]))
    return [{"finding_id": f"F{number:03d}", **f} for number, f in enumerate(findings, start=1)]
