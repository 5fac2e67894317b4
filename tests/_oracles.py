"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the same
rules as the production code, without importing its internals, so a
shared bug cannot hide on both sides of an assertion.
"""

from __future__ import annotations

import datetime
import json
import re


def civil_to_epoch(y: int, mo: int, d: int, h: int, mi: int, s: int) -> int:
    """Epoch seconds from a UTC civil time, via the days-from-civil algorithm."""
    y -= mo <= 2
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    doy = (153 * (mo + (-3 if mo > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    days = era * 146097 + doe - 719468
    return days * 86400 + h * 3600 + mi * 60 + s


def reference_encode(record) -> bytes:
    """Hand-rolled canonical record encoding over the same field rules."""
    out = bytearray()
    out += record.record_id.encode("utf-8")
    out += b"\x1f"
    out += record.category.encode("utf-8")
    out += b"\x1f"
    if record.timestamp is not None:
        out += record.timestamp.original_text.encode("utf-8")
    out += b"\x1f"
    out += b"Device"  # every record is read from the device
    for key in sorted(record.attributes.keys()):
        out += b"\x1f"
        out += key.encode("utf-8")
        out += b"\x1f"
        out += record.attributes[key].encode("utf-8")
    out += b"\x1e"
    return bytes(out)


def device_digest(record):
    """A device record's content digest in lowercase, or None.

    Only a value of exactly 64 hex digits, in either case, names a
    content; anything else, padded or short, names none.
    """
    raw = record.attributes.get("content_digest")
    return raw.lower() if raw is not None and re.fullmatch("[0-9a-fA-F]{64}", raw) else None


def lower_median(values) -> int:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return ordered[(len(ordered) - 1) // 2]


def reference_skew(device_records, cloud_events, min_support):
    """Clock skew by counting, for each content digest, every item that carries it.

    A digest gives one pair when it has exactly one cloud event, one
    dated device record and no undated record. Returns ``(skew, short)``:
    the ``skew.json`` payload over the pairs' cloud-minus-device deltas and
    None, or, when there are no pairs or fewer than ``min_support``, the
    offset-0 fallback payload and how many pairs there were and were needed.
    """

    digests = {device_digest(r) for r in device_records} | {e.content_digest for e in cloud_events}
    deltas = []
    for digest in digests - {None}:
        events = [e for e in cloud_events if e.content_digest == digest]
        copies = [r for r in device_records if device_digest(r) == digest]
        dated = [r for r in copies if r.timestamp is not None]
        undated = [r for r in copies if r.timestamp is None]
        if (len(events), len(dated), len(undated)) == (1, 1, 0):
            deltas.append(
                events[0].timestamp.seconds_since_epoch - dated[0].timestamp.seconds_since_epoch
            )
    if not deltas or len(deltas) < min_support:
        fallback = {"offset_seconds": 0, "support_count": 0, "spread_seconds": 0, "fallback": True}
        need = max(min_support, 1)
        return fallback, f"{len(deltas)} one-to-one digest pairs, need at least {need}"
    return {
        "offset_seconds": lower_median(deltas),
        "support_count": len(deltas),
        "spread_seconds": max(deltas) - min(deltas),
        "fallback": False,
    }, None


def brute_force_match(device_records, cloud_events, offset_seconds, window_seconds):
    """Exhaustive greedy assignment under the published matching rules.

    Recomputes the full candidate set and picks the global minimum on
    every step, with no indexing shortcuts. Returns tuples of
    (record_id, event_id, tier_name, delta).
    """

    def delta_of(record, event):
        if record.timestamp is None:
            return None
        return (
            event.timestamp.seconds_since_epoch
            - offset_seconds
            - record.timestamp.seconds_since_epoch
        )

    used_r: set[str] = set()
    used_e: set[str] = set()
    links = []

    # Tier 1: equal content digests, smallest corrected gap first.
    while True:
        best = None
        for record in device_records:
            if record.record_id in used_r or device_digest(record) is None:
                continue
            for event in cloud_events:
                if event.event_id in used_e or event.content_digest is None:
                    continue
                if device_digest(record) != event.content_digest:
                    continue
                delta = delta_of(record, event)
                rank = (
                    (1, 0, record.record_id, event.event_id)
                    if delta is None
                    else (0, abs(delta), record.record_id, event.event_id)
                )
                if best is None or rank < best[0]:
                    best = (rank, record.record_id, event.event_id, delta)
        if best is None:
            break
        used_r.add(best[1])
        used_e.add(best[2])
        links.append((best[1], best[2], "ExactDigest", best[3]))

    # Tier 2: same object name, equal size when both present, gap in window.
    while True:
        best = None
        for record in device_records:
            if record.record_id in used_r:
                continue
            name = record.attributes.get("object")
            if not name:
                continue
            raw_size = record.attributes.get("size_bytes")
            try:
                size = int(raw_size) if raw_size is not None else None
            except ValueError:
                size = None
            for event in cloud_events:
                if event.event_id in used_e:
                    continue
                if event.package_or_object != name:
                    continue
                if size is not None and event.size_bytes is not None and size != event.size_bytes:
                    continue
                delta = delta_of(record, event)
                if delta is None or abs(delta) > window_seconds:
                    continue
                rank = (abs(delta), record.record_id, event.event_id)
                if best is None or rank < best[0]:
                    best = (rank, record.record_id, event.event_id, delta)
        if best is None:
            break
        used_r.add(best[1])
        used_e.add(best[2])
        links.append((best[1], best[2], "MetadataWindow", best[3]))

    links.sort(key=lambda l: (0 if l[2] == "ExactDigest" else 1, l[0]))
    return links


def brute_force_transfer_groups(links, cloud_events, offset_seconds):
    """Proven-transfer groups by scanning every link and event, the long way.

    Each link to an Upload or Download event belongs to the group of its
    event's (account, kind value) and its tier. Returns a dict of group
    key to (link count, first link's (record id, event id), earliest and
    latest corrected cloud time as ISO-Z text, or None for both when the
    offset moves every one of the group's times out of 1970-2100).
    """
    latest = civil_to_epoch(2100, 12, 31, 23, 59, 59)
    keyed = []
    for link in links:
        (event,) = [e for e in cloud_events if e.event_id == link["cloud_event_id"]]
        if event.kind in ("Upload", "Download"):
            key = (event.account, event.kind, link["tier"])
            keyed.append((key, link, event.timestamp.seconds_since_epoch - offset_seconds))
    found = {}
    for key in dict.fromkeys(key for key, _, _ in keyed):
        members = [(link, time) for other, link, time in keyed if other == key]
        times = [time for _, time in members if 0 <= time <= latest]
        first = members[0][0]
        found[key] = (
            len(members),
            (first["device_record_id"], first["cloud_event_id"]),
            _iso(min(times)) if times else None,
            _iso(max(times)) if times else None,
        )
    return found


def _iso(epoch: int) -> str:
    moment = datetime.datetime(1970, 1, 1) + datetime.timedelta(seconds=epoch)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def linear_scan_geo(rows, ip_value: int):
    """Linear scan over (start, end, country, city) rows."""
    for start, end, country, city in rows:
        if start <= ip_value <= end:
            return country, city
    return None


def reference_checked_encode(record_id, category_text, timestamp_text, attributes, source_text):
    """Validate and encode record fields one at a time, the long way.

    The checks run in order: the id is nonempty and holds neither
    separator, then each attribute in insertion order has a nonempty
    string key and a string value, neither holding a separator. Then
    every field is encoded on its own, so an encode error names a
    position within its field. Raises whatever the first failing step
    raises; returns the canonical bytes otherwise.
    """

    def check_clean(text, what):
        for mark in ("\x1f", "\x1e"):
            if mark in text:
                raise ValueError(f"{what} contains reserved separator byte {mark!r}")

    if not record_id:
        raise ValueError("record_id must be nonempty")
    check_clean(record_id, "record_id")
    for key, value in attributes.items():
        if not isinstance(key, str) or not key:
            raise ValueError("attribute keys must be nonempty strings")
        if not isinstance(value, str):
            raise ValueError(f"attribute {key!r} value must be a string")
        check_clean(key, f"attribute key {key!r}")
        check_clean(value, f"attribute value for {key!r}")
    fields = [record_id, category_text, timestamp_text, source_text]
    for key in sorted(attributes):
        fields += [key, attributes[key]]
    return b"\x1f".join(field.encode("utf-8") for field in fields) + b"\x1e"


def report_layout(value) -> str:
    """The JSON report's text for ``value``, by its layout rule applied directly.

    A nonempty object or list is expanded: each member or item on a line
    of its own, two spaces deeper than the line that opens it, and the
    closing bracket back at that line's depth. A member is its key as
    json.dumps writes it, ``": "`` and its value laid out by this rule;
    an item is ``json.dumps(item, ensure_ascii=False)``, on one line.
    Anything else is json.dumps of it. The text ends in one newline.
    """

    def lay_out(value, depth: int) -> str:
        pad = "\n" + "  " * depth
        inner = pad + "  "
        if isinstance(value, dict) and value:
            members = []
            for key, item in value.items():
                # json.dumps of a one-member object shows how it writes the key.
                key_text = json.dumps({key: 0}, ensure_ascii=False)[1:-len(": 0}")]
                members.append(inner + key_text + ": " + lay_out(item, depth + 1))
            return "{" + ",".join(members) + pad + "}"
        if isinstance(value, (list, tuple)) and value:
            items = [inner + json.dumps(item, ensure_ascii=False) for item in value]
            return "[" + ",".join(items) + pad + "]"
        return json.dumps(value, ensure_ascii=False)

    return lay_out(value, 0) + "\n"


def _identifier(raw: str):
    """An identifier as (kind, value): emails lowercased, phones digits with a leading +."""
    text = raw.strip()
    if "@" in text:
        return ("Email", text.lower())
    digits = re.sub(r"\D", "", text)
    if not digits:
        return None
    return ("Phone", ("+" if text.startswith("+") else "") + digits)


def brute_force_identity_graph(records, left_out_ids):
    """The identity graph as (nodes, {(a, b): count}), by counting every pair of every artifact.

    ``left_out_ids`` names the comm records that take no part. Each
    contact is the set of its numbers; each message or call is its peer
    together with every configured account.
    """
    owners = set()
    contacts, peers = [], []
    for record in records:
        if record.record_id in left_out_ids:
            continue
        kind, attrs = record.category, record.attributes
        if kind == "ConfiguredEmail":
            owners.add(_identifier(attrs["address_or_number"]))
        elif kind == "Contact":
            numbers = json.loads(attrs.get("numbers", "[]"))
            contacts.append({_identifier(n) for n in numbers} - {None})
        elif kind in ("Message", "CallRecord"):
            peers.append(_identifier(attrs["peer"]))
    artifacts = contacts + [{peer} | owners for peer in peers]
    nodes = owners.union(*artifacts)
    edges: dict = {}
    for artifact in artifacts:
        for a in artifact:
            for b in artifact:
                if a < b:
                    edges[a, b] = edges.get((a, b), 0) + 1
    return nodes, edges
