"""Offline open-source-intelligence enrichment.

Builds an identity graph from the identifiers found in communication
artifacts and resolves IP addresses against a bundled range table.
Nothing here touches the network; results must be reproducible in
court, so only local lookup data participates. The graph and each geo
hit come back as their stage-file payloads (``identity_graph.json``,
one ``geo.json`` row).
"""

from __future__ import annotations

from collections import Counter
import ipaddress
from pathlib import Path
from typing import Iterable, Optional
from bisect import bisect_right

from .acquisition import _integer, load_json, os_name
from .errors import MalformedTable
from .evidence import ArtifactCategory, EvidenceRecord, _Frozen, _set


# Message and call directions, lowercased.
_DIRECTIONS = ("incoming", "outgoing")
_BAD_DIRECTION = "direction not Incoming or Outgoing"


class GeoTable(_Frozen):
    """Sorted, non-overlapping IPv4 ranges with country and city labels."""

    __slots__ = _compared = ("name", "starts", "ends", "labels")

    name: str
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    labels: tuple[tuple[str, str], ...]

    def __init__(
        self,
        name: str,
        starts: tuple[int, ...],
        ends: tuple[int, ...],
        labels: tuple[tuple[str, str], ...],
    ) -> None:
        _set(self, "name", name)
        _set(self, "starts", starts)
        _set(self, "ends", ends)
        _set(self, "labels", labels)


def normalize_identifier(raw: str) -> Optional[tuple[str, str]]:
    """Normalize one identifier to a (kind, value) pair, kind ``Email`` or ``Phone``.

    Emails are lowercased, phones kept digits-only. A leading ``+`` on a
    phone number is kept; no country code is ever inferred. Returns None
    when nothing usable remains. Pairs sort by kind, then value.
    """
    text = raw.strip()
    if not text:
        return None
    if "@" in text:
        return ("Email", text.lower())
    digits = "".join(ch for ch in text if ch.isdigit())
    if not digits:
        return None
    if text.startswith("+"):
        digits = "+" + digits
    return ("Phone", digits)


def build_identity_graph(
    records: Iterable[EvidenceRecord], left_out: Optional[list[tuple[str, str]]] = None
) -> dict:
    """Connect identifiers that co-occur in one artifact of a dump.

    A contact ties its own numbers together; each message or call ties
    its peer to every account configured on the device. Of the comm
    records, these take part, and the rest are left out:

    - a configured account, by its ``address_or_number``;
    - a contact whose ``numbers``, when present, is a JSON list of strings;
    - a message whose ``direction``, when present, is Incoming or Outgoing;
    - a dated call whose ``direction`` is Incoming or Outgoing, and whose
      ``duration_s``, when present, ``int()`` reads.

    Each record left out is appended to ``left_out``, when one is given,
    as its id and the first rule above it breaks: ``direction not
    Incoming or Outgoing``, ``undated call``, ``duration_s not an
    integer`` or ``numbers not a JSON list of strings``.

    Directions match case-insensitively. The result is the
    ``identity_graph.json`` payload: nodes in (kind, value) order, and
    each edge once, its ends in that order, with the number of
    artifacts both ends appeared in. Construction is order-independent,
    so permuting the records cannot change the graph.
    """
    nodes: set[tuple[str, str]] = set()
    edges: dict[tuple[tuple[str, str], tuple[str, str]], int] = {}

    def add_artifact(identifiers: Iterable[tuple[str, str]], count: int = 1) -> None:
        group = sorted(set(identifiers))
        nodes.update(group)
        for index, first in enumerate(group):
            for second in group[index + 1 :]:
                edges[first, second] = edges.get((first, second), 0) + count

    owners: list[tuple[str, str]] = []
    peers: Counter[str] = Counter()
    for record in records:
        category, attrs = record.category, record.attributes
        reason = None
        if category is ArtifactCategory.MESSAGE:
            direction = attrs.get("direction")
            if direction is None or direction.lower() in _DIRECTIONS:
                peers[attrs.get("peer", "")] += 1
            else:
                reason = _BAD_DIRECTION
        elif category is ArtifactCategory.CALL_RECORD:
            if attrs.get("direction", "").lower() not in _DIRECTIONS:
                reason = _BAD_DIRECTION
            elif record.timestamp is None:
                reason = "undated call"
            elif "duration_s" in attrs and _integer(attrs["duration_s"]) is None:
                reason = "duration_s not an integer"
            else:
                peers[attrs.get("peer", "")] += 1
        elif category is ArtifactCategory.CONTACT:
            numbers = _string_list(attrs["numbers"]) if "numbers" in attrs else []
            if numbers is None:
                reason = "numbers not a JSON list of strings"
            else:
                found = [normalize_identifier(number) for number in numbers]
                add_artifact(i for i in found if i is not None)
        elif category is ArtifactCategory.CONFIGURED_EMAIL:
            owner = normalize_identifier(attrs.get("address_or_number", ""))
            if owner is not None:
                owners.append(owner)
        if reason is not None and left_out is not None:
            left_out.append((record.record_id, reason))

    nodes.update(owners)
    # Every message or call with one normalized peer adds the same edges,
    # so each distinct peer adds them once, weighted by its artifacts.
    by_peer: Counter[tuple[str, str]] = Counter()
    for raw, count in peers.items():
        peer = normalize_identifier(raw)
        if peer is not None:
            by_peer[peer] += count
    for peer, count in by_peer.items():
        add_artifact([peer, *owners], count)

    node = {(kind, value): {"kind": kind, "value": value} for kind, value in sorted(nodes)}
    return {
        "nodes": list(node.values()),
        "edges": [
            {"a": node[a], "b": node[b], "count": count}
            for (a, b), count in sorted(edges.items())
        ],
    }


def _string_list(text: str) -> Optional[list[str]]:
    """The JSON list of strings that ``text`` holds, or None if it holds anything else."""
    try:
        value = load_json(text)
    except (ValueError, RecursionError):
        return None
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return value
    return None


def load_geo_table(path: Path | str) -> GeoTable:
    """Load a CSV of (range_start_ip, range_end_ip, country, city) rows.

    Rows must already be sorted by range start and must not overlap;
    violations raise MalformedTable at load so later lookups can trust
    binary search. So does a file that is not UTF-8 or that csv cannot
    read, such as one with a field over csv's size limit.
    """
    import csv  # only --geo-table reads CSV

    table_path = Path(path)
    starts: list[int] = []
    ends: list[int] = []
    labels: list[tuple[str, str]] = []
    with open(table_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            for row_no, row in enumerate(reader, start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) < 4:
                    raise MalformedTable(
                        f"{table_path}:{row_no}: need 4 columns, got {len(row)}"
                    )
                try:
                    start = int(ipaddress.IPv4Address(row[0].strip()))
                    end = int(ipaddress.IPv4Address(row[1].strip()))
                except ipaddress.AddressValueError as exc:
                    raise MalformedTable(f"{table_path}:{row_no}: {exc}") from exc
                if end < start:
                    raise MalformedTable(f"{table_path}:{row_no}: range end precedes start")
                if starts and start <= ends[-1]:
                    raise MalformedTable(
                        f"{table_path}:{row_no}: ranges must be sorted and non-overlapping"
                    )
                starts.append(start)
                ends.append(end)
                labels.append((row[2].strip(), row[3].strip()))
        except UnicodeDecodeError as exc:
            raise MalformedTable(f"{table_path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise MalformedTable(f"{table_path}:{reader.line_num}: {exc}") from None
    return GeoTable(
        name=os_name(table_path.name), starts=tuple(starts), ends=tuple(ends), labels=tuple(labels)
    )


def resolve_ip(ip: str, geo_table: GeoTable) -> Optional[dict]:
    """Binary-search the range table for one ``geo.json`` row.

    A miss is an absent result, not an error.
    """
    try:
        value = int(ipaddress.IPv4Address(ip.strip()))
    except ipaddress.AddressValueError:
        return None
    index = bisect_right(geo_table.starts, value) - 1
    if index < 0 or value > geo_table.ends[index]:
        return None
    country, city = geo_table.labels[index]
    return {"ip": ip.strip(), "country": country, "city": city, "source_table": geo_table.name}
