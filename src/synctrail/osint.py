"""Offline open-source-intelligence enrichment.

Builds an identity graph from the identifiers found in communication
artifacts and resolves IP addresses against a bundled range table.
Nothing here touches the network; results must be reproducible in
court, so only local lookup data participates.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional
from bisect import bisect_right

from .acquisition import _integer, load_json
from .errors import MalformedTable
from .evidence import ArtifactCategory, EvidenceRecord


# Message and call directions, lowercased.
_DIRECTIONS = ("incoming", "outgoing")


class IdKind(Enum):
    PHONE = "Phone"
    EMAIL = "Email"


@dataclass(frozen=True)
class Identifier:
    kind: IdKind
    value: str


@dataclass(frozen=True)
class IdentityGraph:
    """Co-occurrence graph over normalized identifiers.

    Edge keys are unordered pairs stored in canonical (sorted) order;
    the count says in how many artifacts both endpoints appeared.
    """

    nodes: frozenset[Identifier]
    edges: Mapping[tuple[Identifier, Identifier], int]


@dataclass(frozen=True)
class GeoRecord:
    ip: str
    country: str
    city: str
    source_table: str


@dataclass(frozen=True)
class GeoTable:
    """Sorted, non-overlapping IPv4 ranges with country and city labels."""

    name: str
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    labels: tuple[tuple[str, str], ...]


def normalize_identifier(raw: str) -> Optional[Identifier]:
    """Normalize one identifier: emails lowercase, phones digits-only.

    A leading ``+`` on a phone number is kept; no country code is ever
    inferred. Returns None when nothing usable remains.
    """
    text = raw.strip()
    if not text:
        return None
    if "@" in text:
        return Identifier(IdKind.EMAIL, text.lower())
    digits = "".join(ch for ch in text if ch.isdigit())
    if not digits:
        return None
    if text.startswith("+"):
        digits = "+" + digits
    return Identifier(IdKind.PHONE, digits)


def _edge_key(a: Identifier, b: Identifier) -> tuple[Identifier, Identifier]:
    ka = (a.kind.value, a.value)
    kb = (b.kind.value, b.value)
    return (a, b) if ka <= kb else (b, a)


def build_identity_graph(records: Iterable[EvidenceRecord]) -> IdentityGraph:
    """Connect identifiers that co-occur in one artifact of a dump.

    A contact ties its own numbers together; each message or call ties
    its peer to every account configured on the device. Of the comm
    records, these take part, and the rest are left out:

    - a configured account, by its ``address_or_number``;
    - a contact whose ``numbers``, when present, is a JSON list of strings;
    - a message whose ``direction``, when present, is Incoming or Outgoing;
    - a dated call whose ``direction`` is Incoming or Outgoing, and whose
      ``duration_s``, when present, ``int()`` reads.

    Directions match case-insensitively. Construction is
    order-independent, so permuting the records cannot change the graph.
    """
    nodes: set[Identifier] = set()
    edges: dict[tuple[Identifier, Identifier], int] = {}

    def add_artifact(identifiers: Iterable[Identifier]) -> None:
        group = sorted(set(identifiers), key=lambda i: (i.kind.value, i.value))
        nodes.update(group)
        for index, first in enumerate(group):
            for second in group[index + 1 :]:
                key = _edge_key(first, second)
                edges[key] = edges.get(key, 0) + 1

    owners: list[Identifier] = []
    peers: list[str] = []
    for record in records:
        category, attrs = record.category, record.attributes
        if category is ArtifactCategory.MESSAGE:
            direction = attrs.get("direction")
            if direction is None or direction.lower() in _DIRECTIONS:
                peers.append(attrs.get("peer", ""))
        elif category is ArtifactCategory.CALL_RECORD:
            if (
                attrs.get("direction", "").lower() in _DIRECTIONS
                and record.timestamp is not None
                and ("duration_s" not in attrs or _integer(attrs["duration_s"]) is not None)
            ):
                peers.append(attrs.get("peer", ""))
        elif category is ArtifactCategory.CONTACT:
            numbers = _string_list(attrs["numbers"]) if "numbers" in attrs else []
            if numbers is not None:
                found = [normalize_identifier(number) for number in numbers]
                add_artifact(i for i in found if i is not None)
        elif category is ArtifactCategory.CONFIGURED_EMAIL:
            owner = normalize_identifier(attrs.get("address_or_number", ""))
            if owner is not None:
                owners.append(owner)

    nodes.update(owners)
    for peer in map(normalize_identifier, peers):
        if peer is not None:
            add_artifact([peer, *owners])

    return IdentityGraph(nodes=frozenset(nodes), edges=edges)


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
    binary search.
    """
    table_path = Path(path)
    starts: list[int] = []
    ends: list[int] = []
    labels: list[tuple[str, str]] = []
    with open(table_path, newline="", encoding="utf-8") as handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 4:
                raise MalformedTable(f"{table_path}:{row_no}: need 4 columns, got {len(row)}")
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
    return GeoTable(
        name=table_path.name, starts=tuple(starts), ends=tuple(ends), labels=tuple(labels)
    )


def resolve_ip(ip: str, geo_table: GeoTable) -> Optional[GeoRecord]:
    """Binary-search the range table; a miss is an absent result, not an error."""
    try:
        value = int(ipaddress.IPv4Address(ip.strip()))
    except ipaddress.AddressValueError:
        return None
    index = bisect_right(geo_table.starts, value) - 1
    if index < 0 or value > geo_table.ends[index]:
        return None
    country, city = geo_table.labels[index]
    return GeoRecord(ip=ip.strip(), country=country, city=city, source_table=geo_table.name)
