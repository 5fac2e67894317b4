"""Chain of custody over ingested records.

Sealing computes a linked SHA-256 chain across the record sequence so
later verification can not only detect a modified dump but point at the
first record index where it diverges. Diffing compares two acquisitions
of the same device record-by-record.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from . import atomic
from .acquisition import LONE_SURROGATE, DeviceDump, load_json, lone_surrogate
from .errors import (
    DeviceMismatch,
    ImpossibleDate,
    MalformedManifest,
    MissingManifest,
    RecordCountMismatch,
    UnparseableTimestamp,
    UnsupportedAlgorithm,
)
from .evidence import (
    DIGEST_ALGORITHM,
    FIELD_SEP,
    RECORD_TERM,
    EvidenceRecord,
    Locale,
    canonical_encode,  # noqa: F401  re-exported: the encoding the chain hashes
    checked_digest_hex,
    normalize_timestamp,
)

SEALED_MANIFEST = "manifest.sealed.json"


class IsolationMethod(Enum):
    AIRPLANE_MODE = "AirplaneMode"
    POWERED_OFF = "PoweredOff"
    SHIELDED_CONTAINER = "ShieldedContainer"
    RADIO_ISOLATION = "RadioIsolation"
    NONE = "None"


# The chain verdicts, as verification.json holds them.
INTACT = "Intact"
TAMPERED = "Tampered"


def manifest_header_bytes(manifest: dict) -> bytes:
    """Fixed header encoding that anchors the chain, same field rules as records.

    Reads the header fields of a ``manifest.sealed.json`` payload,
    ``collected_at`` in its ISO-Z form.
    """
    fields = (
        manifest["dump_id"],
        manifest["collected_at"],
        manifest["examiner"],
        manifest["digest_algorithm"],
    )
    return FIELD_SEP.join(f.encode("utf-8") for f in fields) + RECORD_TERM


def chain_digest(
    manifest_header: bytes, records: Sequence[EvidenceRecord]
) -> tuple[bytes, list[bytes]]:
    """Linked hash chain over the record sequence.

    The anchor is the digest of the header bytes; each link hashes the
    previous link concatenated with the record's canonical encoding,
    taken from ``record.canonical``.
    Returns the 32-byte chain head and one 32-byte link per record, in order.
    """
    current = hashlib.sha256(manifest_header).digest()
    links: list[bytes] = []
    for record in records:
        current = hashlib.sha256(current + record.canonical).digest()
        links.append(current)
    return current, links


def seal_dump(
    dump: DeviceDump,
    examiner: str = "unknown",
    isolation_method: IsolationMethod = IsolationMethod.NONE,
) -> dict:
    """Compute the chain over a dump's records.

    Returns the ``manifest.sealed.json`` payload: the header fields, then
    the chain head and the running chain value after each record (so
    tampering can be localized to an index), as lowercase hex.
    """
    manifest = {
        "dump_id": dump.dump_id,
        "collected_at": dump.collected_at.to_iso(),
        "examiner": examiner,
        "isolation_method": isolation_method.value,
        "digest_algorithm": DIGEST_ALGORITHM,
        "record_count": len(dump.records),
    }
    head, links = chain_digest(manifest_header_bytes(manifest), dump.records)
    manifest["chain_head"] = head.hex()
    manifest["record_links"] = [link.hex() for link in links]
    return manifest


def verify_chain(manifest: dict, records: Sequence[EvidenceRecord]) -> dict:
    """Recompute the chain and compare it to a sealed manifest payload.

    ``manifest`` is as ``seal_dump`` or ``load_sealed_manifest`` returns
    it, digests in lowercase hex. Returns the ``verification.json``
    payload: the verdict's value, and when tampered the smallest record
    index whose recomputed link differs from the stored one, with the
    expected and actual digests at that index in hex. Intact means the
    recomputed head equals the sealed head, and leaves the other three
    fields null.
    """
    algorithm, count = manifest["digest_algorithm"], manifest["record_count"]
    sealed_links = manifest["record_links"]
    if algorithm != DIGEST_ALGORITHM:
        raise UnsupportedAlgorithm(f"cannot verify algorithm {algorithm!r}, only {DIGEST_ALGORITHM}")
    if count != len(records):
        raise RecordCountMismatch(f"manifest sealed {count} records, got {len(records)}")
    if len(sealed_links) != count:
        raise RecordCountMismatch(f"manifest stores {len(sealed_links)} links for {count} records")

    head, links = chain_digest(manifest_header_bytes(manifest), records)
    if head.hex() == manifest["chain_head"]:
        return _verification(INTACT, None, None, None)
    for index, (stored, recomputed) in enumerate(zip(sealed_links, links)):
        if stored != recomputed.hex():
            return _verification(TAMPERED, index, stored, recomputed.hex())
    # Head mismatch with no divergent link means the sealed head itself
    # was altered; the earliest suspect index is 0.
    return _verification(TAMPERED, 0, manifest["chain_head"], head.hex())


def _verification(
    verdict: str, index: Optional[int], expected: Optional[str], actual: Optional[str]
) -> dict:
    return {
        "verdict": verdict,
        "first_divergent_index": index,
        "expected": expected,
        "actual": actual,
    }


def diff_acquisitions(a: DeviceDump, b: DeviceDump, allow_device_mismatch: bool = False) -> dict:
    """Compare two acquisitions record-by-record, matched on record id.

    Both dumps must state the same device IMEI unless the override flag
    is set: a dump that states none cannot be shown to come from the
    other's device. Returns the ``diff.json`` payload: the ids
    ``added`` to ``b``, ``removed`` from it and ``changed`` (present in
    both, with different digests), each sorted, and the
    ``identical_count``.
    """
    imei_a = a.device["imei"]
    imei_b = b.device["imei"]
    if not allow_device_mismatch and (imei_a is None or imei_a != imei_b):
        if imei_a is None or imei_b is None:
            unstated = (
                "neither dump states an IMEI" if imei_a is None and imei_b is None
                else f"the {'first' if imei_a is None else 'second'} dump states no IMEI"
            )
            reason = f"{unstated}, so the dumps cannot be shown to come from one device"
        else:
            reason = f"dumps claim different devices (imei {imei_a!r} vs {imei_b!r})"
        raise DeviceMismatch(f"{reason}; pass the override flag to diff anyway")
    by_id_a = {r.record_id: r for r in a.records}
    by_id_b = {r.record_id: r for r in b.records}
    added = sorted(set(by_id_b) - set(by_id_a))
    removed = sorted(set(by_id_a) - set(by_id_b))
    changed = sorted(
        rid
        for rid in set(by_id_a) & set(by_id_b)
        if by_id_a[rid].digest != by_id_b[rid].digest
    )
    identical = len(set(by_id_a) & set(by_id_b)) - len(changed)
    return {"added": added, "removed": removed, "changed": changed, "identical_count": identical}


def write_sealed_manifest(manifest: dict, bundle_path: Path | str) -> Path:
    """Write the payload as manifest.sealed.json beside the bundle's category files, atomically."""
    path = Path(bundle_path) / SEALED_MANIFEST
    atomic.write_bytes(path, (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return path


_SEALED_STRINGS = ("dump_id", "collected_at", "examiner", "isolation_method", "digest_algorithm")


def load_sealed_manifest(bundle_path: Path | str) -> dict:
    """Read manifest.sealed.json; any malformed content raises MalformedManifest.

    Returns the payload in the form ``seal_dump`` gives it: digests in
    lowercase hex, ``collected_at`` in its ISO-Z rendering, and only the
    fields the format defines.
    """
    path = Path(bundle_path) / SEALED_MANIFEST
    if not path.is_file():
        raise MissingManifest(f"no {SEALED_MANIFEST} in {bundle_path}; seal the bundle first")
    try:
        data = load_json(path.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedManifest(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedManifest(f"{path} must hold a JSON object")
    for key in (*_SEALED_STRINGS, "record_count", "chain_head", "record_links"):
        if key not in data:
            raise MalformedManifest(f"{path} missing field {key!r}")
    for key in _SEALED_STRINGS:
        if not isinstance(data[key], str):
            raise MalformedManifest(f"{path} field {key!r} must be a string")
        if lone_surrogate(data[key]):
            raise MalformedManifest(f"{path} field {key!r} {LONE_SURROGATE}")
    count = data["record_count"]
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise MalformedManifest(f"{path} field 'record_count' must be a count, got {count!r}")
    try:
        IsolationMethod(data["isolation_method"])
    except ValueError:
        raise MalformedManifest(
            f"{path} field 'isolation_method' has unknown value {data['isolation_method']!r}"
        ) from None
    try:
        collected_at = normalize_timestamp(data["collected_at"], Locale.DAY_FIRST, 0)
    except (UnparseableTimestamp, ImpossibleDate) as exc:
        raise MalformedManifest(f"{path} field 'collected_at': {exc}") from None
    links = data["record_links"]
    if not isinstance(links, list):
        raise MalformedManifest(f"{path} field 'record_links' must be a list")
    return {
        "dump_id": data["dump_id"],
        "collected_at": collected_at.to_iso(),
        "examiner": data["examiner"],
        "isolation_method": data["isolation_method"],
        "digest_algorithm": data["digest_algorithm"],
        "record_count": count,
        "chain_head": _sealed_link(data["chain_head"], path, "chain_head"),
        "record_links": _sealed_links(links, path),
    }


def _sealed_links(links: list, path: Path) -> list[str]:
    """Every sealed link's hex text in lowercase, checked in one pass.

    When every link is a 64-character str and their text reads as 32
    bytes per link, no link holds anything but hex digits. Otherwise each
    is checked in turn, so the first bad one is named.
    """
    try:
        raw = bytes.fromhex("".join(links))
    except (TypeError, ValueError):
        raw = b""
    if len(raw) == 32 * len(links) and set(map(len, links)) <= {64}:
        text = raw.hex()
        return [text[start : start + 64] for start in range(0, len(text), 64)]
    return [_sealed_link(text, path, "record_links", i) for i, text in enumerate(links)]


def _sealed_link(text: object, path: Path, name: str, index: Optional[int] = None) -> str:
    """A sealed digest's hex text in lowercase; MalformedManifest if it names no 32 bytes."""
    try:
        return checked_digest_hex(text)
    except ValueError:
        where = name if index is None else f"{name}[{index}]"
        raise MalformedManifest(
            f"{path} field {where!r} must be 64 hex characters, got {text!r}"
        ) from None
