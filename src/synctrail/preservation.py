"""Chain of custody over ingested records and the bundle files they came from.

Sealing computes a linked SHA-256 chain across the record sequence so
later verification can not only detect a modified dump but point at the
first record index where it diverges. The seal also records a file
table, the length and SHA-256 of every file ingest read, and a chain
head over the header and every link, so an intact bundle is verified by
hashing its files, without parsing a line. Diffing compares two
acquisitions of the same device record-by-record.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

from . import atomic
from .acquisition import DeviceDump, file_table, ingest_device_dump, load_json_file, shape_problem
from .errors import ForensicsError, ImpossibleDate, RecordCountMismatch, UnparseableTimestamp
from .evidence import (
    DIGEST_ALGORITHM,
    FIELD_SEP,
    LOCALES,
    RECORD_TERM,
    EvidenceRecord,
    # Unused here: perfbench/tracing.py wraps preservation.canonical_encode
    # by name, so a traced run fails without it (ROADMAP item 1).
    canonical_encode,  # noqa: F401
    checked_digest_hex,
    normalize_timestamp,
)

SEALED_MANIFEST = "manifest.sealed.json"


# Each way a device can be isolated, as seal --isolation spells it, and
# the isolation_method value the sealed manifest holds for it.
ISOLATION_METHODS = {
    "airplane-mode": "AirplaneMode",
    "none": "None",
    "powered-off": "PoweredOff",
    "radio-isolation": "RadioIsolation",
    "shielded-container": "ShieldedContainer",
}


# The chain verdicts, as verification.json holds them.
INTACT = "Intact"
TAMPERED = "Tampered"


def manifest_header_bytes(manifest: dict) -> bytes:
    """Fixed header encoding that anchors the chain, same field rules as records.

    Reads the anchor fields of a ``manifest.sealed.json`` payload,
    ``collected_at`` in its ISO-Z form. The anchor leaves out the file
    table, so a changed file moves no link but those of its own records.
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


_HEADER_FIELDS = (
    "dump_id", "collected_at", "examiner", "isolation_method", "digest_algorithm", "locale",
)


def sealed_header_bytes(manifest: dict) -> bytes:
    """Every header field of a manifest that seals a file table, encoded injectively.

    The compact JSON array, every character outside ASCII escaped, of
    ``dump_id``, ``collected_at`` (ISO), ``examiner``,
    ``isolation_method``, ``digest_algorithm``, ``locale``, the file
    table as ``[name, bytes, sha256]`` triples, and the unrecognized
    file names. JSON escapes 0x1f and 0x1e, so no name can shift bytes
    from one field into another.
    """
    files = [[row["name"], row["bytes"], row["sha256"]] for row in manifest["files"]]
    header = [*(manifest[key] for key in _HEADER_FIELDS), files, manifest["unrecognized_files"]]
    return json.dumps(header, separators=(",", ":")).encode("ascii")


def head_digest(manifest: dict, links: bytes) -> bytes:
    """The chain head that a manifest's header and ``links``, 32 bytes each in order, give.

    For a manifest that seals a file table it is SHA-256 over
    ``sealed_header_bytes`` followed by the links, so it commits to the
    header, the file table and every link. For one that does not, it is
    the last link, or with no records the anchor's digest.
    """
    if "files" in manifest:
        return hashlib.sha256(sealed_header_bytes(manifest) + links).digest()
    return links[-32:] if links else hashlib.sha256(manifest_header_bytes(manifest)).digest()


def head_follows(manifest: dict) -> bool:
    """Whether a manifest's chain head is the one its own header and stored links give."""
    links = bytes.fromhex("".join(manifest["record_links"]))
    return head_digest(manifest, links).hex() == manifest["chain_head"]


def seal_dump(
    dump: DeviceDump,
    examiner: str = "unknown",
    isolation_method: str = "None",
) -> dict:
    """Compute the chain over a dump's records and seal its file table.

    Returns the ``manifest.sealed.json`` payload: the header fields, the
    locale and file table the dump was read with, then the chain head
    and the running chain value after each record (so tampering can be
    localized to an index), as lowercase hex. ``isolation_method`` is
    one of ``ISOLATION_METHODS``' values and ``dump.locale`` one of
    ``LOCALES``; any other value is refused.
    """
    if isolation_method not in ISOLATION_METHODS.values():
        raise ValueError(f"unknown isolation method {isolation_method!r}")
    if dump.locale not in LOCALES:
        raise ValueError(f"locale must be one of {', '.join(LOCALES)}, got {dump.locale!r}")
    manifest = {
        "dump_id": dump.dump_id,
        "collected_at": dump.collected_at.to_iso(),
        "examiner": examiner,
        "isolation_method": isolation_method,
        "digest_algorithm": DIGEST_ALGORITHM,
        "locale": dump.locale,
        "record_count": len(dump.records),
        "files": [dict(row) for row in dump.files],
        "unrecognized_files": list(dump.unrecognized_files),
    }
    _, links = chain_digest(manifest_header_bytes(manifest), dump.records)
    manifest["chain_head"] = head_digest(manifest, b"".join(links)).hex()
    manifest["record_links"] = [link.hex() for link in links]
    return manifest


def verify_chain(manifest: dict, records: Sequence[EvidenceRecord]) -> dict:
    """Recompute the chain and compare it to a sealed manifest payload.

    ``manifest`` is as ``seal_dump`` or ``load_sealed_manifest`` returns
    it, digests in lowercase hex. Returns the ``verification.json``
    payload: the verdict's value, and when tampered the smallest record
    index whose recomputed link differs from the stored one, with the
    expected and actual digests at that index in hex. Intact means every
    stored link equals the recomputed one and the sealed head equals
    ``head_digest`` of the recomputed links, and leaves the other three
    fields null. The file table is not read here: ``table_problem``
    compares it.
    """
    algorithm, count = manifest["digest_algorithm"], manifest["record_count"]
    sealed_links = manifest["record_links"]
    if algorithm != DIGEST_ALGORITHM:
        raise ForensicsError(f"cannot verify algorithm {algorithm!r}, only {DIGEST_ALGORITHM}")
    if count != len(records):
        raise RecordCountMismatch(f"manifest sealed {count} records, got {len(records)}")
    if len(sealed_links) != count:
        raise RecordCountMismatch(f"manifest stores {len(sealed_links)} links for {count} records")

    _, links = chain_digest(manifest_header_bytes(manifest), records)
    joined = b"".join(links)
    head = head_digest(manifest, joined)
    if head.hex() == manifest["chain_head"] and joined == bytes.fromhex("".join(sealed_links)):
        return _verification(INTACT, None, None, None)
    for index, (stored, recomputed) in enumerate(zip(sealed_links, links)):
        if stored != recomputed.hex():
            return _verification(TAMPERED, index, stored, recomputed.hex())
    # Head mismatch with no divergent link means the sealed head itself,
    # or a header field it commits to, was altered; the earliest suspect
    # index is 0.
    return _verification(TAMPERED, 0, manifest["chain_head"], head.hex())


def table_problem(
    manifest: dict, files: Sequence[dict], unrecognized: Sequence[str]
) -> Optional[str]:
    """How a bundle's file table differs from the sealed one, naming the first differing file.

    None when the manifest seals exactly ``files`` and ``unrecognized``,
    or seals no file table. Read files are taken in the order ingest
    reads them, then added unrecognized names, then sealed names the
    bundle no longer holds.
    """
    if "files" not in manifest or (
        manifest["files"] == list(files) and manifest["unrecognized_files"] == list(unrecognized)
    ):
        return None
    sealed = {row["name"]: row for row in manifest["files"]}
    for row in files:
        was = sealed.pop(row["name"], None)
        if was is None:
            return f"{row['name']} was not in the bundle when it was sealed"
        if was != row:
            return (
                f"{row['name']} is {row['bytes']} bytes with SHA-256 {row['sha256']}; "
                f"sealed {was['bytes']} bytes with SHA-256 {was['sha256']}"
            )
    sealed_names = manifest["unrecognized_files"]
    added = [name for name in unrecognized if name not in sealed_names]
    if added:
        return f"{added[0]} was not in the bundle when it was sealed"
    missing = [*sealed, *(name for name in sealed_names if name not in unrecognized)]
    if missing:
        return f"{missing[0]} was sealed but is missing from the bundle"
    return "the sealed file table lists the bundle's files in another order"


def verify_bundle(
    bundle: Path | str, manifest: dict, locale: str, dump: Optional[DeviceDump] = None
) -> tuple[dict, list[str]]:
    """Decide a bundle's custody against its sealed manifest.

    Returns the ``verification.json`` payload and the reasons a Tampered
    verdict gives, one stderr line each. ``dump`` is the bundle as
    already read, if it was. When the manifest seals a file table equal
    to the bundle's (the dump's, or else one hashing pass), names the
    supported algorithm, stores one link per sealed record and its head
    follows from its header and links, the bundle is Intact with no line
    parsed: its records would be read, with the sealed locale, from the
    very bytes that were sealed. Otherwise the bundle is read with the
    sealed locale (``locale`` for a manifest without a table) and the
    chain walked. A record added or removed, or a file that differs
    while every link holds, is Tampered at index 0 with no digests.
    """
    if "files" in manifest:
        locale = manifest["locale"]
        files = file_table(bundle) if dump is None else (dump.files, dump.unrecognized_files)
        if (
            table_problem(manifest, *files) is None
            and manifest["digest_algorithm"] == DIGEST_ALGORITHM
            and len(manifest["record_links"]) == manifest["record_count"]
            and head_follows(manifest)
        ):
            return _verification(INTACT, None, None, None), []
    if dump is None or dump.locale != locale:
        dump = ingest_device_dump(bundle, locale)
    try:
        verification = verify_chain(manifest, dump.records)
    except RecordCountMismatch as exc:
        return _verification(TAMPERED, 0, None, None), [f"verification failed: {exc}"]
    if verification["verdict"] == INTACT:
        problem = table_problem(manifest, dump.files, dump.unrecognized_files)
        if problem:
            return _verification(TAMPERED, 0, None, None), [f"verification failed: {problem}"]
    elif "files" in manifest and not head_follows(manifest):
        return verification, [
            f"verification failed: {SEALED_MANIFEST} was edited: its chain head does not follow "
            "from its header and record links"
        ]
    return verification, []


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
    both, with different canonical bytes, so with different digests),
    each sorted, and the ``identical_count``.
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
        raise ForensicsError(f"{reason}; pass the override flag to diff anyway")
    by_id_a = {r.record_id: r for r in a.records}
    by_id_b = {r.record_id: r for r in b.records}
    added = sorted(set(by_id_b) - set(by_id_a))
    removed = sorted(set(by_id_a) - set(by_id_b))
    shared = by_id_a.keys() & by_id_b.keys()
    changed = sorted(rid for rid in shared if by_id_a[rid].canonical != by_id_b[rid].canonical)
    identical = len(shared) - len(changed)
    return {"added": added, "removed": removed, "changed": changed, "identical_count": identical}


def write_sealed_manifest(manifest: dict, bundle_path: Path | str) -> Path:
    """Write the payload as manifest.sealed.json beside the bundle's category files, atomically."""
    path = Path(bundle_path) / SEALED_MANIFEST
    atomic.write_bytes(
        path, (json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    )
    return path


# What a sealed manifest holds, as shapes (see acquisition.shape_problem):
# every manifest _SEALED, and one that seals a file table _SEALED_TABLE too.
_SEALED = {
    "dump_id": str, "collected_at": str, "examiner": str, "isolation_method": str,
    "digest_algorithm": str, "record_count": int, "chain_head": None, "record_links": [None],
}
_SEALED_TABLE = {
    "locale": str, "unrecognized_files": [str],
    "files": [{"name": str, "bytes": int, "sha256": None}],
}


def load_sealed_manifest(bundle_path: Path | str) -> dict:
    """Read manifest.sealed.json, checked as a stage file is; raise ForensicsError if malformed.

    Returns the payload in the form ``seal_dump`` gives it: digests in
    lowercase hex, ``collected_at`` in its ISO-Z rendering, and only the
    fields the format defines. A manifest without ``files``, as written
    before seals held a file table, is read without ``locale``, ``files``
    and ``unrecognized_files``.
    """
    path = Path(bundle_path) / SEALED_MANIFEST
    if not path.is_file():
        if path.exists():
            raise ForensicsError(f"{path} is not a file")
        raise ForensicsError(f"no {SEALED_MANIFEST} in {bundle_path}; seal the bundle first")
    try:
        data = load_json_file(path, _SEALED)
    except ValueError as exc:
        raise ForensicsError(f"{path} {exc}") from None
    table = "files" in data
    problem = table and shape_problem(data, _SEALED_TABLE)
    if problem:
        raise ForensicsError(f"{path} {problem}")
    if data["isolation_method"] not in ISOLATION_METHODS.values():
        method = data["isolation_method"]
        raise ForensicsError(f"{path} field 'isolation_method' has unknown value {method!r}")
    if table and data["locale"] not in LOCALES:
        raise ForensicsError(f"{path} field 'locale' has unknown value {data['locale']!r}")
    try:
        collected_at = normalize_timestamp(data["collected_at"], "day-first", 0)
    except (UnparseableTimestamp, ImpossibleDate) as exc:
        raise ForensicsError(f"{path} field 'collected_at': {exc}") from None
    manifest = {key: data[key] for key in (*_SEALED, *(_SEALED_TABLE if table else ()))}
    manifest["collected_at"] = collected_at.to_iso()
    if table:
        manifest["files"] = [
            {"name": row["name"], "bytes": row["bytes"],
             "sha256": _sealed_link(row["sha256"], path, f"files[{index}].sha256")}
            for index, row in enumerate(data["files"])
        ]
    manifest["chain_head"] = _sealed_link(data["chain_head"], path, "chain_head")
    manifest["record_links"] = _sealed_links(data["record_links"], path)
    return manifest


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
    return [_sealed_link(text, path, f"record_links[{i}]") for i, text in enumerate(links)]


def _sealed_link(text: object, path: Path, where: str) -> str:
    """A sealed digest's hex text in lowercase; ForensicsError if it names no 32 bytes."""
    try:
        return checked_digest_hex(text)
    except ValueError:
        raise ForensicsError(
            f"{path} field {where!r} must be 64 hex characters, got {text!r}"
        ) from None
