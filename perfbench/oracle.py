"""Correctness checks on what the program wrote.

Each check returns a list of problems; an empty list means the output
is correct. The checks read the case report (REPORT_SCHEMA.md) and
`verify --out`'s verification.json, never stage files.
"""

from __future__ import annotations

TAMPERED_EXIT = 3


def link_problems(links: list[dict], expected: dict) -> list[str]:
    """The report's links must equal the expected set in every tier,
    with no record or event used twice."""
    problems = []
    records: set[str] = set()
    events: set[str] = set()
    found: dict[str, set[tuple[str, str]]] = {tier: set() for tier in expected}
    for link in links:
        record, event, tier = link["device_record_id"], link["cloud_event_id"], link["tier"]
        if record in records:
            problems.append(f"record {record} linked more than once")
        if event in events:
            problems.append(f"event {event} linked more than once")
        records.add(record)
        events.add(event)
        found.setdefault(tier, set()).add((record, event))
    for tier, pairs in sorted(found.items()):
        want = {tuple(pair) for pair in expected.get(tier, ())}
        missing, extra = sorted(want - pairs), sorted(pairs - want)
        if missing:
            problems.append(f"{len(missing)} {tier} links missing, first {missing[0]}")
        if extra:
            problems.append(f"{len(extra)} unexpected {tier} links, first {extra[0]}")
    return problems


def skew_problems(skew: dict | None, expected: object) -> list[str]:
    if expected is None:
        return []
    if skew is None:
        return ["report has no skew estimate"]
    if expected == "fallback":
        return [] if skew["fallback"] else [f"skew {skew} is not the fallback estimate"]
    low, high = expected["min"], expected["max"]
    if skew["fallback"] or not low <= skew["offset_seconds"] <= high:
        return [f"skew {skew} outside [{low}, {high}]"]
    return []


def report_problems(report: dict, expected: dict) -> list[str]:
    return link_problems(report["links"], expected["links"]) + skew_problems(
        report["skew"], expected["skew"]
    )


def tamper_problems(exit_code: int, verification: dict | None, index: int) -> list[str]:
    """A tampered bundle must verify with exit 3 at the tampered index."""
    if exit_code != TAMPERED_EXIT:
        return [f"tampered verify exited {exit_code}, want {TAMPERED_EXIT}"]
    if verification is None:
        return ["tampered verify wrote no verification.json"]
    if verification["verdict"] != "Tampered":
        return [f"tampered verify verdict {verification['verdict']!r}"]
    if verification["first_divergent_index"] != index:
        return [
            f"tampered verify points at index {verification['first_divergent_index']}, "
            f"the tamper was at {index}"
        ]
    return []
