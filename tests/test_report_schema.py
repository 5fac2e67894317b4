"""Closed-set report fields hold only the values REPORT_SCHEMA.md lists.

Tiers, link and finding kinds, confidences, chain verdicts and
identifier kinds are plain strings in the code, each written where it is produced. This
test reads the allowed values from the schema text and checks every
such field of the JSON reports of the byte-pinned inputs, so a
misspelled value fails here whether or not a pin covers it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from synctrail import reporting
from synctrail.cli import run

from test_byte_pin import PINS

SCHEMA = (Path(__file__).parent.parent / "REPORT_SCHEMA.md").read_text(encoding="utf-8")


def schema_values(section: str, field: str) -> set[str]:
    """The string values the schema lists for ``field``, the first one after ``section``."""
    text = re.sub(r"//[^\n]*", "", SCHEMA)
    start = text.index(f'"{section}":')
    match = re.compile(rf'"{field}":\s*("[^"]*"(?:\s*\|\s*"[^"]*")*)').search(text, start)
    assert match is not None, (section, field)
    return set(re.findall(r'"([^"]*)"', match.group(1)))


# (section, field) -> how to read every value of that field from a report.
FIELDS = {
    ("inputs", "chain_verdict"): lambda r: [d["chain_verdict"] for d in r["inputs"]["dumps"]],
    ("links", "tier"): lambda r: [link["tier"] for link in r["links"]],
    ("links", "kind"): lambda r: [link["kind"] for link in r["links"]],
    ("findings", "kind"): lambda r: [f["kind"] for f in r["findings"]],
    ("findings", "confidence"): lambda r: [f["confidence"] for f in r["findings"]],
    ("findings", "tier"): lambda r: [f["tier"] for f in r["findings"] if "tier" in f],
    ("identity_graph", "kind"): lambda r: [n["kind"] for n in r["identity_graph"]["nodes"]],
}


def test_the_schema_lists_each_closed_set():
    assert {key: schema_values(*key) for key in FIELDS} == {
        ("inputs", "chain_verdict"): {"Intact", "Tampered", "Unverified"},
        ("links", "tier"): {"ExactDigest", "MetadataWindow"},
        ("links", "kind"): {"Install", "Uninstall", "Upload", "Download", "Login", "Sync"},
        ("findings", "kind"): {
            "ProvenUpload", "ProvenDownload", "AppUsedThenUninstalled", "AccountActivity",
        },
        ("findings", "confidence"): {"High", "Medium"},
        ("findings", "tier"): {"ExactDigest", "MetadataWindow"},
        ("identity_graph", "kind"): {"Phone", "Email"},
    }


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    """The JSON report of `run-all` on each byte-pinned input."""
    found = {}
    for name, (make_input, _) in PINS.items():
        tmp = tmp_path_factory.mktemp(name)
        bundle, cloud_log, extra = make_input(tmp)
        out = tmp / "out"
        assert run(["run-all", str(bundle), str(cloud_log), "--out", str(out), *extra]) == 0
        (path,) = out.glob("*.report.json")
        found[name] = json.loads(path.read_text(encoding="utf-8"))
    return found


@pytest.mark.parametrize("key", FIELDS, ids=lambda key: ".".join(key))
def test_every_value_is_one_the_schema_lists(reports, key):
    allowed = schema_values(*key)
    seen = {name: FIELDS[key](report) for name, report in reports.items()}
    assert {name: sorted(set(values) - allowed) for name, values in seen.items()} == {
        name: [] for name in seen
    }
    assert any(seen.values()), f"no input gives a value of {key}"


def test_every_report_carries_the_schema_version(reports):
    version = int(re.search(r'"schema_version": (\d+),', SCHEMA).group(1))
    assert version == reporting.SCHEMA_VERSION
    for report in reports.values():
        assert list(report)[:3] == ["case_id", "tool_version", "schema_version"]
        assert report["schema_version"] == version
