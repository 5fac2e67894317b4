"""Stage files are the library's results as they are, whatever the hash seed.

The analysis functions return their stage files' payloads, so what
`run-all` writes must decode to exactly what they return: no conversion
layer sits between them. And no stage file, report or stderr line may
depend on set or dict iteration order, which changes with
``PYTHONHASHSEED`` from one process to the next.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synctrail
from synctrail.acquisition import ingest_cloud_log, ingest_device_dump, parse_app_inventory
from synctrail.cli import run
from synctrail.correlation import (
    build_timeline,
    derive_cloud_usage_findings,
    detect_uninstall_evidence,
    estimate_clock_skew,
    match_synced_artifacts,
    zero_skew,
)
from synctrail.errors import InsufficientSupport
from synctrail.osint import build_identity_graph

from test_byte_pin import comm_shapes, simulated, simulated_metadata_only, sync_shapes

SRC = str(Path(synctrail.__file__).resolve().parent.parent)


@pytest.mark.parametrize("make_input", [simulated, simulated_metadata_only, sync_shapes])
def test_library_results_equal_their_stage_files(tmp_path, make_input):
    bundle, cloud_log, extra = make_input(tmp_path)
    out = tmp_path / "out"
    assert run(["run-all", str(bundle), str(cloud_log), "--out", str(out), *extra]) == 0

    dump = ingest_device_dump(bundle)
    events = ingest_cloud_log(cloud_log)
    try:
        skew = estimate_clock_skew(dump.records, events)
    except InsufficientSupport:
        skew = zero_skew()
    links = match_synced_artifacts(dump.records, events, skew)
    uninstall = detect_uninstall_evidence(parse_app_inventory(dump), events)
    results = {
        "links.json": links,
        "timeline.json": build_timeline(dump.records, events, skew),
        "findings.json": derive_cloud_usage_findings(links, uninstall, events),
        "identity_graph.json": build_identity_graph(dump.records),
    }
    for name, result in results.items():
        assert result == json.loads((out / name).read_text(encoding="utf-8")), name


def run_all_in_child(make_input, base: Path, hash_seed: str) -> dict[str, bytes]:
    """Every file `run-all` writes, and its stderr, from a child process."""
    bundle, cloud_log, extra = make_input(base)
    out = base / "out"
    result = subprocess.run(
        [sys.executable, "-m", "synctrail", "run-all", str(bundle), str(cloud_log),
         "--out", str(out), *extra],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["manifest.sealed.json"] = (bundle / "manifest.sealed.json").read_bytes()
    files["stderr"] = result.stderr.replace(str(base).encode(), b"<tmp>")
    return files


@pytest.mark.parametrize("make_input", [comm_shapes, simulated, sync_shapes])
def test_output_does_not_depend_on_the_hash_seed(tmp_path, make_input):
    first = run_all_in_child(make_input, tmp_path / "seed0", "0")
    second = run_all_in_child(make_input, tmp_path / "seed1", "1")
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []
