"""Stage files are the library's results as they are, whatever the hash seed.

The analysis functions return their stage files' payloads, so what
`run-all` writes must decode to exactly what they return: no conversion
layer sits between them. And no stage file, report or stderr line may
depend on set or dict iteration order, which changes with
``PYTHONHASHSEED`` from one process to the next.

Each stage file is written as it is encoded, with the bytes that one
``json.dumps`` call gives, and without ever holding its whole text.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synctrail
from synctrail import cli
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
from synctrail.simulator import SimParams, generate_case

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


# --- one stage file, written as it is encoded ------------------------------


def compact(value: object) -> bytes:
    return (json.dumps(value, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


class Items(list):
    pass


class Fields(dict):
    pass


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(st.sampled_from('a%\u2028\u2029"\\\n\x00é😀'), max_size=4),
)
_KEYS = st.text(st.sampled_from("k%\u2028é"), max_size=3)
_OTHER_KEYS = st.one_of(st.integers(-5, 5), st.floats(), st.booleans(), st.none(), _KEYS)
_SMALL = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(Items),
        st.dictionaries(_KEYS, inner, max_size=3),
        st.dictionaries(_OTHER_KEYS, inner, max_size=3),
        st.dictionaries(_KEYS, inner, max_size=3).map(Fields),
    ),
    max_leaves=8,
)
# Lengths on both sides of a block of the stage writer (64) and of the report writer (256).
_LONG = st.builds(
    lambda n, pattern: (pattern * n)[:n],
    st.sampled_from([0, 1, 64, 65, 256, 257, 700]),
    st.lists(_SMALL, min_size=1, max_size=3),
)
_LISTS = st.one_of(_LONG, _LONG.map(Items))
_VALUES = st.one_of(
    _SMALL,
    _LISTS,
    st.dictionaries(_KEYS, st.one_of(_SMALL, _LISTS), max_size=4),
    st.lists(_LONG, max_size=2),
)


@given(_VALUES)
@settings(max_examples=300, deadline=None)
def test_a_stage_file_holds_what_json_dumps_writes(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stage.json"
        cli._write_json(path, value)
        assert path.read_bytes() == compact(value)
        # A value that fails to encode after blocks were written out
        # leaves the previous file, and no temporary beside it.
        with pytest.raises(TypeError):
            cli._write_json(path, {"value": value, "rows": list(range(700)), "bad": object()})
        assert path.read_bytes() == compact(value)
        assert os.listdir(tmp) == ["stage.json"]


@pytest.mark.parametrize("count", [0, 1, 64, 65, 700])
def test_a_generator_of_blocks_is_written_as_one_list(tmp_path, count):
    rows = [{"n": n, "text": f"row {n}"} for n in range(count)]
    blocks = (rows[i:i + 64] for i in range(0, count, 64))
    cli._write_json(tmp_path / "rows.json", {"rows": blocks, "after": True})
    assert (tmp_path / "rows.json").read_bytes() == compact({"rows": rows, "after": True})


@pytest.fixture(scope="module")
def write_peaks(tmp_path_factory):
    """tracemalloc's peak over each stage file write of one `run-all` on a case
    of the benchmark's sync-bulk size, above what was held just before it,
    with each file's size."""
    tmp = tmp_path_factory.mktemp("write_peaks")
    params = SimParams(seed=1, n_uploads=2000, n_messages=800, n_calls=200, n_apps=200,
                       skew_seconds=300)
    case = generate_case(params, tmp / "case")
    out = tmp / "out"
    write = cli._write_json
    peaks = {}

    def measured(path, payload):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write(path, payload)
        peaks[path.name] = tracemalloc.get_traced_memory()[1] - held

    cli._write_json = measured
    tracemalloc.start()
    try:
        assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
    finally:
        tracemalloc.stop()
        cli._write_json = write
    return {name: (peak, (out / name).stat().st_size) for name, peak in peaks.items()}


@pytest.mark.parametrize("name", ["dump.json", "timeline.json"])
def test_a_stage_file_is_never_held_whole(write_peaks, name):
    peak, size = write_peaks[name]
    assert size > 400_000
    assert peak < size / 4
