"""Damaged input bytes end in a documented outcome, never in a traceback.

Bytes of the cloud log, and of each stage file that `report` reads, are
flipped, inserted or deleted. Every run must then exit 0, 3 or 4; an
exit of 3 or 4 writes exactly one stderr line. Every cloud log line
becomes one event or one ledger entry, so `cloud_log.json`'s event
count plus its ledger entries equal the log's lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from synctrail.cli import run
from synctrail.reporting import STAGE_FILES

from test_byte_pin import comm_shapes, simulated

# Bytes that JSON, UTF-8 and line splitting give a meaning to, and any byte.
_STRUCTURE = b'\n\r"\\{}[],:-.0123456789eEtfnu \x00\x7f\x80\xc3\xed\xff'
_BYTES = st.sampled_from(list(_STRUCTURE)) | st.integers(0, 255)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one to three bytes flipped, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(out) - 1, 0)))
        how = draw(st.sampled_from(["flip", "insert", "delete"]))
        if how == "insert" or not out:
            out.insert(at, draw(_BYTES))
        elif how == "flip":
            out[at] ^= 1 << draw(st.integers(0, 7))
        else:
            del out[at]
    return bytes(out)


def run_quietly(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process run."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stderr.getvalue().splitlines()


def assert_documented(code: int, stderr: list[str]) -> None:
    event(f"exit {code}")
    assert code in (0, 3, 4), stderr
    if code:
        assert len(stderr) == 1, stderr


@pytest.fixture(scope="module")
def cases(tmp_path_factory) -> dict[str, tuple[Path, Path, Path]]:
    """Each input's bundle, cloud log and the `--out` of one `run-all` over it."""
    made = {}
    for make_input in (simulated, comm_shapes):
        tmp = tmp_path_factory.mktemp(make_input.__name__)
        bundle, cloud_log, extra = make_input(tmp)
        out = tmp / "out"
        assert run_quietly(["run-all", str(bundle), str(cloud_log), "--out", str(out),
                            *extra])[0] == 0
        made[make_input.__name__] = (bundle, cloud_log, out)
    return made


def examples(count: int) -> settings:
    return settings(max_examples=count, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@examples(150)
@given(data=st.data())
def test_damaged_cloud_log(cases, data):
    bundle, cloud_log, _ = cases["simulated"]
    damaged = data.draw(mutations(cloud_log.read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / cloud_log.name
        log.write_bytes(damaged)
        out = Path(tmp) / "out"
        code, stderr = run_quietly(["correlate", str(bundle), str(log), "--out", str(out)])
        assert_documented(code, stderr)
        if code == 0:
            written = json.loads((out / "cloud_log.json").read_text(encoding="utf-8"))
            lines = len(damaged.splitlines())
            assert written["event_count"] + len(written["ledger"]) == lines


@examples(300)
@given(data=st.data())
def test_damaged_stage_file(cases, data):
    _, _, pristine = cases[data.draw(st.sampled_from(sorted(cases)))]
    name = data.draw(st.sampled_from(sorted(STAGE_FILES)))
    format = data.draw(st.sampled_from(["json", "md", "html"]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for stage in STAGE_FILES:
            shutil.copyfile(pristine / stage, out / stage)
        (out / name).write_bytes(data.draw(mutations((pristine / name).read_bytes())))
        assert_documented(*run_quietly(["report", "--out", str(out), "--format", format]))
