"""One whole `run-all`'s own peak memory, on a case of the benchmark's sync-bulk size.

`run-all` and `ingest --help` each run in a child that prints its own
high-water mark, `VmHWM` from /proc/self/status, as it exits: `--help`
imports every layer and stops, so the difference is what `run-all`
itself holds at its peak. `ru_maxrss` would not do: a child inherits
its parent's high-water mark in it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import synctrail
from synctrail.simulator import SimParams, generate_case

SRC = str(Path(synctrail.__file__).resolve().parent.parent)
STATUS = Path("/proc/self/status")

# Runs the command in argv, then prints its exit code and this process's
# VmHWM in kB as the last line of stdout.
CHILD = """
import sys
from synctrail.cli import run
try:
    code = run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(code, status.split()[0])
"""


def own_peak(*argv: str) -> tuple[int, int]:
    """Exit code and peak resident kB of one `synctrail` command in a fresh child."""
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    code, peak_kb = result.stdout.splitlines()[-1].split()
    return int(code), int(peak_kb)


@pytest.mark.skipif(not STATUS.is_file(), reason="needs /proc/self/status")
def test_run_all_holds_at_most_12_mib_above_its_imports(tmp_path):
    params = SimParams(seed=1, n_uploads=2000, n_messages=800, n_calls=200, n_apps=200,
                       skew_seconds=300)
    case = generate_case(params, tmp_path / "case")
    code, run_all_kb = own_peak(
        "run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(tmp_path / "out")
    )
    assert code == 0
    help_code, imports_kb = own_peak("ingest", "--help")
    assert help_code == 0
    assert run_all_kb - imports_kb <= 12 * 1024
