"""A command loads only the code it runs.

Every command starts a fresh interpreter, and everything it imports is
compiled and run before the command does anything. So importing the
command-line module must not load the simulator, nor the standard
modules that only one rarely used path needs: ``csv`` (``--geo-table``),
``html`` (the HTML report), ``copy`` (a report missing a stage file)
and ``calendar``; nor ``logging``, which no command uses; nor
``dataclasses`` and the ``inspect`` it loads, which only the simulator
uses.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import synctrail
from synctrail.cli import run
from synctrail.simulator import SimParams

SRC = Path(synctrail.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
ONE_PATH_ONLY = (
    "synctrail.simulator", "csv", "html", "logging", "calendar", "dataclasses", "inspect", "copy",
)


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def modules_after(code: str, *args: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` ran in a fresh interpreter."""
    result = python("-c", f"{code}\nimport sys\nprint(*sys.modules, sep='\\n')", *args)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_importing_the_cli_loads_nothing_a_command_may_not_run():
    bare = modules_after("pass")
    loaded = modules_after("import synctrail.cli")
    assert "synctrail.cli" in loaded
    assert sorted((loaded - bare) & set(ONE_PATH_ONLY)) == []


# A frozen dataclass costs start-up time: Python compiles its generated
# methods when the class is created. The types the pipeline keeps are
# plain slotted classes; every stage result is the JSON-ready payload of
# its stage file.
DATACLASSES: list[str] = []

# An enum is kept only where code holds and compares its members: a typed
# field or parameter. Link tiers, finding kinds, confidences, verdicts,
# identifier kinds and timeline sources are the plain strings that
# REPORT_SCHEMA.md lists.
ENUMS = ["ArtifactCategory", "EventKind", "IsolationMethod", "Locale", "ReportFormat"]

_CENSUS = """
import dataclasses, enum, sys
import synctrail.cli
for name, module in sorted(sys.modules.items()):
    for value in vars(module).values() if name.partition(".")[0] == "synctrail" else ():
        if isinstance(value, type) and value.__module__ == name and {test}:
            print(value.__qualname__)
"""


def classes_created(test: str) -> list[str]:
    """The classes that ``import synctrail.cli`` creates in synctrail and ``test`` accepts."""
    result = python("-c", _CENSUS.format(test=test))
    assert result.returncode == 0, result.stderr
    return sorted(result.stdout.split())


def test_importing_the_cli_creates_only_the_kept_dataclasses():
    assert classes_created("dataclasses.is_dataclass(value)") == DATACLASSES


def test_importing_the_cli_creates_only_the_kept_enums():
    assert classes_created("issubclass(value, enum.Enum)") == ENUMS


def test_verify_runs_without_them(tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(DATA / "golden" / "bundle", bundle)
    assert run(["seal", str(bundle)]) == 0
    bare = modules_after("pass")
    loaded = modules_after(
        "import sys\nfrom synctrail.cli import run\nassert run(sys.argv[1:]) == 0",
        "verify",
        str(bundle),
    )
    assert sorted((loaded - bare) & set(ONE_PATH_ONLY)) == []


def test_importing_the_package_loads_no_module_of_it():
    loaded = modules_after("import synctrail")
    assert sorted(name for name in loaded if name.startswith("synctrail.")) == []


def test_python_m_synctrail_simulate(tmp_path):
    result = python("-m", "synctrail", "simulate", "--seed", "3", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stderr.startswith("case written: ")
    assert (tmp_path / "bundle" / "manifest.json").is_file()


def test_package_exports_load_on_first_use(tmp_path):
    case = synctrail.generate_case(SimParams(seed=4, n_uploads=2, n_messages=2), tmp_path)
    assert synctrail.generate_case is synctrail.simulator.generate_case
    assert len(synctrail.ingest_device_dump(case.bundle_dir).records) > 0
    assert set(synctrail.__all__) <= set(dir(synctrail))


def test_the_export_table_is_all():
    assert sorted([*synctrail._EXPORTS, "__version__"]) == sorted(synctrail.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'synctrail' has no attribute 'nope'$"):
        synctrail.nope  # noqa: B018
