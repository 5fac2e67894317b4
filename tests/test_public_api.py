"""The package's public names: every name in ``synctrail.__all__`` is there,
every name README's library section uses exists, and its example gives
the stage files that ``run-all`` writes."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

import synctrail
from synctrail.cli import run
from synctrail.simulator import SimParams, generate_case


def test_every_name_in_all_resolves():
    assert [name for name in synctrail.__all__ if not hasattr(synctrail, name)] == []


@pytest.mark.parametrize(
    "name",
    [
        "AppRecord", "AppStatus", "ArtifactCategory", "EventKind",
        "IsolationMethod", "Locale", "ReportFormat",
    ],
)
def test_no_module_has_a_type_that_only_wrapped_strings(name):
    """``parse_app_inventory`` returns the evidence records themselves; a
    record's category, an event's kind, a locale, an isolation method and
    a report format are the strings the command line takes and the
    outputs hold."""
    assert name not in synctrail.__all__
    with pytest.raises(AttributeError):
        getattr(synctrail, name)
    package = Path(synctrail.__file__).parent
    modules = [f"synctrail.{path.stem}" for path in sorted(package.glob("*.py"))]
    assert [m for m in modules if hasattr(importlib.import_module(m), name)] == []


def test_all_lists_each_name_once():
    assert len(set(synctrail.__all__)) == len(synctrail.__all__)


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from synctrail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(synctrail.__all__)


def _library_use() -> str:
    """README's "Library use" section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_every_name_readme_uses_resolves():
    text = _library_use()
    used = set(re.findall(r"(?<![\w.])st\.(\w+)", text))
    named = set(re.findall(r"(?<![\w.])synctrail\.(\w+)\.(\w+)", text))
    assert "ingest_device_dump" in used and ("correlation", "digest_index") in named
    missing = [f"st.{name}" for name in sorted(used) if not hasattr(synctrail, name)]
    missing += [
        f"synctrail.{module}.{name}"
        for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"synctrail.{module}"), name)
    ]
    assert missing == []


def test_readme_example_equals_the_run_all_stage_files(tmp_path, monkeypatch):
    """The example's code block, run as written on a simulated case at ``case/``."""
    code = _library_use().split("\n```python\n", 1)[1].split("\n```\n", 1)[0]
    case = generate_case(SimParams(seed=11, n_apps=10, skew_seconds=120), tmp_path / "case")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(code, namespace)
    out = tmp_path / "out"
    assert run(["run-all", str(case.bundle_dir), str(case.cloud_log), "--out", str(out)]) == 0
    for name in ("links", "timeline", "findings"):
        stage = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        assert namespace[name] == stage, name
    kinds = {finding["kind"] for finding in namespace["findings"]}
    assert {"ProvenUpload", "AppUsedThenUninstalled"} <= kinds
