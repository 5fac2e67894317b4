"""The package's public names: every name in ``synctrail.__all__`` is there, and
every name README's library section uses exists."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import synctrail


def test_every_name_in_all_resolves():
    assert [name for name in synctrail.__all__ if not hasattr(synctrail, name)] == []


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
