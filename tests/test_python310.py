"""The package runs on Python 3.10, the oldest version pyproject.toml allows.

A test run on a newer interpreter would not notice 3.11-only syntax or
a 3.11-only standard-library name, so both are checked from the source.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import synctrail

PACKAGE = Path(synctrail.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))

# Standard-library modules and names that Python 3.10 lacks.
MODULES_SINCE_311 = {"tomllib"}
NAMES_SINCE_311 = {("datetime", "UTC"), ("enum", "StrEnum"), ("typing", "Self")}


def names_since_311(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] in MODULES_SINCE_311]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.partition(".")[0] in MODULES_SINCE_311:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names
                      if (node.module, a.name) in NAMES_SINCE_311]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in NAMES_SINCE_311
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_no_name_added_in_311(path):
    assert names_since_311(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("import tomllib", ["tomllib"]),
        ("from tomllib import loads", ["tomllib"]),
        ("import datetime\ndatetime.UTC", ["datetime.UTC"]),
        ("from datetime import UTC, timezone", ["datetime.UTC"]),
        ("from enum import Enum, StrEnum", ["enum.StrEnum"]),
        ("import typing\nx: typing.Self", ["typing.Self"]),
        ("from typing import Optional, Self", ["typing.Self"]),
        ("import datetime\ndatetime.timezone.utc", []),
    ],
)
def test_checker_finds_each_name(source, found):
    assert names_since_311(ast.parse(source)) == found


def test_311_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
