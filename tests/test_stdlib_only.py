"""The runtime uses only the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import synctrail

PACKAGE = Path(synctrail.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib_or_synctrail():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    foreign = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name != "synctrail" and name not in sys.stdlib_module_names
    }
    assert foreign == set()
