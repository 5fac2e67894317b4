"""Every name a module imports is used in that module.

An import nothing reads still costs start-up time in every command, and
hides which layers a module really depends on. One name is exempt:
``preservation`` re-exports ``canonical_encode``, the encoding its chain
hashes, so that a tracer can wrap it there.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import synctrail

PACKAGE = Path(synctrail.__file__).resolve().parent
RE_EXPORTED = {("preservation", "canonical_encode")}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, in source order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unused if (path.stem, name) not in RE_EXPORTED] == []


def test_the_scan_sees_an_unused_name():
    source = "import os, json as j\nfrom typing import Any, Optional\nx: Optional[int] = j.loads('1')\n"
    assert unused_imports(source) == ["os", "Any"]
