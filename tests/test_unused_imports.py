"""Every name a module imports is used in that module, and every private name is read.

An import nothing reads still costs start-up time in every command, and
hides which layers a module really depends on. One name is exempt:
``preservation`` imports ``canonical_encode`` and never calls it, because
``perfbench/tracing.py`` wraps it there by name and a traced run fails
without it. A module-level private
function, class or constant that nothing in the package reads is left
over from code that is gone.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level ``_private`` names no module of ``sources`` reads, as ``module.name``.

    ``sources`` maps module names to their source. A name counts as read
    where it is loaded, taken as an attribute, or imported by name.
    """
    read: set[str] = set()
    defined: list[str] = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [
                f"{module}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    return [name for name in defined if name.partition(".")[2] not in read]


def test_every_private_module_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_scan_sees_an_unread_private_name():
    sources = {
        "a": "_used = 1\n_unused, _also = 2, 3\ndef _f():\n    return _used\nclass _C: ...\n",
        "b": "from a import _C\n_t: int = 0\nprint(_C, _t)\n",
    }
    assert unread_private_names(sources) == ["a._unused", "a._also", "a._f"]
