"""Every name a module imports is used in that module, and every private name is read.

An import nothing reads still costs start-up time in every command, and
hides which layers a module really depends on. One name is exempt:
``preservation`` imports ``canonical_encode`` and never calls it, because
``perfbench/tracing.py`` wraps it there by name and a traced run fails
without it. A module-level private
function, class or constant that nothing in the package reads is left
over from code that is gone. No module imports ``enum``: every value
set of the package is the plain strings that the command line takes and
the outputs hold.

Every failure that ends a run is a ``ForensicsError``: ``errors.py``
defines a subclass of it only where some ``except`` clause of the
package names that subclass, since a name nothing catches tells a
caller nothing the one-line message does not.

Every source file of the package and its tests also compiles with
warnings as errors: an ``is`` against a literal, such as
``category is "Message"``, is a SyntaxWarning, and compares identity
where a string's value is meant.
"""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import pytest

import synctrail

PACKAGE = Path(synctrail.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
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


def enum_imports(source: str) -> list[int]:
    """The lines of ``source`` that import ``enum``, as ``import enum`` or ``from enum import``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "enum" for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_enum(path):
    assert enum_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_enum_import():
    source = "import os, enum as e\nfrom enum import Enum\nimport enumerate_me\nfrom . import enum\n"
    assert enum_imports(source) == [1, 2]


def uncaught_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The classes ``errors_source`` defines, besides ForensicsError, that no ``except`` names.

    A class counts as caught where some ``except`` clause of ``sources``
    names it, alone, in a tuple, or as an attribute such as ``errors.X``.
    """
    caught: set[str] = set()
    for source in sources:
        for handler in ast.walk(ast.parse(source)):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                for node in ast.walk(handler.type):
                    if isinstance(node, ast.Name):
                        caught.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        caught.add(node.attr)
    classes = ast.parse(errors_source).body
    defined = [node.name for node in classes if isinstance(node, ast.ClassDef)]
    return [name for name in defined if name != "ForensicsError" and name not in caught]


def test_every_error_subclass_is_caught_by_name():
    """A fatal error is a ForensicsError; a subclass exists only where the package catches it."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert uncaught_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []


def test_the_scan_sees_an_uncaught_error():
    errors = "class ForensicsError(Exception): ...\nclass A(ForensicsError): ...\n" + "".join(
        f"class {name}(ForensicsError): ...\n" for name in "BCDE"
    )
    sources = [
        "try:\n    f()\nexcept A:\n    pass\nexcept (errors.B, ValueError) as exc:\n    pass\n",
        "try:\n    g()\nexcept:\n    raise C('d')\nfinally:\n    E\n",
    ]
    assert uncaught_errors(errors, sources) == ["C", "D", "E"]


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


def compile_strictly(source: str, filename: str) -> None:
    """Compile ``source``; a warning the compiler gives is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(source, filename, "exec")


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_file_compiles_without_a_warning(path):
    compile_strictly(path.read_text(encoding="utf-8"), str(path))


def test_the_compile_check_sees_is_against_a_literal():
    with pytest.raises(SyntaxError, match="literal"):
        compile_strictly('category is "Message"\n', "probe.py")
