"""Atomic file replacement for everything the tool writes.

Custody manifests, stage files and reports are written to a temporary
file in the target's directory and then renamed over the target, so a
reader (or a later run) sees either the previous file or the complete
new one, never a half-written file. The rename is atomic against a
crashed or killed process; no fsync is issued, so a power loss may
still lose the newest write.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import BinaryIO, Iterator


@contextlib.contextmanager
def replacing(path: Path) -> Iterator[BinaryIO]:
    """Yield a binary file that replaces ``path`` when the block succeeds.

    The file is a temporary one in ``path``'s directory, which is
    created if needed. When the block ends, the file is closed and
    renamed over ``path``; when the block, the close or the rename
    fails, the temporary file is removed and ``path`` is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def write_bytes(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``, creating its directory if needed."""
    with replacing(path) as handle:
        handle.write(data)
