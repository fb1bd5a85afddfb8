"""Crash-safe file writing."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: Path) -> Iterator[BinaryIO]:
    """Open a sibling ``<name>.tmp`` for binary writing; move it onto ``path`` on success.

    A crash mid-write can truncate only the temporary file — readers always
    see either the previous complete file or the new one, never a partial
    write.  A ``.tmp`` left behind by a killed run is overwritten.
    """
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            yield handle
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
