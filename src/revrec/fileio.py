"""Whole-file writes for the savers: a target either keeps its old bytes
or holds the complete new text, never a prefix of it."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def write_replacing(path: str | Path) -> Iterator[TextIO]:
    """Yield a new UTF-8 text file beside ``path``. On a clean exit it is
    flushed to disk and replaces ``path``; on an error it is removed and
    ``path`` is left as it was."""
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)
