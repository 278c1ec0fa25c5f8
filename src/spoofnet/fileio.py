"""Atomic file replacement, shared by the annotation cache and the
checkpoint writer.

A writer fills a temp file of its own next to the target and then
renames it over the target. Readers see the old file or the new one,
never a torn one; a write that fails leaves the old file and no temp
file behind; and a process that has the old file mapped keeps its pages,
because the path moves to a new inode instead of the old one being
rewritten.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replace_atomically(path, mode: str, encoding: str | None = None):
    """Yield a file opened with ``mode`` ("x" or "xb") on a temp file
    next to path; rename it over path on a clean exit, delete it on any
    exception."""
    path = Path(path)
    # a temp file of this writer's own, so concurrent writers never share
    # one; not mkstemp, whose owner-only mode would pass to the target
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
