"""Crash-safe artifact writes: write beside the target, then rename over it."""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file in `path`'s directory; on a clean exit it
    replaces `path` in one rename, so a reader sees the old file or the new
    one, never a part of either.

    On an exception the temporary file is removed and `path` is left as it
    was. There is no fsync: this survives the process dying, not the machine.
    """
    path = Path(path)
    # Named per process and thread, so concurrent writers never share one;
    # opened with open(), so the file gets the usual umask permissions.
    temp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_bytes(path, data: bytes) -> None:
    """Replace `path` with `data` in one rename."""
    with atomic_write(path, "wb") as handle:
        handle.write(data)


def write_json(path, data) -> None:
    """write_bytes of `data` as UTF-8 JSON indented by 2, plus a newline."""
    write_bytes(path, (json.dumps(data, indent=2) + "\n").encode())
