"""Crash-safe artifact writes (write beside the target, then rename over
it) and checked reads of the JSON that configs and sidecars hold."""

from __future__ import annotations

import csv
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

# What a JSON file, or a to_dict (a tuple), may give for a config field of each
# annotation, and how an error says it. An annotation "X | None" allows null.
_JSON_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "frozenset": (list, "a list"),
    "tuple": ((list, tuple), "a list"),
    "dict": (dict, "an object"),
}


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


def update_bytes(path, data: bytes) -> None:
    """write_bytes unless `path` already holds exactly `data`: a file that
    would not change is not rewritten, so it keeps its inode and mtime."""
    try:
        if Path(path).read_bytes() == data:
            return
    except OSError:
        pass
    write_bytes(path, data)


def json_bytes(data) -> bytes:
    """`data` as UTF-8 JSON indented by 2, plus a newline."""
    return (json.dumps(data, indent=2) + "\n").encode()


def write_json(path, data) -> None:
    """write_bytes of json_bytes(data)."""
    write_bytes(path, json_bytes(data))


def write_csv(path, header, rows) -> None:
    """Replace `path` with a UTF-8 CSV of the header row, then `rows`."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; errors name the file as `what`."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
    except (ValueError, RecursionError) as exc:  # also bad JSON, bad UTF-8, deep nesting
        raise ValueError(f"{what} {path}: {exc}") from None
    return data


def not_utf8(path) -> ValueError:
    """The error for a text file at `path` that failed to decode as UTF-8:
    it names the line of the first byte that does not decode. The file is
    read again for that, so call this only once decoding has failed."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: not UTF-8: {exc}")
    return ValueError(f"{path}: not UTF-8")


def _check(value, annotation: str, key: str):
    """`value`, if a JSON file may give it for a field annotated
    `annotation`; otherwise an error that names `key`. A bool is not a
    number."""
    kind, _, optional = annotation.partition(" | ")
    expected, wanted = _JSON_TYPES[kind]
    if value is None and optional:
        return value
    if not isinstance(value, expected) or isinstance(value, bool) != (expected is bool):
        raise ValueError(f"config key {key} must be {wanted}, got {value!r}")
    return value


def _section(section, name: str, config_class, **kwargs):
    """JSON object `name` as a config_class, over `kwargs`. A key that is
    not a field of config_class, a value of the wrong type, a field without
    a default left unset, or a value config_class refuses is an error that
    names the section."""
    _check(section, "dict", name)
    annotations = {f.name: f.type for f in fields(config_class)}
    for key, value in section.items():
        if annotations.get(key, "").partition(" | ")[0] not in _JSON_TYPES:
            raise ValueError(f"config section {name!r} has no key {key!r}")
        kwargs[key] = _check(value, annotations[key], f"{name}.{key}")
    for f in fields(config_class):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config section {name!r} is missing key {f.name!r}")
    try:
        return config_class(**kwargs)
    except ValueError as exc:
        raise ValueError(f"config section {name!r}: {exc}") from None
