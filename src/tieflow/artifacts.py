"""Artifact files: the one JSON writer and reader, and the one table writer.

JSON artifacts are written with sorted keys, two-space indent (or compact
separators, for the large tie graph) and a trailing newline. Table
artifacts (TSV/CSV) are ``# comment`` lines holding the parameters that
produced them, then one line per row. Readers raise DataError with a
message that names the file and the fault.

A column companion, ``<file>.columns``, holds the columns of ``<file>`` as
raw bytes under a JSON header line, both covered by the digest on its first
line; it is read only while that digest and the header's digest of ``<file>``
hold.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterable

_ROWS = 1 << 12  # table rows joined into one write


class DataError(Exception):
    """A missing or malformed input file."""


def write_json(path, doc, indent: int | None = 2) -> None:
    text = json.dumps(doc, indent=indent, separators=(",", ": " if indent else ":"), sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def read_text(path, what: str) -> str:
    """Whole text of an artifact; `what` names its kind in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from None


def read_json(path, what: str):
    """One JSON document; `what` names the artifact kind in errors."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"malformed {what} {path}: {exc}") from None


@contextmanager
def decoding(path, what: str):
    """Turn a missing field or a wrong-typed value met while decoding a
    loaded document into a DataError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"malformed {what} {path}: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from None


def write_lines(path, comments: Iterable[str], rows: Iterable[str]) -> None:
    """`# comment` lines, then the rows, each terminated by a newline."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"# {comment}\n" for comment in comments)
        for block in iter(lambda: list(islice(rows, _ROWS)), []):
            handle.write("\n".join(block) + "\n")


def _sha256(path=None, blocks=()) -> str:
    """The hex sha256 of the bytes-like blocks, then of the file at path if given."""
    # hashlib maps OpenSSL, about 3.5 MB resident: imported only here, once a
    # parse has freed its text, so that ingest peaks no higher than before.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") if path is not None else io.BytesIO() as handle:
        for block in chain(blocks, iter(lambda: handle.read(1 << 20), b"")):
            digest.update(block)
    return digest.hexdigest()


def write_columns(source, layout, columns, **fields) -> None:
    """Write the column companion of the file at source, its columns as layout's
    (name, dtype) pairs give them. Line 1 is the sha256 of everything after it;
    line 2 the header: fields, the source's ``source_bytes`` and ``sha256``, the
    ``layout`` tag and each column's entry ``counts``. A layout puts its one-byte
    columns last, so that the others read back aligned."""
    import numpy as np  # not at module level: report --sweep and --evaluation load no numpy

    columns = [np.ascontiguousarray(column, dtype) for column, (_, dtype) in zip(columns, layout)]
    header = dict(fields, source_bytes=os.path.getsize(source), sha256=_sha256(source),
                  layout=",".join(map(":".join, layout)), counts=list(map(len, columns)))
    line = json.dumps(header, separators=(",", ":"), sort_keys=True).encode() + b"\n"
    with open(os.fspath(source) + ".columns", "wb") as handle:
        handle.writelines([_sha256(blocks=[line, *columns]).encode(), b"\n", line, *columns])


def read_columns(source, layout) -> tuple[dict, list] | None:
    """The header and the columns, as read-only arrays, of the column companion of
    the file at source; None unless it exists, is whole, matches its digest and
    the source, and has write_columns' header for layout."""
    import numpy as np

    try:
        with open(os.fspath(source) + ".columns", "rb") as handle:
            digest, line = handle.readline(), handle.readline()
            data = handle.read()  # apart from the header, so that the columns are aligned
        header = json.loads(line)
        counts = header["counts"]
        sizes = [n * np.dtype(dtype).itemsize for n, (_, dtype) in zip(counts, layout)]
        if (header["layout"] != ",".join(map(":".join, layout)) or len(counts) != len(layout)
                or any(type(n) is not int or n < 0 for n in counts) or len(data) != sum(sizes)
                or os.path.getsize(source) != header["source_bytes"]
                or digest != _sha256(blocks=[line, data]).encode() + b"\n"
                or _sha256(source) != header["sha256"]):
            return None
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return header, [np.frombuffer(data, dtype, n, offset) for n, (_, dtype), offset
                    in zip(counts, layout, np.cumsum([0, *sizes]).tolist())]
