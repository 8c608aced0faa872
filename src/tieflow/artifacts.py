"""Artifact files: the one JSON writer and reader, and the one table writer.

JSON artifacts are written with sorted keys, two-space indent (or compact
separators, for the large tie graph) and a trailing newline. Table
artifacts (TSV/CSV) are ``# comment`` lines holding the parameters that
produced them, then one line per row. Readers raise DataError with a
message that names the file and the fault.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import islice
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
