"""Event log ingestion: parse, filter, and serialize consumption records.

The canonical input is a CSV stream with header
``student_id,timestamp,location_id,kind,amount``. Timestamps are integer
epoch seconds (UTC); ISO ``YYYY-MM-DDTHH:MM:SS`` is accepted on input and
interpreted as UTC.

``write_canonical`` also writes the CSV's column companion (see artifacts),
``<csv>.columns``, whose header holds the sorted ids, and whose columns are
the log's in _LAYOUT order. ``parse_events_path`` reads the log from the
companion while its digests hold, and parses the CSV in every other case.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, filterfalse, islice, repeat
from typing import IO, Iterator

import numpy as np

from .artifacts import read_columns, write_columns

CSV_HEADER = ["student_id", "timestamp", "location_id", "kind", "amount"]
KINDS = ("spend", "recharge")
TIME_LIMIT = 253402300800  # 10000-01-01T00:00:00Z, where datetime's calendar ends
_BREAKS = frozenset("\t\r\n")  # would split the TSV rows that carry student ids
_BLOCK = 1 << 16  # characters of unquoted event text split at once
_ROWS = 1 << 12  # rows of event text that the csv module splits, or that are made, at once
# The column companion's columns in file order, as EventLog fields and their dtypes.
_LAYOUT = (("student", "<i8"), ("location", "<i8"), ("time", "<i8"), ("amount", "<f8"),
           ("spend", "u1"))


class ParseError(ValueError):
    """Raised for malformed event input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class TimeRange:
    """Half-open interval [start, end) in epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("time range must have end > start")

    @property
    def span_seconds(self) -> int:
        return self.end - self.start


def _compact(names, codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted tuple of the distinct names that codes use, and the codes
    re-indexed into it: codes itself if names are sorted and all used."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    if len(used) == len(names) and all(a < b for a, b in zip(names, names[1:])):
        return tuple(names), codes
    ranked = sorted(range(len(used)), key=lambda k: names[used[k]])
    remap = np.zeros(len(names), dtype=np.int64)
    remap[used[ranked]] = np.arange(len(used))
    return tuple(names[used[k]] for k in ranked), remap[codes]


@dataclass(frozen=True, eq=False)
class EventLog:
    """Immutable event columns in (location, time) order; rows with equal
    keys keep their input order. Row k: student students[student[k]] at
    locations[location[k]] and time[k] (epoch seconds) spends amount[k], or
    recharges it where spend[k] is False. ``students`` and ``locations`` are
    sorted and hold only ids that some row uses.
    """

    students: tuple[str, ...]
    locations: tuple[str, ...]
    student: np.ndarray  # int64 codes into students
    location: np.ndarray  # int64 codes into locations
    time: np.ndarray  # int64
    amount: np.ndarray  # float64
    spend: np.ndarray  # bool

    @classmethod
    def from_codes(cls, students, student, locations, location, time, amount, spend) -> "EventLog":
        """The log of rows (students[student[k]], time[k], locations[location[k]],
        spend[k], amount[k]); the distinct id sequences may be in any order.
        Rows already in (location, time) order are not sorted again, and the
        columns are the given arrays where their dtypes match the log's."""
        students, student = _compact(students, np.asarray(student, dtype=np.int64))
        locations, location = _compact(locations, np.asarray(location, dtype=np.int64))
        time = np.asarray(time, dtype=np.int64)
        amount, spend = np.asarray(amount, dtype=np.float64), np.asarray(spend, dtype=bool)
        step = np.diff(location)
        if not ((step > 0) | ((step == 0) & (np.diff(time) >= 0))).all():  # O(n), not a sort
            order = np.lexsort((time, location))
            student, location, time, amount, spend = (
                column[order] for column in (student, location, time, amount, spend))
        return cls(students, locations, student, location, time, amount, spend)

    def __len__(self) -> int:
        return len(self.time)

    def time_range(self) -> TimeRange:
        """Smallest half-open range covering every event."""
        if not len(self):
            raise ValueError("empty log has no time range")
        return TimeRange(int(self.time.min()), int(self.time.max()) + 1)


def parse_time(text: str) -> int:
    """Epoch seconds from integer text or ISO ``YYYY-MM-DDTHH:MM:SS`` (UTC).

    Raises ValueError for other text and for times outside
    [0, TIME_LIMIT), the range the behavior indicators' calendar covers.
    """
    try:
        value = int(text)
    except ValueError:
        try:
            dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
        except ValueError:
            raise ValueError(
                f"cannot parse time {text!r} (epoch seconds or YYYY-MM-DDTHH:MM:SS)"
            ) from None
        value = int(dt.replace(tzinfo=timezone.utc).timestamp())
    if not 0 <= value < TIME_LIMIT:
        raise ValueError(f"time {text!r} outside 1970-01-01 .. 9999-12-31")
    return value


def _row_fault(row: list[str], line: int) -> ParseError | None:
    """The ParseError for the first fault of a CSV row, or None if it has none."""
    if len(row) != len(CSV_HEADER):
        return ParseError(line, f"expected {len(CSV_HEADER)} columns, got {len(row)}")
    student, raw_ts, location, kind, raw_amount = (field.strip() for field in row)
    for column, value in (("student_id", student), ("location_id", location)):
        if not value:
            return ParseError(line, f"empty {column}")
        if not _BREAKS.isdisjoint(value):
            return ParseError(line, f"{column} {value!r} contains a tab or line break")
    if kind not in KINDS:
        return ParseError(line, f"unknown kind {kind!r}")
    try:
        parse_time(raw_ts)
    except ValueError as exc:
        return ParseError(line, f"bad timestamp: {exc}")
    try:
        amount = float(raw_amount)
    except ValueError:
        return ParseError(line, f"unparsable amount {raw_amount!r}")
    if not math.isfinite(amount):
        return ParseError(line, f"non-finite amount {raw_amount!r}")
    if amount < 0:
        return ParseError(line, f"negative amount {raw_amount!r}")


def _bad_id(name: str) -> bool:
    return not name or not _BREAKS.isdisjoint(name)


def _column(texts: list[str], dtype, slow, bad) -> np.ndarray:
    """The texts as numbers of dtype in one pass, which numpy converts with
    int() or float() (test_events pins that); if that fails anywhere,
    slow(text) per text, and bad where slow raises ValueError."""
    try:
        return np.array(texts, dtype=dtype)
    except (ValueError, OverflowError):
        return np.fromiter((_or(slow, text, bad) for text in texts), dtype=dtype, count=len(texts))


def _or(convert, text: str, bad):
    try:
        return convert(text)
    except ValueError:
        return bad


# The row checks strip each field. int() and float() skip the same
# surrounding whitespace, except the separators \x1c-\x1f, so the slow
# paths strip the text first.
def _times(texts: list[str]) -> np.ndarray:
    return _column(texts, np.int64, lambda text: parse_time(text.strip()), -1)


def _amounts(texts: list[str]) -> np.ndarray:
    return _column(texts, np.float64, lambda text: float(text.strip()), math.nan)


def _coded_log(blocks: Iterator[list[str] | None]) -> EventLog | int:
    """The log of the rows in blocks (the header's fields, then each block's
    fields, 5 a row, or None for one that did not split so), or the index of
    the first row with a bad field or, after a None, the first row left out."""
    if [h.strip() for h in next(blocks) or ()] != CSV_HEADER:
        return 0
    ids: tuple[dict[str, int], ...] = ({}, {}, {})  # raw student, location and kind texts
    names: tuple[dict[str, int], ...] = ({}, {}, {})  # their stripped forms
    columns = []
    for fields in chain([[]], blocks):  # an empty block first, so a log may have no rows
        if fields is None:
            break
        columns.append((_code(ids[0], names[0], fields[0::5]), _code(ids[1], names[1], fields[2::5]),
                        _code(ids[2], names[2], fields[3::5]), _times(fields[1::5]),
                        _amounts(fields[4::5])))
    student, location, kind, time, amount = (np.concatenate(column) for column in zip(*columns))
    students, locations, kinds = (tuple(n) for n in names)
    bad = (np.array([_bad_id(name) for name in students], dtype=bool)[student]
           | np.array([_bad_id(name) for name in locations], dtype=bool)[location]
           | np.array([name not in KINDS for name in kinds], dtype=bool)[kind]
           | (time < 0) | (time >= TIME_LIMIT) | ~np.isfinite(amount) | (amount < 0))
    if bad.any():
        return int(np.argmax(bad))
    if fields is None:
        return len(time)
    spend = np.array([name == "spend" for name in kinds], dtype=bool)[kind]
    return EventLog.from_codes(students, student, locations, location, time, amount, spend)


def _code(ids: dict[str, int], names: dict[str, int], texts: list[str]) -> np.ndarray:
    """Each text's code, that of its stripped form in names. ids caches the
    code of each raw text, so each distinct text is stripped once; both gain
    the texts they lack."""
    for text in filterfalse(ids.__contains__, dict.fromkeys(texts)):
        ids[text] = names.setdefault(text.strip(), len(names))
    return np.fromiter(map(ids.__getitem__, texts), dtype=np.int64, count=len(texts))


def parse_events(stream: IO[str]) -> EventLog:
    """Read a CSV stream into a canonical EventLog.

    Every well-formed row is kept (including recharges and duplicates);
    filtering is a separate step. Malformed input raises ParseError with
    the 1-based physical line number of the first faulty row; lines end at
    "\\n", "\\r\\n" or "\\r", as in a file opened with newline="".

    Text without quotes or NULs has its line ends folded to "\\n" and is
    split with str.split; the csv module splits any other text. One coder
    checks the rows a block at a time; if one is faulty, the csv module
    reads the text again to name the first.
    """
    text = stream.read()
    if '"' in text or "\0" in text:
        text = text.encode("utf-8", "surrogatepass")  # only the copy the csv module reads
        log = _coded_log(_csv_blocks(_csv_reader(text)))
    else:
        text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
        log = _coded_log(_split_blocks(text))
    if isinstance(log, int):
        raise _first_fault(_csv_reader(text), log)
    return log


def _csv_reader(text: str | bytes):
    """csv.reader over text held as UTF-8 (a StringIO holds 4 bytes a character),
    reading lines as a file opened with newline="" does."""
    data = io.BytesIO(text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text)
    return csv.reader(io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass", newline=""))


def _split_blocks(text: str) -> Iterator[list[str] | None]:
    """_coded_log's blocks of text without quotes, CRs or NULs, split at "\\n" and "," as
    the csv module splits it; a block with a row of other than 5 fields, or with a field
    over the module's limit, is None."""
    limit = csv.field_size_limit()
    header = text.partition("\n")[0]
    yield header.split(",") if max(map(len, header.split(","))) <= limit else None
    start = len(header) + 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK)
        if end < 0:
            end = len(text)
        rows = list(filter(None, text[start:end].split("\n")))  # csv skips blank lines
        start = end + 1
        fields = ",".join(rows).split(",") if rows else []
        if (list(map(str.count, rows, repeat(","))).count(len(CSV_HEADER) - 1) != len(rows)
                or max(map(len, rows), default=0) > limit and max(map(len, fields)) > limit):
            yield None
            return
        yield fields


def _csv_blocks(reader) -> Iterator[list[str] | None]:
    """_coded_log's blocks of a csv.reader's rows, _ROWS rows a block; a block with
    a row of other than 5 fields, or where the reader fails, is None."""
    try:
        yield next(reader, None)
        for rows in iter(lambda: list(islice(reader, _ROWS)), []):
            if not {0, len(CSV_HEADER)}.issuperset(map(len, rows)):  # a blank line reads as []
                yield None
                return
            yield list(chain.from_iterable(rows))
    except csv.Error:  # an overlong field, such as one an unclosed quote runs on
        yield None


def _first_fault(reader, first: int) -> ParseError:
    """The ParseError for the first faulty row a csv.reader reads, where those
    before row first (blank lines skipped) are known to have 5 good fields."""
    try:
        header = next(reader, None)
        if header is None:
            return ParseError(1, "missing header")
        if [h.strip() for h in header] != CSV_HEADER:
            return ParseError(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        end, k = reader.line_num, 0
        for row in reader:
            line, end = end + 1, reader.line_num
            if row and (k >= first or len(row) != 5) and (fault := _row_fault(row, line)):
                return fault
            k += bool(row)
    except csv.Error as exc:
        return ParseError(reader.line_num, str(exc))
    raise AssertionError(f"row {first} was rejected but has no fault")


def parse_events_path(path) -> EventLog:
    """The log of the CSV file at path: read from its column companion where
    that matches the file, parsed from the text otherwise."""
    log = _read_columns(path)
    if log is not None:
        return log
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return parse_events(handle)


def _read_columns(path) -> EventLog | None:
    """The log that the column companion of the CSV file at path holds, or
    None unless read_columns accepts it and it holds equal columns, and ids and
    values that the parser accepts."""
    read = read_columns(path, _LAYOUT)
    if read is None or len(set(map(len, read[1]))) > 1:
        return None
    header, (student, location, time, amount, spend) = read
    students, locations = header.get("students"), header.get("locations")
    for ids, codes in ((students, student), (locations, location)):
        if (not isinstance(ids, list) or not all(isinstance(name, str) for name in ids)
                or any(map(_bad_id, ids)) or any(a >= b for a, b in zip(ids, ids[1:]))
                or not ((codes >= 0) & (codes < len(ids))).all()):
            return None
    if not (((time >= 0) & (time < TIME_LIMIT) & np.isfinite(amount) & (amount >= 0)
             & (spend <= 1)).all()):
        return None
    return EventLog.from_codes(students, student, locations, location, time, amount,
                               spend.view(bool))


def filter_events(log: EventLog, keep_locations: frozenset[str] | set[str]) -> EventLog:
    """Keep spend events at the given locations (empty set keeps all
    locations); log itself if that keeps every event."""
    keep = log.spend
    if keep_locations:
        kept = [code for code, name in enumerate(log.locations) if name in keep_locations]
        keep = keep & np.isin(log.location, kept)
    if keep.all():
        return log
    return EventLog.from_codes(log.students, log.student[keep], log.locations, log.location[keep],
                               log.time[keep], log.amount[keep], log.spend[keep])


def _csv_cell(text: str) -> str:
    """text as the csv module writes it inside a row, quoted if it must be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def _csv_text(log: EventLog) -> Iterator[str]:
    """The canonical CSV text of log in pieces: the header line, then blocks
    of rows. A row joins its student's cell, time, (location, kind) cell and
    amount; the cells are made once per id."""
    students = [_csv_cell(name) + "," for name in log.students]
    places = [f",{_csv_cell(name)},{kind},"
              for name in log.locations for kind in ("recharge", "spend")]
    yield ",".join(CSV_HEADER) + "\n"
    for start in range(0, len(log), _ROWS):
        block = slice(start, start + _ROWS)
        rows = zip(
            map(students.__getitem__, log.student[block].tolist()),
            map(str, log.time[block].tolist()),
            map(places.__getitem__, (2 * log.location[block] + log.spend[block]).tolist()),
            map(repr, log.amount[block].tolist()),
            repeat("\n"),
        )
        yield "".join(map("".join, rows))


def write_events_csv(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_csv_text(log))


def write_canonical(log: EventLog, path) -> None:
    """write_events_csv, then the column companion beside the CSV that lets
    parse_events_path read log back without parsing the text."""
    write_events_csv(log, path)
    write_columns(path, _LAYOUT, [getattr(log, name) for name, _ in _LAYOUT],
                  students=list(log.students), locations=list(log.locations))
