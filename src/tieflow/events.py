"""Event log ingestion: parse, filter, and serialize consumption records.

The canonical input is a CSV stream with header
``student_id,timestamp,location_id,kind,amount``. Timestamps are integer
epoch seconds (UTC); ISO ``YYYY-MM-DDTHH:MM:SS`` is accepted on input and
interpreted as UTC.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Iterable

CSV_HEADER = ["student_id", "timestamp", "location_id", "kind", "amount"]
KINDS = ("spend", "recharge")
TIME_LIMIT = 253402300800  # 10000-01-01T00:00:00Z, where datetime's calendar ends


class ParseError(ValueError):
    """Raised for malformed event input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class EventRecord:
    student_id: str
    timestamp: int  # epoch seconds, UTC
    location_id: str
    kind: str  # "spend" | "recharge"
    amount: float


@dataclass(frozen=True)
class TimeRange:
    """Half-open interval [start, end) in epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("time range must have end > start")

    def contains(self, t: int) -> bool:
        return self.start <= t < self.end

    @property
    def span_seconds(self) -> int:
        return self.end - self.start

    @property
    def span_days(self) -> float:
        return self.span_seconds / 86400.0


@dataclass(frozen=True)
class EventLog:
    """Immutable event collection, sorted by (location_id, timestamp)."""

    records: tuple[EventRecord, ...]
    students: frozenset[str]
    locations: frozenset[str]

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> "EventLog":
        ordered = tuple(sorted(records, key=lambda r: (r.location_id, r.timestamp)))
        return cls(
            records=ordered,
            students=frozenset(r.student_id for r in ordered),
            locations=frozenset(r.location_id for r in ordered),
        )

    def __len__(self) -> int:
        return len(self.records)

    def time_range(self) -> TimeRange:
        """Smallest half-open range covering every event."""
        if not self.records:
            raise ValueError("empty log has no time range")
        times = [r.timestamp for r in self.records]
        return TimeRange(min(times), max(times) + 1)


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


def _parse_row(row: list[str], line: int) -> EventRecord:
    if len(row) != len(CSV_HEADER):
        raise ParseError(line, f"expected {len(CSV_HEADER)} columns, got {len(row)}")
    student, raw_ts, location, kind, raw_amount = (field.strip() for field in row)
    if not student:
        raise ParseError(line, "empty student_id")
    if not location:
        raise ParseError(line, "empty location_id")
    if kind not in KINDS:
        raise ParseError(line, f"unknown kind {kind!r}")
    try:
        timestamp = parse_time(raw_ts)
    except ValueError as exc:
        raise ParseError(line, f"bad timestamp: {exc}") from None
    try:
        amount = float(raw_amount)
    except ValueError:
        raise ParseError(line, f"unparsable amount {raw_amount!r}") from None
    if not math.isfinite(amount):
        raise ParseError(line, f"non-finite amount {raw_amount!r}")
    if amount < 0:
        raise ParseError(line, f"negative amount {raw_amount!r}")
    return EventRecord(student, timestamp, location, kind, amount)


def parse_events(stream: IO[str] | Iterable[str]) -> EventLog:
    """Read a CSV stream into a canonical EventLog.

    Every well-formed row is kept (including recharges and duplicates);
    filtering is a separate step. Malformed rows raise ParseError with the
    1-based line number.
    """
    reader = csv.reader(stream)
    records = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "missing header")
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if row:
                records.append(_parse_row(row, line))
    except csv.Error as exc:  # an overlong field, such as one an unclosed quote runs on
        raise ParseError(reader.line_num, str(exc)) from None
    return EventLog.from_records(records)


def parse_events_path(path) -> EventLog:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_events(handle)


def filter_events(log: EventLog, keep_locations: frozenset[str] | set[str]) -> EventLog:
    """Keep spend events at the given locations (empty set keeps all locations)."""
    kept = [
        r
        for r in log.records
        if r.kind == "spend" and (not keep_locations or r.location_id in keep_locations)
    ]
    return EventLog.from_records(kept)


def serialize_events(log: EventLog) -> str:
    """Canonical CSV form; parse_events(serialize_events(log)) == log."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in log.records:
        writer.writerow([r.student_id, r.timestamp, r.location_id, r.kind, repr(r.amount)])
    return buffer.getvalue()


def write_events_csv(log: EventLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(serialize_events(log))
