import io
import random

import pytest

from tieflow.events import (
    EventLog,
    EventRecord,
    ParseError,
    TimeRange,
    filter_events,
    parse_events,
    serialize_events,
)

HEADER = "student_id,timestamp,location_id,kind,amount\n"


def parse(text: str) -> EventLog:
    return parse_events(io.StringIO(text))


def test_empty_body_gives_empty_log():
    log = parse(HEADER)
    assert len(log) == 0
    assert log.students == frozenset()
    assert log.locations == frozenset()


def test_single_well_formed_row():
    log = parse(HEADER + "s1,1000,caf3,spend,12.50\n")
    assert len(log) == 1
    record = log.records[0]
    assert record == EventRecord("s1", 1000, "caf3", "spend", 12.5)


def test_unknown_kind_names_line_two():
    with pytest.raises(ParseError, match="line 2"):
        parse(HEADER + "s1,1000,caf3,topup,12.50\n")


def test_missing_header_is_error():
    with pytest.raises(ParseError, match="line 1"):
        parse("")


def test_wrong_header_is_error():
    with pytest.raises(ParseError, match="line 1"):
        parse("a,b,c,d,e\ns1,1000,caf3,spend,1\n")


def test_wrong_column_count_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse(HEADER + "s1,1000,caf3,spend,1\ns2,1000,caf3,spend\n")


def test_unparsable_timestamp_and_amount():
    with pytest.raises(ParseError, match="timestamp"):
        parse(HEADER + "s1,noon,caf3,spend,1\n")
    with pytest.raises(ParseError, match="amount"):
        parse(HEADER + "s1,1000,caf3,spend,lots\n")
    with pytest.raises(ParseError, match="line 2: bad timestamp"):
        parse(HEADER + "s1,253402300800,caf3,spend,1\n")  # 10000-01-01
    for amount in ("nan", "inf"):
        with pytest.raises(ParseError, match="line 2: non-finite amount"):
            parse(HEADER + f"s1,1000,caf3,spend,{amount}\n")


def test_negative_amount_rejected():
    with pytest.raises(ParseError, match="line 2"):
        parse(HEADER + "s1,1000,caf3,spend,-4\n")


def test_iso_timestamp_parsed_as_utc():
    log = parse(HEADER + "s1,1970-01-01T00:16:40,caf3,spend,1\n")
    assert log.records[0].timestamp == 1000


def test_crlf_line_endings_accepted():
    log = parse(HEADER.replace("\n", "\r\n") + "s1,1000,caf3,spend,1\r\n")
    assert len(log) == 1


def test_records_sorted_by_location_then_time():
    log = parse(
        HEADER
        + "s1,500,zzz,spend,1\n"
        + "s2,900,aaa,spend,1\n"
        + "s3,100,aaa,spend,1\n"
    )
    keys = [(r.location_id, r.timestamp) for r in log.records]
    assert keys == sorted(keys)


def test_duplicate_rows_are_retained():
    row = "s1,1000,caf3,spend,2.0\n"
    log = parse(HEADER + row + row)
    assert len(log) == 2


def test_filter_drops_recharge():
    log = parse(
        HEADER + "s1,1000,caf3,spend,12.50\n" + "s1,2000,caf3,recharge,50\n"
    )
    filtered = filter_events(log, {"caf3"})
    assert len(filtered) == 1
    assert filtered.records[0].kind == "spend"


def test_filter_empty_keep_set_is_identity_on_spend_log():
    log = parse(HEADER + "s1,1000,caf3,spend,1\ns2,50,shop1,spend,2\n")
    assert filter_events(log, frozenset()) == log


def test_filter_keeps_named_venues_only():
    rows = [f"s1,{1000 + i},loc{i},spend,1\n" for i in range(10)]
    log = parse(HEADER + "".join(rows))
    keep = {f"loc{i}" for i in range(4)}
    filtered = filter_events(log, keep)
    assert filtered.locations == frozenset(keep)
    assert len(filtered) == 4


def test_filter_is_idempotent_and_never_grows():
    rng = random.Random(7)
    rows = [
        f"s{rng.randrange(5)},{rng.randrange(10_000)},loc{rng.randrange(4)},"
        f"{rng.choice(['spend', 'recharge'])},{rng.randrange(100)}\n"
        for _ in range(200)
    ]
    log = parse(HEADER + "".join(rows))
    keep = {"loc0", "loc2"}
    once = filter_events(log, keep)
    twice = filter_events(once, keep)
    assert once == twice
    assert len(once) <= len(log)


def test_serialize_round_trip_identity():
    rng = random.Random(13)
    rows = [
        f"s{rng.randrange(6)},{rng.randrange(100_000)},loc{rng.randrange(5)},"
        f"{rng.choice(['spend', 'recharge'])},{rng.random() * 40}\n"
        for _ in range(300)
    ]
    log = parse(HEADER + "".join(rows))
    assert parse(serialize_events(log)) == log


def test_time_range_covers_events():
    log = parse(HEADER + "s1,100,a,spend,1\ns2,900,b,spend,1\n")
    span = log.time_range()
    assert span.start == 100 and span.end == 901
    assert span.contains(900) and not span.contains(901)


def test_time_range_rejects_empty_interval():
    with pytest.raises(ValueError):
        TimeRange(5, 5)
