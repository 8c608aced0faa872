import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tieflow.events
from tieflow.artifacts import write_columns
from tieflow.cli import main
from tieflow.cooccur import build_cooccurrence_graph
from tieflow.events import (
    _BLOCK,
    KINDS,
    EventLog,
    ParseError,
    TimeRange,
    filter_events,
    parse_events,
    parse_events_path,
    write_canonical,
    write_events_csv,
)
from tieflow.ifs import FlowParams, detect_communities, sweep_epsilon
from tieflow.metrics import behavior_profiles, variance_comparison
from tieflow.orient import orient_edges, read_tie_graph_json, write_tie_graph_json
from tieflow.pagerank import pagerank
from tieflow.synth import SyntheticConfig, default_category_map, generate
from tieflow.tiedecay import DEFAULT_HALF_LIFE, DecayParams, snapshot_at

from oracles import log_rows, reference_parse
from test_cli import GOLDEN, GRAPH

HEADER = "student_id,timestamp,location_id,kind,amount\n"


def parse(text: str) -> EventLog:
    return parse_events(io.StringIO(text))


def reread(log: EventLog, tmp_path) -> EventLog:
    """The log parsed back from the file write_events_csv writes."""
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    return parse_events_path(path)


def test_empty_body_gives_empty_log():
    log = parse(HEADER)
    assert len(log) == 0
    assert log.students == ()
    assert log.locations == ()


def test_single_well_formed_row():
    log = parse(HEADER + "s1,1000,caf3,spend,12.50\n")
    assert len(log) == 1
    assert log_rows(log) == [("s1", 1000, "caf3", "spend", 12.5)]


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


def test_numbers_padded_with_separator_characters_are_stripped():
    # str.strip() removes \x1c-\x1f, which int() and float() do not skip.
    text = HEADER + "s1,\x1c1000\x1d,caf,spend,\x1e1.5\x1f\n"
    assert log_rows(parse(text)) == reference_parse(io.StringIO(text)) == [
        ("s1", 1000, "caf", "spend", 1.5)]


def test_iso_timestamp_parsed_as_utc():
    log = parse(HEADER + "s1,1970-01-01T00:16:40,caf3,spend,1\n")
    assert log.time.tolist() == [1000]


def test_crlf_line_endings_accepted(tmp_path):
    text = HEADER + "s1,1000,caf3,spend,1\n"
    # CRLF line ends, and the UTF-8 byte-order mark that spreadsheet
    # programs put first, read as the plain file does.
    for variant in (text.replace("\n", "\r\n"), "\ufeff" + text):
        path = tmp_path / "events.csv"
        path.write_text(variant, encoding="utf-8", newline="")
        assert log_rows(parse_events_path(path)) == log_rows(parse(text)) != []


def test_records_sorted_by_location_then_time():
    log = parse(
        HEADER
        + "s1,500,zzz,spend,1\n"
        + "s2,900,aaa,spend,1\n"
        + "s3,100,aaa,spend,1\n"
    )
    keys = [(location, timestamp) for _, timestamp, location, _, _ in log_rows(log)]
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
    assert log_rows(filtered)[0][3] == "spend"


def test_filter_empty_keep_set_is_identity_on_spend_log():
    log = parse(HEADER + "s1,1000,caf3,spend,1\ns2,50,shop1,spend,2\n")
    assert log_rows(filter_events(log, frozenset())) == log_rows(log)


def test_filter_that_drops_nothing_returns_the_log():
    log = parse(HEADER + "s1,1000,caf3,spend,1\ns2,50,shop1,spend,2\n")
    rows = log_rows(log)
    for keep in (frozenset(), {"caf3", "shop1"}):
        assert filter_events(log, keep) is log
    assert log_rows(log) == rows


def test_filter_keeps_named_venues_only():
    rows = [f"s1,{1000 + i},loc{i},spend,1\n" for i in range(10)]
    log = parse(HEADER + "".join(rows))
    keep = {f"loc{i}" for i in range(4)}
    filtered = filter_events(log, keep)
    assert set(filtered.locations) == keep
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
    assert log_rows(once) == log_rows(twice)
    assert len(once) <= len(log)


def test_serialize_round_trip_identity(tmp_path):
    rng = random.Random(13)
    rows = [
        f"s{rng.randrange(6)},{rng.randrange(100_000)},loc{rng.randrange(5)},"
        f"{rng.choice(['spend', 'recharge'])},{rng.random() * 40}\n"
        for _ in range(300)
    ]
    log = parse(HEADER + "".join(rows))
    assert log_rows(reread(log, tmp_path)) == log_rows(log)


def test_time_range_covers_events():
    log = parse(HEADER + "s1,100,a,spend,1\ns2,900,b,spend,1\n")
    span = log.time_range()
    assert span.start == 100 and span.end == 901


def test_time_range_rejects_empty_interval():
    with pytest.raises(ValueError):
        TimeRange(5, 5)


@pytest.mark.parametrize("field", ["s\t1", "s\r1", "s\n1"])
def test_ids_with_tab_or_line_break_rejected(field):
    with pytest.raises(ParseError, match="line 2: student_id .* contains a tab or line break"):
        parse(HEADER + f'"{field}",1000,caf,spend,1\n')
    with pytest.raises(ParseError, match="line 2: location_id .* contains a tab or line break"):
        parse(HEADER + f's1,1000,"{field}",spend,1\n')


def test_fault_after_multiline_field_names_physical_line():
    # The quoted timestamp spans lines 2-3 and is valid; the bad row is line 4.
    with pytest.raises(ParseError, match="^line 4: unknown kind 'topup'$"):
        parse(HEADER + 's1,"1000\n",caf,spend,1\n' + "s2,1000,caf,topup,1\n")


def test_equal_keys_keep_input_order():
    rows = "".join(f"s{k % 3},1000,caf,spend,{k}\n" for k in range(6))
    log = parse(HEADER + "s9,999,zzz,spend,1\n" + rows + rows)
    assert [row[4] for row in log_rows(log)] == [*range(6), *range(6), 1.0]


def test_ids_needing_quotes_round_trip(tmp_path):
    log = parse(HEADER + '"s,1",1000,"caf ""3""",spend,1\n')
    assert log_rows(log) == [("s,1", 1000, 'caf "3"', "spend", 1.0)]
    assert log_rows(reread(log, tmp_path)) == log_rows(log)


# ------------------------------------------------ oracle: row-by-row parser

ROWS = [["s1", "1000", "caf", "spend", "1.5"],
        ["s2", "1970-01-01T00:16:40", "caf", "recharge", "20"],
        ["s1", "1000", "shop", "spend", "1_000"],
        ['s"3', "2000", "caf", " spend ", "0"]]
# Pieces that move a row between valid and faulty: quotes, line breaks,
# separators, whitespace, signs, digits, ISO and underscore times, and kinds.
PIECE_TEXTS = ['"', "\n", "\r\n", "\r", ",", " ", "\t", "-", "_", "1", "0", "\x00",
               "-1", "253402300800", "1e400", "1_000", "1970-01-01T00:00:00", "T",
               ":", "nan", "inf", "spend", "recharge", "topup", "", "\n\n"]
PIECES = st.sampled_from(PIECE_TEXTS)
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=500)


@st.composite
def mutated_body(draw) -> str:
    """ROWS with pieces put in or in place of some fields, each field quoted or not,
    and maybe one more piece spliced anywhere into the text."""
    rows = [list(fields) for fields in ROWS]
    for _ in range(draw(st.integers(1, 3))):
        fields, k = draw(st.sampled_from(rows)), draw(st.integers(0, 4))
        pieces = "".join(draw(st.lists(PIECES | st.characters(codec="utf-8"), max_size=3)))
        if draw(st.booleans()):
            fields[k] = pieces
        else:
            start = draw(st.integers(0, len(fields[k])))
            stop = draw(st.integers(start, len(fields[k])))
            fields[k] = fields[k][:start] + pieces + fields[k][stop:]
    text = "".join(
        ",".join('"' + f.replace('"', '""') + '"' if draw(st.booleans()) else f for f in fields)
        + "\n" for fields in rows)
    if draw(st.integers(0, 3)) == 0:
        start = draw(st.integers(0, len(text)))
        text = text[:start] + draw(PIECES) + text[start + draw(st.integers(0, 3)):]
    return text


def parse_rows(stream) -> list[tuple]:
    return log_rows(parse_events(stream))


def outcome(parser, text):
    try:
        return "rows", parser(io.StringIO(text, newline=""))
    except ParseError as exc:
        return "error", str(exc)


@ORACLE
@given(mutated_body())
def test_parse_matches_row_by_row_reference(body):
    got = outcome(parse_rows, HEADER + body)
    assert got == outcome(reference_parse, HEADER + body)


def test_fault_on_line_40001_is_reported_there():
    # One row spans two physical lines, so rows and lines differ by one.
    rows = ['s1,"1000\n",caf,spend,1\n'] + [f"s{k % 7},{k},caf,spend,1\n" for k in range(39_997)]
    text = HEADER + "".join(rows) + "s1,1000,caf,spend,lots\n"
    assert text.count("\n") == 40_001
    # CRLF text with a blank line and a lone CR end and no quote, so that it
    # is split without the csv module until the fault is named.
    crlf = (HEADER + "\ns0,0,caf,spend,1\r" + "".join(rows[1:]) + "s1,1000,caf,spend,lots\n"
            ).replace("\n", "\r\n")
    for text in (text, crlf):
        assert outcome(reference_parse, text)[1] == "line 40001: unparsable amount 'lots'"
        with pytest.raises(ParseError, match="^line 40001: unparsable amount 'lots'$"):
            parse(text)


def test_first_of_two_faulty_rows_wins():
    good = "s1,1000,caf,spend,1\n"
    cases = [
        (good + "s1,1000,caf,spend,-1\n" + good + "s1,1000,caf,topup,1\n", "line 3: negative"),
        (good + "s1,noon,caf,spend,1\n" + "s1,1000,caf\n", "line 3: bad timestamp"),
        (good + "s1,1000,caf,spend,1,2\n" + "s1,1000,caf,topup,1\n", "line 3: expected 5"),
        (good + "s1,1000,,spend,1\n" + 's1,1000,caf,spend,"' + "x" * 200_000, "line 3: empty"),
    ]
    for body, fault in cases:
        with pytest.raises(ParseError, match=f"^{fault}"):
            parse(HEADER + body)
        assert outcome(reference_parse, HEADER + body)[1].startswith(fault)


# ------------------------------------------- the plain path: str.split, no csv

# PIECES without the characters that send text through the csv module.
PLAIN_PIECES = st.sampled_from([p for p in PIECE_TEXTS if not any(c in p for c in '"\r\x00')])
PLAIN_CHARACTERS = st.characters(codec="utf-8", exclude_characters='"\r\x00')


@st.composite
def plain_body(draw) -> str:
    """ROWS without their quote, with pieces put in or in place of some fields,
    fields padded with spaces or tabs, and blank lines between the rows."""
    rows = [[field.replace('"', "") for field in fields] for fields in ROWS]
    for _ in range(draw(st.integers(0, 3))):
        fields, k = draw(st.sampled_from(rows)), draw(st.integers(0, 4))
        pieces = "".join(draw(st.lists(PLAIN_PIECES | PLAIN_CHARACTERS, max_size=3)))
        if draw(st.booleans()):
            fields[k] = pieces
        else:
            start = draw(st.integers(0, len(fields[k])))
            stop = draw(st.integers(start, len(fields[k])))
            fields[k] = fields[k][:start] + pieces + fields[k][stop:]
    padding = st.sampled_from(["", "", " ", "\t", "  "])
    return "".join(
        "\n" * draw(st.integers(0, 2))
        + ",".join(draw(padding) + field + draw(padding) for field in fields) + "\n"
        for fields in rows)


@ORACLE
@given(plain_body())
def test_plain_parse_matches_row_by_row_reference(body):
    assert not any(c in body for c in '"\r\x00')
    got = outcome(parse_rows, HEADER + body)
    assert got == outcome(reference_parse, HEADER + body)


def no_csv_reader(*args, **kwargs):
    raise AssertionError("plain text went through csv.reader")


def test_plain_fault_in_the_last_block_is_reported_on_its_line(monkeypatch):
    # Over 40,000 rows, two in three of them followed by blank lines, so that
    # blank lines fall on the boundaries of the blocks that are split at once.
    rows = [f"s{k % 7},{k},loc{k % 5},spend,{k % 13}.5\n" + "\n" * (k % 3)
            for k in range(40_500)]
    good = HEADER + "".join(rows)
    assert len(good) > 10 * _BLOCK
    expected = outcome(reference_parse, good)
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", no_csv_reader)
        assert outcome(parse_rows, good) == expected
    line = good.count("\n") + 1
    with pytest.raises(ParseError, match=f"^line {line}: unparsable amount 'lots'$"):
        parse(good + "s1,1000,caf,spend,lots\n\n")


def test_overlong_plain_field_is_reported_as_the_csv_module_reports_it():
    text = HEADER + "s1,1000,caf,spend,1\n" + "s" * 200_000 + ",1000,caf,spend,1\n"
    with pytest.raises(ParseError, match=r"^line 3: field larger than field limit \(131072\)$"):
        parse(text)


def test_plain_text_is_parsed_without_the_csv_module(tmp_path, monkeypatch):
    # A copy without the golden column companion, so that the text is parsed.
    path = tmp_path / "canonical.csv"
    path.write_bytes((Path(__file__).parent / "golden" / "chain" / "canonical.csv").read_bytes())
    expected = reference_parse(io.StringIO(path.read_text(encoding="utf-8"), newline=""))
    monkeypatch.setattr(csv, "reader", no_csv_reader)
    assert log_rows(parse_events_path(path)) == expected != []


LINE_ENDS = st.lists(st.sampled_from(["\r\n", "\r"]), min_size=1, max_size=4)


@ORACLE
@given(plain_body(), LINE_ENDS)
def test_cr_and_crlf_plain_text_matches_reference_without_the_csv_module(body, ends):
    # The body's line ends become CRLF and lone CR ends, in turn; the csv
    # module may only name a fault.
    lines = (HEADER + body).split("\n")
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines[:-1])) + lines[-1]
    expected = outcome(reference_parse, text)
    with mock.patch.object(csv, "reader", no_csv_reader if expected[0] == "rows" else csv.reader):
        assert outcome(parse_rows, text) == expected


def test_quoted_text_split_across_small_blocks_matches_reference(monkeypatch):
    rows = [f'"s{k % 3}",{1000 + k},"caf","spend","{k}"\n' for k in range(12)]
    multiline = 's9,"1000\n",caf,"spend",1\n'  # one row on two lines
    blank = "\n\n\n"  # a block of blank lines alone must not end the text
    faulty = '"s1",1000,caf,"topup",1\n'
    for rows_a_block in (1, 2, 3):
        monkeypatch.setattr(tieflow.events, "_ROWS", rows_a_block)
        for k in range(len(rows) + 1):
            body = "".join(rows[:k]) + multiline + blank + "".join(rows[k:])
            for text in (HEADER + body, HEADER + body + "".join(rows) + faulty + rows[0]):
                assert outcome(parse_rows, text) == outcome(reference_parse, text)
    with pytest.raises(ParseError, match="^line 31: unknown kind 'topup'$"):
        parse(HEADER + "".join(rows) + multiline + blank + "".join(rows) + faulty)


def test_long_unquoted_lines_of_short_fields_parse(monkeypatch):
    # Each line is longer than the csv field limit (131072), no field is.
    pad = " " * 30_000
    header = ",".join(pad + name + pad for name in HEADER.strip().split(",")) + "\n"
    row = "s" * 100_000 + ",1000," + "c" * 100_000 + ",spend," + pad + "1\n"
    text = header + row + "s1,1000,caf,spend,1\n"
    expected = outcome(reference_parse, text)
    assert expected[0] == "rows" and len(expected[1]) == 2
    monkeypatch.setattr(csv, "reader", no_csv_reader)
    assert outcome(parse_rows, text) == expected
    monkeypatch.undo()
    # A header field over the limit is a fault, though it strips to the name.
    text = " " * 140_000 + HEADER + "s1,1000,caf,spend,1\n"
    expected = ("error", "line 1: field larger than field limit (131072)")
    assert outcome(parse_rows, text) == outcome(reference_parse, text) == expected


def test_fault_locator_checks_only_rows_the_coder_did_not_pass(monkeypatch):
    lines = []
    check = tieflow.events._row_fault
    monkeypatch.setattr(tieflow.events, "_row_fault",
                        lambda row, line: lines.append(line) or check(row, line))
    good = "".join(f"s{k % 7},{k},caf,spend,1\n" for k in range(5_000))
    for body in (good, good.replace("\n", "\r\n"), good.replace("caf", '"caf"')):
        lines.clear()
        with pytest.raises(ParseError, match="^line 5002: unparsable amount 'lots'$"):
            parse(HEADER + body + "s1,1000,caf,spend,lots\n")
        assert lines == [5002]


# ------------------------------------------- numbers: numpy against int/float

# Pieces of number text: ASCII and other unicode digits, underscores, signs,
# points and exponents, padding that int() and float() skip or refuse
# (\x1c-\x1f among it), the special floats, and values at the ends of int64
# and float64.
NUMBER_PIECES = st.sampled_from([
    "0", "1", "7", "9", "٣", "１", "𝟏", "_", "__", ".", "e", "E", "e-", "+", "-", " ", "\t",
    "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " ", "　", "\x00",
    "nan", "NaN", "-nan", "inf", "-Inf", "infinity", "INFINITY", "1e309", "-1e309", "1e-400",
    "0x10", "12345678901234567890", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "1" * 4301])
NUMBER_TEXTS = st.lists(NUMBER_PIECES | st.characters(codec="utf-8"), max_size=6).map("".join)


def python_number(convert, text: str):
    """("value", convert(text)) where that fits float64 or int64, else ("error",)."""
    try:
        value = convert(text)
    except ValueError:
        return ("error",)
    if convert is int and not -2**63 <= value < 2**63:
        return ("error",)
    return ("value", repr(value))


def numpy_numbers(dtype, texts: list[str]):
    try:
        return [("value", repr(value)) for value in np.array(texts, dtype=dtype).tolist()]
    except (ValueError, OverflowError):
        return ("error",)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.lists(NUMBER_TEXTS, min_size=1, max_size=4))
def test_numpy_converts_number_text_as_int_and_float_do(texts):
    # _column's fast path converts a whole column with np.array(texts, dtype):
    # it must give int()'s and float()'s values and fail wherever they fail.
    for dtype, convert in ((np.int64, int), (np.float64, float)):
        expected = [python_number(convert, text) for text in texts]
        assert numpy_numbers(dtype, texts) == (("error",) if ("error",) in expected else expected)


# ------------------------------------------------------- the column companion

ID_TEXTS = ["s1", "s,2", 's"3', "ü", " padded ", "x\x1cy", "😀", "a b", "'q'"]


def same_log(a: EventLog, b: EventLog) -> bool:
    """Equal in all seven fields, arrays in dtype and bytes."""
    return (a.students, a.locations) == (b.students, b.locations) and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("student", "location", "time", "amount", "spend"))


def parsed(path) -> EventLog:
    """The log of the CSV text at path, whatever lies beside it."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return parse_events(handle)


def ingest(directory: Path, rows, keep=()) -> Path:
    """Write rows as a raw CSV in directory and ingest it to canonical.csv."""
    raw = io.StringIO()
    csv.writer(raw, lineterminator="\n").writerows([HEADER.strip().split(","), *rows])
    (directory / "raw.csv").write_text(raw.getvalue(), encoding="utf-8")
    out = directory / "canonical.csv"
    argv = ["ingest", "--input", str(directory / "raw.csv"), "--output", str(out)]
    assert main(argv + (["--keep-locations", ",".join(keep)] if keep else [])) == 0
    return out


EVENT_ROWS = st.lists(st.tuples(
    st.sampled_from(ID_TEXTS), st.sampled_from([0, 1, 1, 1000, 86399, 253402300799]),
    st.sampled_from(ID_TEXTS), st.sampled_from(KINDS),
    st.sampled_from(["0", "-0.0", "1", "1.5", "0.1", "1e-300", "12345678.25"])), max_size=30)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(EVENT_ROWS, st.lists(st.sampled_from(ID_TEXTS), max_size=3))
def test_companion_read_equals_the_parse_of_the_same_file(rows, keep):
    # Duplicate rows and equal times come from the small value pools;
    # recharges are filtered out, and --keep-locations drops some places.
    rows = rows + rows[:3]
    # --keep-locations is a comma-separated list, so it names no id with a comma.
    keep = sorted({name.strip() for name in keep if "," not in name}
                  & {row[2].strip() for row in rows})
    with tempfile.TemporaryDirectory() as directory:
        out = ingest(Path(directory), rows, keep)
        companion = Path(f"{out}.columns")
        assert companion.is_file()
        with mock.patch.object(tieflow.events, "parse_events", no_parse):
            log = parse_events_path(out)
        companion.unlink()
        assert same_log(log, parse_events_path(out))


def no_parse(stream):
    raise AssertionError("the companion was not read")


def edit_companion(path: Path, header=None, column=None, value=None, drop=0,
                   redigest=False) -> None:
    """Rewrite the companion of path with header edits, with its first row's
    value in the named column set to value, or with its last drop bytes cut.
    With redigest, line 1 is made to match the new bytes, so that the edit
    reaches the reader's own checks; without, line 1 stays as it was."""
    companion = Path(f"{path}.columns")
    digest, line, data = companion.read_bytes().split(b"\n", 2)
    doc = json.loads(line)
    if column is not None:
        offset = 0
        for (name, dtype), count in zip(tieflow.events._LAYOUT, doc["counts"]):
            if name == column:
                data = data[:offset] + np.array([value], dtype=dtype).tobytes() + data[
                    offset + np.dtype(dtype).itemsize:]
            offset += count * np.dtype(dtype).itemsize
    doc.update(header or {})
    line = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode() + b"\n"
    data = data[:len(data) - drop]
    if redigest:
        digest = hashlib.sha256(line + data).hexdigest().encode()
    companion.write_bytes(digest + b"\n" + line + data)


# One edit of each header field of a companion of ROWS_OF_THREE's log or of the
# golden chain's canonical.csv, which have the same ids.
HEADER_EDITS = {"students": ["s1", "s2", "s9"], "locations": ["caf", "shoq"], "counts": [0] * 5,
                "layout": "student:<i4", "source_bytes": 1, "sha256": "0" * 64}
ROWS_OF_THREE = [("s1", 1000, "caf", "spend", "1.5"), ("s2", 1060, "caf", "spend", "2"),
                 ("s3", 5000, "shop", "spend", "7.25")]
STALE = {
    "one byte edited": lambda path: path.write_bytes(path.read_bytes().replace(b"7.25", b"7.35")),
    "truncated": lambda path: Path(f"{path}.columns").write_bytes(
        Path(f"{path}.columns").read_bytes()[:-1]),
    "time edited, header unchanged": lambda path: edit_companion(path, column="time", value=1030),
    "digest edited": lambda path: Path(f"{path}.columns").write_bytes(
        b"0" * 64 + Path(f"{path}.columns").read_bytes()[64:]),
    "not json": lambda path: Path(f"{path}.columns").write_bytes(b"{\n"),
    # Header edits under line 1 as written: the digest alone sends them to the parse.
    **{f"{key} edited, line 1 unchanged": lambda path, edit={key: value}: edit_companion(
        path, header=edit) for key, value in HEADER_EDITS.items()},
    # Edits under a new line 1, which the reader's own checks must catch.
    "code out of range": lambda path: edit_companion(path, column="student", value=3,
                                                     redigest=True),
    "negative code": lambda path: edit_companion(path, column="location", value=-1,
                                                 redigest=True),
    "nan amount": lambda path: edit_companion(path, column="amount", value=math.nan,
                                              redigest=True),
    "unsorted ids": lambda path: edit_companion(path, header={"students": ["s2", "s1", "s3"]},
                                                redigest=True),
    "ids not strings": lambda path: edit_companion(path, header={"locations": [1, 2]},
                                                   redigest=True),
    "wrong rows": lambda path: edit_companion(path, header={"counts": [2] * 5}, redigest=True),
    "unequal counts": lambda path: edit_companion(path, header={"counts": [3, 3, 3, 3, 2]},
                                                  drop=1, redigest=True),
    "other layout": lambda path: edit_companion(path, header={"layout": "student:<i4"},
                                                redigest=True),
    "other source size": lambda path: edit_companion(path, header={"source_bytes": 1},
                                                     redigest=True),
    "other source digest": lambda path: edit_companion(path, header={"sha256": "0" * 64},
                                                       redigest=True),
}


@pytest.mark.parametrize("case", sorted(STALE))
def test_a_stale_or_damaged_companion_falls_back_to_the_parse(tmp_path, monkeypatch, case):
    out = ingest(tmp_path, ROWS_OF_THREE)
    size = out.stat().st_size
    STALE[case](out)
    assert out.stat().st_size == size
    calls = []
    monkeypatch.setattr(tieflow.events, "parse_events",
                        lambda stream: calls.append(1) or parse_events(stream))
    log = parse_events_path(out)
    assert calls == [1]
    assert same_log(log, parsed(out))
    if case == "one byte edited":
        assert log.amount.tolist() == [1.5, 2.0, 7.35]
    assert log.time.tolist() == [1000, 1060, 5000]


@pytest.mark.parametrize("key", sorted(HEADER_EDITS))
def test_a_header_edited_under_its_old_digest_is_read_from_the_csv(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)  # relative paths, as the golden chain's parameters hold
    for name in ("canonical.csv", "canonical.csv.columns"):
        shutil.copy(GOLDEN / name, name)
    edit_companion(Path("canonical.csv"), header={key: HEADER_EDITS[key]})
    assert tieflow.events._read_columns("canonical.csv") is None
    assert main(["build", "--events", "canonical.csv", "--output-dir", "graph"]) == 0
    assert Path(GRAPH).read_bytes() == (GOLDEN / GRAPH).read_bytes()


def test_a_student_id_edited_in_the_companion_header_is_read_from_the_csv(tmp_path, monkeypatch):
    # Earlier versions read the edited id: the digests covered the CSV and the
    # column bytes, not the header, and build wrote node 's9'.
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN / "canonical.csv", "canonical.csv")
    data = (GOLDEN / "canonical.csv.columns").read_bytes()
    assert data.count(b'"s3"') == 1
    Path("canonical.csv.columns").write_bytes(data.replace(b'"s3"', b'"s9"'))
    assert main(["build", "--events", "canonical.csv", "--output-dir", "graph"]) == 0
    assert Path(GRAPH).read_bytes() == (GOLDEN / GRAPH).read_bytes()


CANONICAL_FORM = {  # the columns of ROWS_OF_THREE's log, and its ids, as a companion holds them
    "in canonical form": lambda columns, students, locations: (columns, students, locations),
    "locations out of order": lambda columns, students, locations: (
        [column[::-1] for column in columns], students, locations),
    "times out of order": lambda columns, students, locations: (  # rows 0 and 1 are both at caf
        [column[[1, 0, 2]] for column in columns], students, locations),
    "ids listed but unused": lambda columns, students, locations: (
        [columns[0] + 1, columns[1], *columns[2:]], ["s0", *students], [*locations, "zz"]),
}


@pytest.mark.parametrize("case", sorted(CANONICAL_FORM))
def test_a_companion_out_of_canonical_form_is_sorted_as_from_codes_sorts(tmp_path, case):
    # from_codes keeps the companion's rows as they are only if every id is
    # used and the rows are in (location, time) order; it sorts any others.
    out = ingest(tmp_path, ROWS_OF_THREE)
    log = parse_events_path(out)
    columns, students, locations = CANONICAL_FORM[case](
        [log.student, log.location, log.time, log.amount, log.spend],
        list(log.students), list(log.locations))
    write_columns(out, tieflow.events._LAYOUT, columns, students=students, locations=locations)
    with mock.patch.object(tieflow.events, "parse_events", no_parse):
        read = parse_events_path(out)
    assert same_log(read, EventLog.from_codes(students, columns[0], locations, *columns[1:]))
    assert same_log(read, log)
    # Kept as they are, the codes are a read-only view of the companion's bytes.
    assert read.student.flags.writeable == (case != "in canonical form")


def test_companion_bytes_do_not_depend_on_where_ingest_runs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "elsewhere" / "b"
    for directory in (first, second):
        directory.mkdir(parents=True)
    companions = [Path(f"{ingest(d, ROWS_OF_THREE)}.columns").read_bytes() for d in (first, second)]
    assert companions[0] == companions[1]


def test_synth_and_write_events_csv_write_no_companion(tmp_path):
    assert main(["synth", "--students", "6", "--communities", "2", "--weeks", "1",
                 "--output-dir", str(tmp_path)]) == 0
    write_events_csv(parse(HEADER + "s1,1000,caf,spend,1\n"), tmp_path / "more.csv")
    assert not list(tmp_path.glob("*.columns"))


# A 60-student synthetic semester of three weeks.
SYNTHETIC = SyntheticConfig(n_students=60, n_communities=3, semester=TimeRange(0, 3 * 7 * 86400),
                            intra_rate=3.0, inter_rate=0.2, jitter=60, seed=4)


def downstream(directory: Path, raw_text: str) -> tuple[bytes, tuple, tuple]:
    """The canonical.csv bytes that ingest makes of a raw log of SYNTHETIC's
    locations, what build, snapshot, pagerank, detect and sweep make of it,
    and what evaluate --events does, through the library calls the CLI makes:
    the tie graph's file bytes, the snapshot weights, the PageRank values, the
    detect codes and the sweep rows, then the behaviour indicators and their
    variances over the detected communities."""
    raw, canonical, graph_path = (directory / name for name in
                                  ("raw.csv", "canonical.csv", "tie_graph.json"))
    raw.write_text(raw_text, encoding="utf-8")
    write_canonical(filter_events(parse_events_path(raw), frozenset()), canonical)
    log = parse_events_path(canonical)
    graph = orient_edges(build_cooccurrence_graph(log, window=120))
    write_tie_graph_json(graph, graph_path, {"window": 120})
    graph = read_tie_graph_json(graph_path)
    snap = snapshot_at(graph, DecayParams.from_half_life(DEFAULT_HALF_LIFE), graph.end_time())
    ranking = pagerank(snap)
    assignment = detect_communities(snap, ranking, 0.2, FlowParams(seed=7))
    rows = sweep_epsilon(snap, ranking, [0.5, 0.2, 0.05], FlowParams())
    profiles = behavior_profiles(log, default_category_map(SYNTHETIC), log.time_range())
    return canonical.read_bytes(), (graph_path.read_bytes(), snap.weights.tolist(),
                                    ranking.values.tolist(), assignment.codes.tolist(), rows), (
        profiles.tolist(), variance_comparison(log.students, profiles, assignment))


@functools.cache
def synthetic_raw_log() -> tuple[str, tuple[str, ...], tuple]:
    """A raw export of SYNTHETIC's log (its header and rows) and what
    downstream makes of it."""
    with tempfile.TemporaryDirectory() as tmp:
        write_events_csv(generate(SYNTHETIC)[0], Path(tmp) / "export.csv")
        header, *rows = (Path(tmp) / "export.csv").read_text(encoding="utf-8").splitlines(True)
        return header, tuple(rows), downstream(Path(tmp), header + "".join(rows))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_a_row_permuted_raw_log_leaves_every_artifact_after_canonical_unchanged(seed):
    # canonical.csv keeps the raw order of rows that share (location, time),
    # so a permutation may reorder it; nothing read from it may change.
    header, rows, (_, after, evaluated) = synthetic_raw_log()
    keys = [tuple(row.split(",")[1:3]) for row in rows]
    assert len(set(keys)) < len(keys)  # rows share (time, location): the order can show
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        assert downstream(Path(tmp), header + "".join(shuffled))[1:] == (after, evaluated)


WEEK = 7 * 86400


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2609 * WEEK) | st.integers(1, 2609).map(WEEK.__mul__))
@example(1)
@example(WEEK)
@example(2609 * WEEK)  # about 50 years, in whole weeks
def test_a_time_shift_leaves_weights_scores_and_communities_unchanged(shift):
    # Each weight decays over t - tau, exact in int64 seconds and in float64
    # below 2**53, so every later number keeps its bits at the shifted end
    # time. Meal hours and weekdays repeat weekly: the indicators keep theirs
    # under shifts of whole weeks.
    header, rows, (_, after, evaluated) = synthetic_raw_log()
    moved = [row.split(",", 2) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        _, (graph, *numbers), indicators = downstream(Path(tmp), header + "".join(
            f"{student},{int(time) + shift},{rest}" for student, time, rest in moved))
    assert numbers == list(after[1:])
    assert json.loads(graph)["times"] == [t + shift for t in json.loads(after[0])["times"]]
    if shift % WEEK == 0:
        assert indicators == evaluated


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.text(string.ascii_letters + string.digits, min_size=1, max_size=3))
@example("x")
def test_an_order_preserving_renaming_of_students_leaves_every_output_unchanged(prefix):
    # One prefix for every student id keeps their order, so every node index,
    # and with it every number, stays as it was; only the names change.
    header, rows, (canonical, after, evaluated) = synthetic_raw_log()
    with tempfile.TemporaryDirectory() as tmp:
        renamed, (graph, *numbers), indicators = downstream(
            Path(tmp), header + "".join(prefix + row for row in rows))
    first, *lines = canonical.decode().splitlines(True)
    assert renamed.decode() == first + "".join(prefix + line for line in lines)
    doc, want = json.loads(graph), json.loads(after[0])
    assert doc.pop("nodes") == [prefix + node for node in want.pop("nodes")] and doc == want
    assert numbers == list(after[1:]) and indicators == evaluated
