import bisect
import csv
import gc
import io
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reclab.analysis import fit_power_law
from reclab.core import R_MAX, DatasetError, RatingsDataset
from reclab.ingest import (MovieLensFormat, ParseError, SchemaError, SplitSpec,
                           _cdf, generate_zipf, parse_comoda, parse_movielens, split,
                           write_movielens)

from conftest import rows_of


# both parsers read every source kind as its UTF-8 bytes, so each kind
# parses alike
SOURCE_KINDS = ["str", "bytes", "text", "stream"]


def source_of(kind, text):
    return {"str": text, "bytes": text.encode(), "text": io.StringIO(text),
            "stream": io.BytesIO(text.encode())}[kind]


class TestParseMovielens:
    def test_tab_format_first_ids_map_to_zero(self):
        result = parse_movielens("1\t2\t5\t0\n", MovieLensFormat.TAB_100K)
        assert rows_of(result.dataset) == [(0, 0, 5)]

    def test_colons_format(self):
        result = parse_movielens("7::9::3::123\n", MovieLensFormat.COLONS_1M)
        assert result.dataset.values.tolist() == [3]

    def test_rating_above_scale_rejected(self):
        with pytest.raises(DatasetError):
            parse_movielens("1\t2\t9\t0\n", MovieLensFormat.TAB_100K)

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_movielens("1\t2\t5\t0\nbadline\n", MovieLensFormat.TAB_100K)
        assert exc.value.line_no == 2

    def test_non_integer_rating_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_movielens("1\t2\tfive\t0\n", MovieLensFormat.TAB_100K)

    def test_non_integer_timestamp_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_movielens("1\t2\t5\tnoon\n", MovieLensFormat.TAB_100K)

    @pytest.mark.parametrize("text, line_no, side", [
        ("\t\t5\t0\n1\t2\t3\t0\n", 1, "user"),
        ("1\t2\t3\t0\n3\t\t5\t0\n", 2, "item")], ids=["user", "item"])
    def test_empty_id_is_parse_error(self, text, line_no, side):
        with pytest.raises(ParseError, match=f"^line {line_no}: empty {side} id$"):
            parse_movielens(text, MovieLensFormat.TAB_100K)

    def test_ids_compared_without_surrounding_whitespace(self):
        result = parse_movielens("1\t 2\t5\t0\n1\t2\t4\t0\n", MovieLensFormat.TAB_100K)
        assert (result.dataset.n_users, result.dataset.n_items) == (1, 1)
        assert result.duplicates_replaced == 1
        assert result.dataset.values.tolist() == [4]
        with pytest.raises(ParseError, match="^line 2: empty user id$"):
            parse_movielens("1\t2\t5\t0\n \t2\t4\t0\n", MovieLensFormat.TAB_100K)

    def test_binary_stream_and_crlf(self):
        result = parse_movielens(io.BytesIO(b"1\t2\t4\t0\r\n3\t2\t2\t0\r\n"),
                                 MovieLensFormat.TAB_100K)
        assert len(result.dataset) == 2

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_every_source_kind_splits_lines_at_lone_cr(self, kind):
        text = "1\t2\t4\t0\r3\t2\t2\t0\r"
        result = parse_movielens(source_of(kind, text), MovieLensFormat.TAB_100K)
        assert _parsed(result)[:4] == ([(0, 0, 4), (1, 0, 2)], 2, 1, 0)

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_line_number_after_many_good_lines(self, kind):
        text = "1\t2\t5\t0\n" * 5000 + "1\t2\tx\t0\n"
        with pytest.raises(ParseError, match="^line 5001: non-integer rating or timestamp"):
            parse_movielens(source_of(kind, text), MovieLensFormat.TAB_100K)

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize("text, message", [
        ("1\t2\t5\t0\nbadline\n", "line 2: expected 4 fields separated by '\\t', got 1"),
        ("1\t2\t5\t0\t\n", "line 1: expected 4 fields separated by '\\t', got 5"),
        ("1\t2\n3\t4\t\n", "line 1: expected 4 fields separated by '\\t', got 2"),
        ("1::2::5::0\n", "line 1: expected 4 fields separated by '\\t', got 1"),
        ("1\t2\t9\t0\n", "line 1: rating 9 outside [1, 5]"),
        ("\r\n1\t2\t0\t0\r\n", "line 2: rating 0 outside [1, 5]"),
        ("1\t2\t5\t\n", "line 1: non-integer rating or timestamp: "
                        "invalid literal for int() with base 10: ''"),
        ("1\t2\t5\t0\n\n1\t\t5\t0\n", "line 3: empty item id"),
        # int() would read Python's literal syntax: 5 and 3, and 10
        ("1\t2\t5\t0\n1\t2\t0_5\t0\n", "line 2: non-integer rating or timestamp: "
                                     "invalid literal for int(): '0_5'"),
        ("1\t2\t\u0663\t0\n", "line 1: non-integer rating or timestamp: "
                           "invalid literal for int(): '\u0663'"),
        ("1\t2\t5\t1_0\n", "line 1: non-integer rating or timestamp: "
                         "invalid literal for int(): '1_0'"),
    ])
    def test_errors_do_not_depend_on_the_source_kind(self, kind, text, message):
        with pytest.raises((ParseError, DatasetError)) as exc:
            parse_movielens(source_of(kind, text), MovieLensFormat.TAB_100K)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize("text", [
        "01\t1\t5\t0\n1\t1\t4\t0\n",
        "0\t1\t5\t0\n00\t1\t4\t0\n",
        "99999999999999999999\t1\t5\t0\n99999999999999999998\t1\t4\t0\n",  # beyond int64
        "1\x00\t1\t5\t0\n1\t1\t4\t0\n",  # a fixed-width numpy str drops trailing NULs
    ], ids=["leading-zero", "zeros", "long", "trailing-nul"])
    def test_ids_are_compared_as_text(self, kind, text):
        result = parse_movielens(source_of(kind, text), MovieLensFormat.TAB_100K)
        assert (result.dataset.n_users, result.duplicates_replaced) == (2, 0)

    def test_duplicate_cell_last_wins(self):
        text = "1\t2\t5\t0\n1\t2\t3\t9\n"
        result = parse_movielens(text, MovieLensFormat.TAB_100K)
        assert result.duplicates_replaced == 1
        assert result.dataset.values.tolist() == [3]

    def test_remapped_ids_are_dense(self):
        text = "10\t200\t5\t0\n99\t200\t4\t0\n10\t7\t1\t0\n"
        ds = parse_movielens(text, MovieLensFormat.TAB_100K).dataset
        assert set(ds.users.tolist()) == {0, 1}
        assert set(ds.items.tolist()) == {0, 1}
        assert ds.n_users == 2 and ds.n_items == 2

    def test_parse_write_parse_is_idempotent(self):
        raw = write_movielens(generate_zipf(30, 20, 200, 1.0, seed=3))
        first = parse_movielens(raw, MovieLensFormat.TAB_100K).dataset
        text = write_movielens(first)
        second = parse_movielens(text, MovieLensFormat.TAB_100K).dataset
        assert rows_of(second) == rows_of(first)
        assert write_movielens(second) == text


class TestParseComoda:
    CSV = ("userID,itemID,rating,mood,location\n"
           "15,3,4,2,1\n"
           "15,8,5,-1,1\n"
           "22,3,2,3,2\n")

    def test_context_codes_pass_through(self):
        result = parse_comoda(self.CSV, ["mood", "location"])
        assert result.dataset.values[0] == 4
        assert result.dataset.contexts[0].tolist() == [2.0, 1.0]

    def test_missing_marker_becomes_zero(self):
        result = parse_comoda(self.CSV, ["mood", "location"])
        assert result.dataset.contexts[1].tolist() == [0.0, 1.0]

    def test_contexts_are_a_read_only_float_array(self):
        result = parse_comoda(self.CSV, ["mood", "location"])
        assert result.dataset.contexts.dtype == np.float64
        assert result.dataset.contexts.shape == (len(result.dataset), 2)
        assert not result.dataset.contexts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            result.dataset.contexts[0, 0] = 9.0

    def test_movielens_parse_has_no_contexts(self):
        assert parse_movielens("1\t2\t4\t0\n", MovieLensFormat.TAB_100K).dataset.contexts is None

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_comoda(self.CSV, ["mood", "weather"])

    def test_caller_stream_stays_open(self, tmp_path):
        path = tmp_path / "comoda.csv"
        path.write_text(self.CSV)
        with open(path, "rb") as fh:
            result = parse_comoda(fh, ["mood", "location"])
            gc.collect()
            assert not fh.closed
            fh.seek(0)
            assert fh.read() == self.CSV.encode()
        assert len(result.dataset) == 3

    def test_non_numeric_rating_is_parse_error(self):
        bad = "userID,itemID,rating,mood\n1,2,good,1\n"
        with pytest.raises(ParseError):
            parse_comoda(bad, ["mood"])

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_context_is_parse_error(self, text):
        # float() accepts these; PowerMat would then diverge on them
        bad = self.CSV + f"22,8,3,2,{text}\n"
        with pytest.raises(ParseError, match=f"line 5: non-finite context value "
                                             f"'{text}' in location"):
            parse_comoda(bad, ["mood", "location"])

    @pytest.mark.parametrize("text, error, message", [
        ("", SchemaError, "empty input: no header row"),
        (CSV + "22,8,3,2,calm\n", ParseError,
         "line 5: non-numeric context value 'calm' in location"),
        # int() and float() would read Python's literal syntax: 3, 10.0 and 3.0
        (CSV + "22,8,0_3,2,1\n", ParseError, "line 5: non-numeric rating '0_3'"),
        (CSV + "22,8,3,2,1_0\n", ParseError,
         "line 5: non-numeric context value '1_0' in location"),
        (CSV + "22,8,3,\u0663,1\n", ParseError,
         "line 5: non-numeric context value '\u0663' in mood"),
    ], ids=["empty", "non-numeric-context", "underscore-rating", "underscore-context",
            "non-ascii-context"])
    def test_unreadable_input_names_the_problem(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_comoda(text, ["mood", "location"])
        assert str(exc.value) == message

    @pytest.mark.parametrize("row, side", [(",,4,1,1", "user"), ("15,,4,1,1", "item")],
                             ids=["user", "item"])
    def test_empty_id_is_parse_error(self, row, side):
        with pytest.raises(ParseError, match=f"^line 5: empty {side} id$"):
            parse_comoda(self.CSV + row + "\n", ["mood", "location"])

    @pytest.mark.parametrize("tail, line_no", [
        ("22,8,7,2,1\n", 5),
        # a later duplicate of the bad cell does not hide it
        ("15,3,7,2,1\n15,3,4,2,1\n", 5),
        # a blank line counts as a line
        ("\n22,8,0,2,1\n", 6)], ids=["bad", "replaced", "after-blank"])
    def test_rating_out_of_range_names_the_line(self, tail, line_no):
        value = tail.strip().split(",")[2]
        with pytest.raises(DatasetError,
                           match=rf"^line {line_no}: rating {value} outside \[1, 5\]$"):
            parse_comoda(self.CSV + tail, ["mood", "location"])

    @pytest.mark.parametrize("row, got", [("1,2,4", 3), ("1,2,4,1", 4), ("1,2,4,1,1,9", 6)])
    def test_wrong_field_count_is_parse_error(self, row, got):
        with pytest.raises(ParseError, match=f"^line 5: expected 5 fields, got {got}$"):
            parse_comoda(self.CSV + row + "\n", ["mood", "location"])

    def test_ids_compared_without_surrounding_whitespace(self):
        result = parse_comoda("userID,itemID,rating,mood\n1,3,4,1\n1, 3,5,1\n", ["mood"])
        assert (result.dataset.n_users, result.dataset.n_items) == (1, 1)
        assert result.duplicates_replaced == 1
        assert result.dataset.contexts.tolist() == [[1.0]]
        with pytest.raises(ParseError, match="^line 5: empty item id$"):
            parse_comoda(self.CSV + "15,  ,4,1,1\n", ["mood", "location"])

    @pytest.mark.parametrize("column", ["userID", "itemID", "rating", "mood"])
    def test_repeated_read_column_is_schema_error(self, column):
        header = "userID,itemID,rating,mood,location"
        with pytest.raises(SchemaError, match=f"named more than once: \\['{column}'\\]"):
            parse_comoda(f"{header},{column}\n1,3,4,1,2,2\n", ["mood"])

    @pytest.mark.parametrize("column", ["userID", "itemID", "rating"])
    def test_id_or_rating_context_column_is_schema_error(self, column):
        # a rating read as context would reach PowerMat, which is data-free
        with pytest.raises(SchemaError,
                           match=f"^context columns may not name \\['{column}'\\]$"):
            parse_comoda(self.CSV, ["mood", column])

    def test_repeated_unread_column_is_allowed(self):
        result = parse_comoda("userID,itemID,rating,mood,note,note\n1,3,4,1,a,b\n", ["mood"])
        assert result.dataset.contexts.tolist() == [[1.0]]

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize("where, line_no", [("header", 1), ("row", 5)])
    def test_field_over_the_csv_limit_names_the_line(self, kind, where, line_no):
        long_field = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        text = (self.CSV.replace("location", long_field) if where == "header"
                else self.CSV + f"22,8,3,2,{long_field}\n")
        with pytest.raises(ParseError,
                           match=f"^line {line_no}: field larger than field limit"):
            parse_comoda(source_of(kind, text), ["mood", "location"])

    def test_nul_byte_names_the_line(self):
        # csv rejects a NUL byte before Python 3.11, and keeps it in the field after
        with pytest.raises(ParseError) as exc:
            parse_comoda(self.CSV + "22,8,3\x00,2,1\n", ["mood", "location"])
        assert exc.value.line_no == 5

    def test_ids_remapped_dense(self):
        ds = parse_comoda(self.CSV, ["mood"]).dataset
        assert ds.n_users == 2 and ds.n_items == 2

    def test_shared_context_dimension(self):
        result = parse_comoda(self.CSV, ["mood", "location"])
        assert result.dataset.contexts.shape == (3, 2)

    @pytest.mark.parametrize("columns, twice", [
        (["mood", "mood"], ["mood"]),
        (["location", "mood", "location", "mood"], ["location", "mood"])])
    def test_repeated_context_column_is_schema_error(self, columns, twice):
        # PowerMat would read one feature as two
        with pytest.raises(SchemaError,
                           match=f"^context columns named more than once: {re.escape(str(twice))}$"):
            parse_comoda(self.CSV, columns)


# One file of each format with LF, CR LF and lone-CR line ends mixed, blank
# lines among them, and one repeated cell; its parse; and a bad last row
# with the error it gives
MIXED_LINE_ENDS = [
    (lambda source: parse_movielens(source, MovieLensFormat.TAB_100K),
     "1\t2\t4\t0\r\n3\t2\t2\t0\r\r\n1\t2\t5\t0\n\n7\t1\t3\t0\r",
     ([(0, 1, 5), (1, 1, 2), (2, 0, 3)], 3, 2, 1, None),
     "\r1\t2\t9\t0\n", "line 8: rating 9 outside [1, 5]"),
    (lambda source: parse_comoda(source, ["mood"]),
     "userID,itemID,rating,mood\r1,2,4,1\r\n3,2,2,-1\n\r1,2,5,2\r\r\n7,1,3,1\n",
     ([(0, 1, 5), (1, 1, 2), (2, 0, 3)], 3, 2, 1,
      [(2.0,), (0.0,), (1.0,)]),
     "\r7,2,0,1\n", "line 9: rating 0 outside [1, 5]"),
]


@pytest.mark.parametrize("kind", SOURCE_KINDS)
@pytest.mark.parametrize("parse, text, parsed, bad_tail, error", MIXED_LINE_ENDS,
                         ids=["movielens", "comoda"])
def test_every_source_kind_reads_mixed_line_ends_alike(kind, parse, text, parsed,
                                                        bad_tail, error):
    assert _parsed(parse(source_of(kind, text))) == parsed
    with pytest.raises((ParseError, DatasetError)) as exc:
        parse(source_of(kind, text + bad_tail))
    assert str(exc.value) == error


# One file per parser path, each with a repeated cell: the numpy paths of
# both MovieLens formats, the line loop (an id with spaces leaves the numpy
# grammar) and CoMoDa, from bytes, and a str source
tab100k = partial(parse_movielens, fmt=MovieLensFormat.TAB_100K)
colons1m = partial(parse_movielens, fmt=MovieLensFormat.COLONS_1M)
BOM_FILES = {
    "tab100k": (tab100k, "bytes", "1\t1\t5\t0\n1\t2\t3\t0\n2\t1\t4\t0\n1\t1\t2\t0\n"),
    "colons1m": (colons1m, "bytes", "1::1::5::0\r\n2::1::4::0\r\n2::1::3::0\r\n"),
    "colons1m-line-loop": (colons1m, "bytes", "1::1::5::0\n 2::1::4::0\n2::1::3::0\n"),
    "comoda": (partial(parse_comoda, context_columns=["mood"]), "bytes",
               "userID,itemID,rating,mood\n1,1,5,1\n2,1,4,2\n1,1,3,0\n"),
    "str": (tab100k, "str", "1\t1\t5\t0\n2\t1\t4\t0\n2\t1\t3\t0\n"),
}


@pytest.mark.parametrize("name", list(BOM_FILES))
def test_leading_byte_order_mark_is_skipped(name):
    # the mark must not join the first id: "\ufeff1" and "1" would be two users
    parse, kind, text = BOM_FILES[name]
    plain, marked = (parse(source_of(kind, t)) for t in (text, "\ufeff" + text))
    assert _parsed(marked) == _parsed(plain)
    assert marked.dataset.n_users == 2 and plain.duplicates_replaced == 1


# Dict-based parsers, as an oracle for well-formed input: one cell dict,
# keyed by the (user, item) id texts, whose value is the cell's last row.
# Ids are stripped of surrounding whitespace and numbered in shortlex order
# of that text, shorter first; the rows come out sorted by cell. LF, CR LF
# and a lone CR each end a line.

def shortlex_ids(texts):
    return {t: k for k, t in enumerate(sorted(set(texts), key=lambda t: (len(t), t)))}


def dict_rows(cell_to_row):
    """(rows sorted by cell, n_users, n_items) of a dict from (user, item)
    id texts to (value, ...) rows."""
    users = shortlex_ids(u for u, _ in cell_to_row)
    items = shortlex_ids(i for _, i in cell_to_row)
    rows = sorted((users[u], items[i], *row) for (u, i), row in cell_to_row.items())
    return rows, len(users), len(items)


def dict_parse_movielens(text, sep):
    cell_to_row = {}
    duplicates = 0
    for line in io.StringIO(text, newline=None):
        line = line.rstrip("\r\n")
        if not line:
            continue
        raw_user, raw_item, raw_value, _ = line.split(sep)
        cell = raw_user.strip(), raw_item.strip()
        duplicates += cell in cell_to_row
        cell_to_row[cell] = (int(raw_value),)
    rows, n_users, n_items = dict_rows(cell_to_row)
    return rows, n_users, n_items, duplicates, None


def dict_parse_comoda(text, context_columns):
    cell_to_row = {}
    duplicates = 0
    for row in csv.DictReader(io.StringIO(text, newline=None)):
        context = []
        for col in context_columns:
            cell_text = row[col].strip()
            context.append(max(float(cell_text) if cell_text else 0.0, 0.0))
        cell = row["userID"].strip(), row["itemID"].strip()
        duplicates += cell in cell_to_row
        cell_to_row[cell] = (int(row["rating"]), tuple(context))
    rows, n_users, n_items = dict_rows(cell_to_row)
    return ([row[:3] for row in rows], n_users, n_items, duplicates,
            [row[3] for row in rows])


# a few ids, so that cells repeat; some with surrounding spaces
_ids = st.sampled_from(["1", "2", "17", "300", " 2", "17 ", " 300 "])
_ratings = st.integers(1, 5).map(str)
_context_codes = st.sampled_from(["-1", "", " ", "0", "1", "2", " 3", "7"])
_newlines = st.sampled_from(["\n", "\r\n", "\r"])


def _lines(draw, rows, header=None):
    """Rows joined with drawn line ends, with blank lines between some."""
    lines = [] if header is None else [header + draw(_newlines)]
    for row in rows:
        lines += [draw(_newlines)] * draw(st.integers(0, 1))
        lines.append(row + draw(_newlines))
    return "".join(lines)


# MovieLens fields: plain ASCII integers, which parse in numpy,
# and valid fields that put the whole file on the line loop: ids with
# surrounding spaces or leading zeros, a 19-digit id, and ratings and
# timestamps that int() reads but that are not plain digits
_plain_ml_fields = (st.sampled_from(["0", "1", "2", "17", "300"]),) * 2 + (
    _ratings, st.one_of(st.integers(0, 10**18 - 1).map(str), st.just("0042")))
_odd_id = st.sampled_from(["00", "01", " 2", "17 ", " 300 ", "9999999999999999999"])
_odd_ml_fields = (_odd_id, _odd_id, st.sampled_from(["05", "+5"]),
                  st.sampled_from(["9999999999999999999", "-1"]))


@st.composite
def movielens_files(draw):
    fmt = draw(st.sampled_from(list(MovieLensFormat)))
    rows = draw(st.lists(st.tuples(*_plain_ml_fields).map(list), max_size=30))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        rows[row][col] = draw(_odd_ml_fields[col])
    return _lines(draw, [fmt.value.join(row) for row in rows]), fmt


@st.composite
def comoda_files(draw):
    contexts = draw(st.lists(st.sampled_from(["mood", "location", "weather"]),
                             min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(["time", "note"]), max_size=2, unique=True))
    header = draw(st.permutations(["userID", "itemID", "rating", *contexts, *extra]))
    read = draw(st.permutations(contexts))
    cells = {"userID": _ids, "itemID": _ids, "rating": _ratings}
    rows = draw(st.lists(st.tuples(*(cells.get(col, _context_codes) for col in header)),
                         max_size=30))
    return _lines(draw, [",".join(row) for row in rows], ",".join(header)), read


def _parsed(result):
    ds = result.dataset
    rows = list(zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist()))
    contexts = result.dataset.contexts
    return (rows, ds.n_users, ds.n_items, result.duplicates_replaced,
            None if contexts is None else list(map(tuple, contexts.tolist())))


class TestParsersMatchDictOracle:
    @settings(max_examples=200, deadline=None)
    @given(movielens_files(), st.sampled_from(SOURCE_KINDS))
    def test_movielens(self, file, kind):
        text, fmt = file
        result = parse_movielens(source_of(kind, text), fmt)
        assert _parsed(result) == dict_parse_movielens(text, fmt.value)

    @settings(max_examples=200, deadline=None)
    @given(comoda_files(), st.sampled_from(SOURCE_KINDS))
    def test_comoda(self, file, kind):
        text, context_columns = file
        result = parse_comoda(source_of(kind, text), context_columns)
        assert _parsed(result) == dict_parse_comoda(text, context_columns)
        assert result.dataset.contexts.shape == (len(result.dataset), len(context_columns))


class TestSplit:
    def test_counts(self):
        ds = generate_zipf(20, 20, 10, 1.0, seed=0)
        train, test = split(ds, SplitSpec(0.2, 1))
        assert len(test) == 2 and len(train) == 8

    def test_determinism(self):
        ds = generate_zipf(50, 50, 500, 1.0, seed=0)
        a = split(ds, SplitSpec(0.3, 9))
        b = split(ds, SplitSpec(0.3, 9))
        assert rows_of(a[0]) == rows_of(b[0])
        assert rows_of(a[1]) == rows_of(b[1])

    def test_partition_property(self):
        ds = generate_zipf(50, 50, 500, 1.0, seed=0)
        train, test = split(ds, SplitSpec(0.25, 5))
        # distinct cells, so (user, item) decides the order
        assert sorted(rows_of(train) + rows_of(test)) == sorted(rows_of(ds))
        assert set(train.keys().tolist()).isdisjoint(test.keys().tolist())

    def test_metadata_carried_over(self):
        ds = generate_zipf(50, 30, 100, 1.0, seed=0)
        train, test = split(ds, SplitSpec(0.5, 0))
        for part in (train, test):
            assert (part.n_users, part.n_items) == (50, 30)

    def test_full_test_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SplitSpec(0.2, -1)

    def test_empty_dataset_rejected(self):
        empty = RatingsDataset([], [], [], n_users=1, n_items=1)
        with pytest.raises(DatasetError):
            split(empty, SplitSpec(0.2, 0))

    def test_sides_are_allocated_once(self):
        # each side's masked columns are handed to the dataset, not copied
        # again: the masks, the permutation and the key check fit in half
        # of the columns' bytes
        ds = generate_zipf(6040, 3706, 100_000, 1.0, seed=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sides = split(ds, SplitSpec(0.2, 42))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for side in sides for c in (side.users, side.items, side.values))
        assert columns == 3 * 8 * len(ds)
        assert peak <= 1.5 * columns


def sequential_zipf(n_users, n_items, n_ratings, exponent, seed, max_draws=None):
    """Reference for generate_zipf, one scalar draw at a time from the three
    streams spawned from the seed: one user and one item per draw, each cell
    kept at its first draw, until n_ratings cells are kept or max_draws draws
    are made; then the first free cells in row-major order; then one value
    draw per kept cell, in order. The rows come out sorted by cell."""
    users_rng, items_rng, values_rng = np.random.default_rng(seed).spawn(3)
    item_weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-exponent)
    item_cum = np.cumsum(item_weights / item_weights.sum())
    item_cum[-1] = 1.0
    values_pmf = np.arange(1, R_MAX + 1, dtype=np.float64)
    values_cum = np.cumsum(values_pmf / values_pmf.sum())
    values_cum[-1] = 1.0
    # bisect_left on the list is searchsorted(side="left"), one draw at a time
    item_cum, values_cum = item_cum.tolist(), values_cum.tolist()
    cells = {}
    draws = 0
    while len(cells) < n_ratings and draws != max_draws:
        u = int(users_rng.integers(0, n_users))
        j = bisect.bisect_left(item_cum, items_rng.random())
        cells.setdefault((u, j), None)
        draws += 1
    for u in range(n_users):
        for j in range(n_items):
            if len(cells) < n_ratings:
                cells.setdefault((u, j), None)
    return sorted((u, j, bisect.bisect_left(values_cum, values_rng.random()) + 1)
                  for u, j in cells)


class TestGenerateZipf:
    @pytest.mark.parametrize("args, max_draws", [
        ((30, 20, 200, 1.0, 3), None),
        ((5, 5, 25, 1.0, 0), None),
        ((40, 40, 400, 1.2, 9), None),
        # 280 of 300 cells: the last rounds draw many times the missing count
        ((20, 15, 280, 1.0, 5), None),
        ((60, 50, 3000, 1.0, 1), None),
        # The tail items are never drawn, so these end in the row-major fill.
        # Each of their 200 rounds draws the minimum 1024 cells, since
        # 2 * missing * grid / untaken stays below it.
        # 11 cells drawn, 109 completed: the whole grid
        ((3, 40, 120, 8.0, 1), 200 * 1024),
        # 35 cells drawn, 65 completed inside a 20,000-cell grid
        ((10, 2000, 100, 8.0, 4), 200 * 1024),
    ])
    def test_matches_sequential_reference(self, args, max_draws):
        ds = generate_zipf(*args)
        assert rows_of(ds) == sequential_zipf(*args, max_draws=max_draws)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), bound=st.integers(1, 2 ** 40))
    def test_user_and_item_streams_ignore_the_chunk_size(self, seed, bound):
        # generate_zipf's rounds may split its draws anywhere
        chunks, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        users = np.concatenate([chunks.integers(0, bound, size=7),
                                chunks.integers(0, bound, size=13)])
        assert np.array_equal(users, whole.integers(0, bound, size=20))
        items = np.concatenate([chunks.random(7), chunks.random(13)])
        assert np.array_equal(items, whole.random(20))

    def test_cdf_last_bin_takes_every_draw_below_one(self):
        # 10 items at exponent 1.2: the plain cumulative sum rounds down to
        # 1 - 2**-52, so the largest draw, 1 - 2**-53, lands past the last item
        weights = np.arange(1, 11, dtype=np.float64) ** -1.2
        largest_draw = np.nextafter(1.0, 0.0)
        assert np.searchsorted(np.cumsum(weights / weights.sum()), largest_draw) == 10
        assert np.searchsorted(_cdf(weights), largest_draw) == 9

    def test_value_counts_proportional_to_value(self):
        ds = generate_zipf(300, 200, 15000, 1.0, seed=2)
        counts = np.zeros(5)
        for v in ds.values.tolist():
            counts[v - 1] += 1
        expected = np.arange(1, 6) / 15.0 * 15000
        # chi-square against the value-proportional law
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert stats.chi2.sf(chi2, df=4) > 0.001

    def test_item_popularity_follows_power_law(self):
        # plenty of users so the head items do not saturate their user pool
        ds = generate_zipf(6000, 1000, 20000, 1.0, seed=4)
        item_counts = np.zeros(1000)
        for i in ds.items.tolist():
            item_counts[i] += 1
        # popularity rank j+1 carries weight (j+1)^-1; fit the well-sampled head
        points = [(j + 1.0, c) for j, c in enumerate(item_counts[:100]) if c > 0]
        fit = fit_power_law(points)
        assert abs(-fit.exponent - 1.0) <= 0.15

    def test_deterministic_per_seed(self):
        a = generate_zipf(40, 40, 400, 1.2, seed=9)
        b = generate_zipf(40, 40, 400, 1.2, seed=9)
        assert rows_of(a) == rows_of(b)

    def test_no_duplicate_cells_and_exact_count(self):
        ds = generate_zipf(30, 30, 800, 1.0, seed=1)
        assert len(ds) == 800
        assert len(set(ds.keys().tolist())) == 800

    def test_infeasible_count_rejected(self):
        with pytest.raises(DatasetError):
            generate_zipf(10, 10, 101, 1.0, seed=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_ratings must be >= 0"):
            generate_zipf(3, 3, -1, 1.0, seed=0)

    @pytest.mark.parametrize("n_users, n_items", [(3 * 10 ** 9, 4 * 10 ** 9),
                                                  (1, 2 ** 63), (2 ** 32, 2 ** 31),
                                                  # their int64 product wraps to 0
                                                  (np.int64(2 ** 32), np.int64(2 ** 32))])
    def test_grid_beyond_int64_keys_rejected_before_allocating(self, n_users, n_items):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="grid overflows int64 cell keys"):
                generate_zipf(n_users, n_items, 1, 1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_row_major_completion_allocates_no_grid(self):
        # the 10**7-cell grid's free cells would take 80 MB; the completion reads 1,000
        tracemalloc.start()
        try:
            ds = generate_zipf(100, 10 ** 5, 1000, 8.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 1000
        assert peak < 20_000_000

    @pytest.mark.parametrize("exponent", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            generate_zipf(10, 10, 20, exponent, seed=0)

    def test_dense_grid_fill(self):
        ds = generate_zipf(5, 5, 25, 1.0, seed=0)
        assert len(ds) == 25
