"""Dataset ingestion: MovieLens / CoMoDa parsers, synthetic Zipf generation,
and reproducible train/test splits."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import R_MAX, DatasetError, RatingsDataset, _check_grid, _frozen, first_draws

# CoMoDa's id and rating columns
COMODA_USER, COMODA_ITEM, COMODA_RATING = "userID", "itemID", "rating"


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(ValueError):
    """A required column is missing from a CSV header."""


class MovieLensFormat(Enum):
    TAB_100K = "\t"
    COLONS_1M = "::"


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ParseResult:
    """A parsed dataset (with contexts for CoMoDa) and the number of
    duplicate cells the parser replaced."""

    dataset: RatingsDataset
    duplicates_replaced: int = 0


def _bytes(source) -> bytes:
    """The UTF-8 bytes of a str, bytes, text stream or binary stream, without
    a leading byte-order mark, which would otherwise join the first id."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    return (data.encode("utf-8") if isinstance(data, str) else data).removeprefix(b"\xef\xbb\xbf")


def _lines(data: bytes) -> Iterable[str]:
    """The lines of UTF-8 `data`; LF, CR LF and a lone CR each end a line."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _csv_rows(data: bytes) -> Iterator[Tuple[int, List[str]]]:
    """(line number, row) of each CSV row of `data`; a csv.Error (a field
    over csv.field_size_limit(), say) is a ParseError that names the line."""
    reader = csv.reader(_lines(data))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _number(kind, text: str):
    """kind(text), with kind int or float, for plain ASCII text without `_`.
    Both would also read Python's literal syntax: `0_5` as 5, or a
    non-ASCII digit such as `٣` as 3."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for {kind.__name__}(): {text!r}")
    return kind(text)


def _kept_rows(keys: np.ndarray) -> np.ndarray:
    """Of rows with these cell keys, in file order, the rows a parse keeps,
    in cell-key order: each cell's last row."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    run_end = np.ones(len(keys), dtype=bool)
    run_end[:-1] = sorted_keys[1:] != sorted_keys[:-1]
    return order[run_end]


def _dataset(users: Tuple[np.ndarray, int], items: Tuple[np.ndarray, int],
             values, contexts: Optional[np.ndarray] = None) -> ParseResult:
    """The parse of rows (user id, item id, value[, context]), with users and
    items given as (dense ids, id count): each repeated cell with its last row."""
    (users, n_users), (items, n_items) = users, items
    rows = _kept_rows(users * n_items + items)
    dataset = RatingsDataset(*_frozen(users[rows], items[rows], np.asarray(values)[rows]),
                             n_users, n_items,
                             *_frozen(None if contexts is None else contexts[rows]))
    return ParseResult(dataset, duplicates_replaced=len(values) - len(rows))


def _dense_ids(raw) -> Tuple[np.ndarray, int]:
    """Dense ids of raw ids, a list of id strings or an integer array (whose
    text has no leading zero), numbered in shortlex order of their text:
    shorter first, then by code point, which for integers is numeric order."""
    if isinstance(raw, list):
        number = {s: k for k, s in enumerate(sorted(set(raw), key=lambda s: (len(s), s)))}
        return np.array([number[s] for s in raw], dtype=np.int64), len(number)
    distinct, inverse = np.unique(raw, return_inverse=True)
    return inverse.reshape(-1), len(distinct)


_TO_SPACE = bytes.maketrans(b"\t:\r\n", b"    ")


def _integer_fields(data: bytes, sep: str) -> Optional[np.ndarray]:
    """The fields of MovieLens `data` as an (n, 4) int64 array, or None
    unless every byte and line fits a grammar that the line loop reads the
    same way. Lines end in LF or CR LF, and blank lines are allowed. Every
    other line is four fields split by `sep`, each of 1 to 18 ASCII digits
    (so it fits in int64). An id has no leading zero, since `01` and `1`
    are two ids, and a rating is one digit from 1 to R_MAX."""
    sep_char = sep[0].encode()
    if data.translate(None, b"0123456789\r\n" + sep_char):
        return None
    # a lone CR ends a line too, and is left to the line loop
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    digit = b - np.uint8(ord("0")) < 10  # uint8 wraps below "0"
    # per line: start and end of each field, as [s0, e0, s1, e1, s2, e2, s3, e3]
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    if len(edges) == 0 or len(edges) % 8:
        return None
    edges = edges.reshape(-1, 8)
    widths = np.diff(edges, axis=1)  # field, gap, field, gap, field, gap, field
    starts, inner = edges[:, 0::2], edges[:, 1:7:2]
    ratings = b[starts[:, 2]]
    if (widths[:, 0::2].max() > 18 or (widths[:, 4] != 1).any()
            or ((b[starts[:, :2]] == ord("0")) & (widths[:, 0:3:2] > 1)).any()
            or (ratings < ord("1")).any() or (ratings > ord("0") + R_MAX).any()):
        return None
    # The three gaps inside each line must be exactly `sep`. When they hold
    # every separator character of the file, the other gaps hold line ends only.
    if ((widths[:, 1::2] != len(sep)).any()
            or any((b[inner + k] != sep_char[0]).any() for k in range(len(sep)))
            or np.count_nonzero(b == sep_char[0]) != inner.size * len(sep)):
        return None
    return np.fromstring(data.translate(_TO_SPACE), dtype=np.int64, count=starts.size,
                         sep=" ").reshape(-1, 4)


def parse_movielens(source, fmt: MovieLensFormat) -> ParseResult:
    """Parse a MovieLens ratings file into a dataset with dense 0-based ids.

    Accepts str, bytes, a text stream or a binary stream, read as UTF-8
    bytes. Lines are "user<sep>item<sep>rating<sep>timestamp"; the rating
    and the timestamp must be plain ASCII integers (`_number`), and the
    timestamp is not kept. Ids are compared without surrounding
    whitespace and numbered in shortlex order of that text (`_dense_ids`). A
    repeated cell keeps its last line's value (counted in duplicates_replaced).

    Input whose every line is plain ASCII integers (see `_integer_fields`)
    is parsed in numpy; all other input line by line. Both give the same
    dataset, duplicate count and errors.
    """
    sep = fmt.value
    data = _bytes(source)
    fields = _integer_fields(data, sep)
    if fields is not None:
        return _dataset(_dense_ids(fields[:, 0]), _dense_ids(fields[:, 1]), fields[:, 2])
    users, items, values = [], [], []
    for line_no, raw_line in enumerate(_lines(data), start=1):
        line = raw_line.rstrip("\n")
        if not line:
            continue
        fields = line.split(sep)
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields separated by {sep!r}, got {len(fields)}",
                             line_no)
        raw_user, raw_item, raw_value, raw_ts = fields
        try:
            value = _number(int, raw_value)
            _number(int, raw_ts)  # checked, not kept
        except ValueError as exc:
            raise ParseError(f"non-integer rating or timestamp: {exc}", line_no) from None
        if not (1 <= value <= R_MAX):
            raise DatasetError(f"line {line_no}: rating {value} outside [1, {R_MAX}]")
        user, item = raw_user.strip(), raw_item.strip()
        if not (user and item):
            raise ParseError(f"empty {'item' if user else 'user'} id", line_no)
        users.append(user)
        items.append(item)
        values.append(value)

    return _dataset(_dense_ids(users), _dense_ids(items), values)


def write_movielens(dataset: RatingsDataset, fmt: MovieLensFormat = MovieLensFormat.TAB_100K) -> str:
    """Serialize a dataset back to MovieLens line format with 1-based ids
    and timestamp 0."""
    sep = fmt.value
    lines = [sep.join((str(u + 1), str(i + 1), str(v), "0"))
             for u, i, v in zip(dataset.users.tolist(), dataset.items.tolist(),
                                dataset.values.tolist())]
    return "\n".join(lines) + "\n"


def check_context_columns(context_columns: Sequence[str]) -> None:
    """A SchemaError unless each context column is named once and reads no id or rating."""
    not_context = [c for c in context_columns if c in (COMODA_USER, COMODA_ITEM, COMODA_RATING)]
    if not_context:  # a rating read as context would reach the data-free PowerMat
        raise SchemaError(f"context columns may not name {not_context}")
    twice = [c for c in dict.fromkeys(context_columns) if context_columns.count(c) > 1]
    if twice:  # PowerMat would read one feature as two
        raise SchemaError(f"context columns named more than once: {twice}")


def parse_comoda(source, context_columns: Sequence[str]) -> ParseResult:
    """Parse an LDOS-CoMoDa style CSV (userID, itemID and rating columns,
    ratings in [1, R_MAX]), from any source `parse_movielens` accepts, into
    a dataset whose contexts have shape (len(dataset), len(context_columns)).

    Ids and repeated cells are handled as in `parse_movielens`. Context
    columns hold integer category codes; an empty field and any negative
    code (a missing marker such as -1) are encoded as 0.
    """
    check_context_columns(context_columns)
    rows = _csv_rows(_bytes(source))
    _, header = next(rows, (0, None))
    if header is None:
        raise SchemaError("empty input: no header row")
    required = [COMODA_USER, COMODA_ITEM, COMODA_RATING, *context_columns]
    missing = [c for c in required if c not in header]
    repeated = [c for c in dict.fromkeys(required) if header.count(c) > 1]
    if missing or repeated:
        raise SchemaError(f"missing columns: {missing}" if missing
                          else f"columns named more than once: {repeated}")
    user_col, item_col, rating_col, *context_cols = map(header.index, required)
    users, items, values, contexts = [], [], [], []
    for line_no, row in rows:
        if not row:  # a blank line
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
        try:
            value = _number(int, row[rating_col])
        except ValueError:
            raise ParseError(f"non-numeric rating {row[rating_col]!r}", line_no) from None
        if not (1 <= value <= R_MAX):
            raise DatasetError(f"line {line_no}: rating {value} outside [1, {R_MAX}]")
        user, item = row[user_col].strip(), row[item_col].strip()
        if not (user and item):
            raise ParseError(f"empty {'item' if user else 'user'} id", line_no)
        context = []
        for col, k in zip(context_columns, context_cols):
            cell_text = row[k].strip()
            try:
                code = _number(float, cell_text) if cell_text else 0.0
            except ValueError:
                raise ParseError(f"non-numeric context value {cell_text!r} in {col}",
                                 line_no) from None
            if not math.isfinite(code):  # float() reads nan and inf
                raise ParseError(f"non-finite context value {cell_text!r} in {col}",
                                 line_no)
            context.append(max(code, 0.0))  # any negative code -> 0
        users.append(user)
        items.append(item)
        values.append(value)
        contexts.append(context)

    return _dataset(_dense_ids(users), _dense_ids(items), values,
                    np.array(contexts, dtype=np.float64).reshape(len(users), len(context_columns)))


def split(dataset: RatingsDataset, spec: SplitSpec) -> Tuple[RatingsDataset, RatingsDataset]:
    """Seeded random partition into (train, test); each side keeps the
    parent's n_users and n_items, and its own rows' contexts, in the
    parent's cell-key order. A side left empty is a DatasetError."""
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot split an empty dataset")
    n_test = int(round(spec.test_fraction * n))
    if n_test in (0, n):
        raise DatasetError(f"split seed {spec.seed} with test_fraction {spec.test_fraction} "
                           f"leaves the {'test' if n_test == 0 else 'train'} side empty")
    rng = np.random.default_rng(spec.seed)
    in_test = np.zeros(n, dtype=bool)
    in_test[rng.permutation(n)[:n_test]] = True
    make = lambda mask: RatingsDataset(
        *_frozen(dataset.users[mask], dataset.items[mask], dataset.values[mask]),
        dataset.n_users, dataset.n_items,
        *_frozen(None if dataset.contexts is None else dataset.contexts[mask]))
    return make(~in_test), make(in_test)


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative distribution of `weights`, for inverse sampling with
    searchsorted. The last entry is pinned to 1.0: left rounded down, a draw
    above it would index one past the last bin."""
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1:] = 1.0
    return cdf


def generate_zipf(n_users: int, n_items: int, n_ratings: int, exponent: float,
                  seed: int = 0) -> RatingsDataset:
    """Synthetic dataset with power-law item popularity and rating-value
    counts proportional to the value itself.

    Item j (popularity rank j+1) is drawn with weight (j+1)^-exponent; the
    rating value v is drawn with probability v / sum(1..R_MAX). Users, items
    and values come from three streams spawned from `seed`. A cell keeps its
    first draw, in rounds sized as in the hybrid fill (`first_draws`); if 200
    rounds leave cells to place, the rest are the first free cells in
    row-major order. Each kept cell, in that order, takes the next value
    draw; the dataset then holds the cells in cell-key order.
    """
    if not (0 < exponent < math.inf):  # NaN fails both comparisons
        raise ValueError(f"exponent must be positive and finite, got {exponent}")
    if n_ratings < 0:
        raise ValueError(f"n_ratings must be >= 0, got {n_ratings}")
    _check_grid(n_users, n_items)  # before any array is allocated
    if n_ratings > n_users * n_items:
        raise DatasetError(
            f"cannot place {n_ratings} distinct ratings on a "
            f"{n_users}x{n_items} grid")
    users_rng, items_rng, values_rng = np.random.default_rng(seed).spawn(3)
    item_cum = _cdf(np.arange(1, n_items + 1, dtype=np.float64) ** (-exponent))
    values_cum = _cdf(np.arange(1, R_MAX + 1, dtype=np.float64))
    # users and items from streams of their own: the same draws whatever the m
    draw = lambda m: (users_rng.integers(0, n_users, size=m) * n_items
                      + np.searchsorted(item_cum, items_rng.random(m)))
    keys = first_draws(np.empty(0, dtype=np.int64), n_ratings, n_users * n_items, draw)
    values = np.searchsorted(values_cum, values_rng.random(n_ratings)) + 1
    return RatingsDataset(*_frozen(keys // n_items, keys % n_items, values), n_users, n_items)
