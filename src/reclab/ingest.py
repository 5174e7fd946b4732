"""Dataset ingestion: MovieLens / CoMoDa parsers, synthetic Zipf generation,
and reproducible train/test splits."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import ContextSample, DatasetError, RatingsDataset

# CoMoDa's id and rating columns, and its rating scale
COMODA_USER, COMODA_ITEM, COMODA_RATING = "userID", "itemID", "rating"
COMODA_R_MAX = 5


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


@dataclass
class ParseResult:
    """A parsed dataset, the number of duplicate cells the parser replaced,
    and (CoMoDa only) one context sample per cell."""

    dataset: RatingsDataset
    duplicates_replaced: int = 0
    contexts: List[ContextSample] = field(default_factory=list)


def _text_lines(source) -> Iterable[str]:
    if isinstance(source, (str, bytes)):
        data = source.decode("utf-8") if isinstance(source, bytes) else source
        return io.StringIO(data)
    if isinstance(source, io.TextIOBase):
        return source
    # binary stream
    return io.TextIOWrapper(source, encoding="utf-8")


def _dataset(rows: dict, n_users: int, n_items: int, r_max: int) -> RatingsDataset:
    """Dataset of a (user, item) -> value dict's rows, in the dict's order."""
    cells = np.array(list(rows), dtype=np.int64).reshape(-1, 2)
    return RatingsDataset.from_columns(cells[:, 0], cells[:, 1], list(rows.values()),
                                       n_users, n_items, r_max)


def parse_movielens(source, fmt: MovieLensFormat) -> ParseResult:
    """Parse a MovieLens ratings file into a dataset with dense 0-based ids.

    Accepts a path-opened binary stream, a text stream, or raw str/bytes.
    Lines are "user<sep>item<sep>rating<sep>timestamp"; the timestamp must
    be an integer but is not kept. Duplicate cells keep the last occurrence
    (counted in duplicates_replaced) at the position of the first.
    """
    sep = fmt.value
    user_index: dict = {}
    item_index: dict = {}
    cell_to_value: dict = {}
    duplicates = 0

    for line_no, raw_line in enumerate(_text_lines(source), start=1):
        line = raw_line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(sep)
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields separated by {sep!r}, got {len(fields)}",
                             line_no)
        raw_user, raw_item, raw_value, raw_ts = fields
        try:
            value = int(raw_value)
            int(raw_ts)  # checked, not kept
        except ValueError as exc:
            raise ParseError(f"non-integer rating or timestamp: {exc}", line_no) from None
        if not (1 <= value <= 5):
            raise DatasetError(f"line {line_no}: rating {value} outside [1, 5]")
        if not (raw_user and raw_item):
            raise ParseError(f"empty {'item' if raw_user else 'user'} id", line_no)
        user = user_index.setdefault(raw_user, len(user_index))
        item = item_index.setdefault(raw_item, len(item_index))
        cell = (user, item)
        if cell in cell_to_value:
            duplicates += 1
        cell_to_value[cell] = value

    dataset = _dataset(cell_to_value, len(user_index), len(item_index), r_max=5)
    return ParseResult(dataset=dataset, duplicates_replaced=duplicates)


def write_movielens(dataset: RatingsDataset, fmt: MovieLensFormat = MovieLensFormat.TAB_100K) -> str:
    """Serialize a dataset back to MovieLens line format with 1-based ids
    and timestamp 0."""
    sep = fmt.value
    lines = [sep.join((str(u + 1), str(i + 1), str(v), "0"))
             for u, i, v in zip(dataset.users.tolist(), dataset.items.tolist(),
                                dataset.values.tolist())]
    return "\n".join(lines) + "\n"


def parse_comoda(source, context_columns: Sequence[str]) -> ParseResult:
    """Parse an LDOS-CoMoDa style CSV (userID, itemID and rating columns,
    ratings on a 1-5 scale) into a dataset plus context samples.

    Context columns hold integer category codes; missing markers (-1, empty)
    are encoded as 0. Every context vector has dimension len(context_columns).
    """
    reader = csv.DictReader(_text_lines(source))
    if reader.fieldnames is None:
        raise SchemaError("empty input: no header row")
    header = set(reader.fieldnames)
    required = [COMODA_USER, COMODA_ITEM, COMODA_RATING, *context_columns]
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"missing columns: {missing}")

    user_index: dict = {}
    item_index: dict = {}
    cell_to_row: dict = {}
    duplicates = 0

    for row in reader:
        line_no = reader.line_num
        if None in row or None in row.values():  # DictReader's extra, missing fields
            n = len(reader.fieldnames)
            got = n + len(row.get(None, ())) - list(row.values()).count(None)
            raise ParseError(f"expected {n} fields, got {got}", line_no)
        try:
            value = int(row[COMODA_RATING])
        except ValueError:
            raise ParseError(f"non-numeric rating {row[COMODA_RATING]!r}",
                             line_no) from None
        if not (1 <= value <= COMODA_R_MAX):
            raise DatasetError(f"line {line_no}: rating {value} outside [1, {COMODA_R_MAX}]")
        if not (row[COMODA_USER] and row[COMODA_ITEM]):
            raise ParseError(f"empty {'item' if row[COMODA_USER] else 'user'} id", line_no)
        context = []
        for col in context_columns:
            cell_text = row[col].strip()
            try:
                code = float(cell_text) if cell_text else 0.0
            except ValueError:
                raise ParseError(f"non-numeric context value {cell_text!r} in {col}",
                                 line_no) from None
            if not math.isfinite(code):  # float() reads nan and inf
                raise ParseError(f"non-finite context value {cell_text!r} in {col}",
                                 line_no)
            context.append(max(code, 0.0))  # missing marker (-1 or blank) -> 0
        user = user_index.setdefault(row[COMODA_USER], len(user_index))
        item = item_index.setdefault(row[COMODA_ITEM], len(item_index))
        cell = (user, item)
        if cell in cell_to_row:
            duplicates += 1
        cell_to_row[cell] = (value, context)

    contexts = [ContextSample(u, i, value, tuple(context))
                for (u, i), (value, context) in cell_to_row.items()]
    values = {cell: value for cell, (value, _) in cell_to_row.items()}
    dataset = _dataset(values, len(user_index), len(item_index), r_max=COMODA_R_MAX)
    return ParseResult(dataset=dataset, duplicates_replaced=duplicates,
                       contexts=contexts)


def split(dataset: RatingsDataset, spec: SplitSpec) -> Tuple[RatingsDataset, RatingsDataset]:
    """Seeded random partition into (train, test); both sides keep the
    parent's n_users / n_items / r_max."""
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot split an empty dataset")
    n_test = int(round(spec.test_fraction * n))
    rng = np.random.default_rng(spec.seed)
    in_test = np.zeros(n, dtype=bool)
    in_test[rng.permutation(n)[:n_test]] = True
    make = lambda mask: RatingsDataset.from_columns(
        dataset.users[mask], dataset.items[mask], dataset.values[mask],
        dataset.n_users, dataset.n_items, dataset.r_max)
    return make(~in_test), make(in_test)


def _cdf(weights: np.ndarray) -> np.ndarray:
    """Cumulative distribution of `weights`, for inverse sampling with
    searchsorted. The last entry is pinned to 1.0: left rounded down, a draw
    above it would index one past the last bin."""
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1:] = 1.0
    return cdf


def generate_zipf(n_users: int, n_items: int, n_ratings: int, exponent: float,
                  r_max: int = 5, seed: int = 0) -> RatingsDataset:
    """Synthetic dataset with power-law item popularity and rating-value
    counts proportional to the value itself.

    Item j (popularity rank j+1) is drawn with weight (j+1)^-exponent; the
    rating value v is drawn with probability v / sum(1..r_max).
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if n_ratings < 0:
        raise ValueError(f"n_ratings must be >= 0, got {n_ratings}")
    if n_ratings > n_users * n_items:
        raise DatasetError(
            f"cannot place {n_ratings} distinct ratings on a "
            f"{n_users}x{n_items} grid")
    rng = np.random.default_rng(seed)
    item_weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-exponent)
    item_cum = _cdf(item_weights)
    values_cum = _cdf(np.arange(1, r_max + 1, dtype=np.float64))

    # cell keys user * n_items + item, in draw order; a cell keeps its first draw
    keys = np.empty(0, dtype=np.int64)
    values = np.empty(0, dtype=np.int64)
    for _ in range(200):  # then fill dense grids in row-major order
        if len(keys) == n_ratings:
            break
        batch = max(2 * (n_ratings - len(keys)), 1024)
        us = rng.integers(0, n_users, size=batch)
        js = np.searchsorted(item_cum, rng.random(batch))
        vs = np.searchsorted(values_cum, rng.random(batch)) + 1
        keys = np.concatenate([keys, us * n_items + js])
        values = np.concatenate([values, vs])
        first = np.sort(np.unique(keys, return_index=True)[1])[:n_ratings]
        keys = keys[first]
        values = values[first]
    if len(keys) < n_ratings:
        free = np.setdiff1d(np.arange(n_users * n_items), keys)[:n_ratings - len(keys)]
        keys = np.concatenate([keys, free])
        free_values = np.searchsorted(values_cum, rng.random(len(free))) + 1
        values = np.concatenate([values, free_values])
    return RatingsDataset.from_columns(keys // n_items, keys % n_items, values,
                                       n_users, n_items, r_max)
