"""Dataset ingestion: MovieLens / CoMoDa parsers, synthetic Zipf generation,
and reproducible train/test splits."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ContextSample, DatasetError, Rating, RatingsDataset


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


def parse_movielens(source, fmt: MovieLensFormat) -> ParseResult:
    """Parse a MovieLens ratings file into a dataset with dense 0-based ids.

    Accepts a path-opened binary stream, a text stream, or raw str/bytes.
    Lines are "user<sep>item<sep>rating<sep>timestamp"; duplicate cells keep
    the last occurrence (counted in duplicates_replaced).
    """
    sep = fmt.value
    user_index: dict = {}
    item_index: dict = {}
    cell_to_rating: dict = {}
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
            timestamp = int(raw_ts)
        except ValueError as exc:
            raise ParseError(f"non-integer rating or timestamp: {exc}", line_no) from None
        if not (1 <= value <= 5):
            raise DatasetError(f"line {line_no}: rating {value} outside [1, 5]")
        user = user_index.setdefault(raw_user, len(user_index))
        item = item_index.setdefault(raw_item, len(item_index))
        cell = (user, item)
        if cell in cell_to_rating:
            duplicates += 1
        cell_to_rating[cell] = Rating(cell[0], cell[1], value, timestamp)

    dataset = RatingsDataset(ratings=tuple(cell_to_rating.values()),
                             n_users=len(user_index), n_items=len(item_index), r_max=5)
    return ParseResult(dataset=dataset, duplicates_replaced=duplicates)


def write_movielens(dataset: RatingsDataset, fmt: MovieLensFormat = MovieLensFormat.TAB_100K) -> str:
    """Serialize a dataset back to MovieLens line format with 1-based ids."""
    sep = fmt.value
    lines = []
    for r in dataset.ratings:
        ts = r.timestamp if r.timestamp is not None else 0
        lines.append(sep.join((str(r.user_id + 1), str(r.item_id + 1), str(r.value), str(ts))))
    return "\n".join(lines) + "\n"


def parse_comoda(source, context_columns: Sequence[str],
                 user_col: str = "userID", item_col: str = "itemID",
                 rating_col: str = "rating", r_max: int = 5) -> ParseResult:
    """Parse an LDOS-CoMoDa style CSV into a dataset plus context samples.

    Context columns hold integer category codes; missing markers (-1, empty)
    are encoded as 0. Every context vector has dimension len(context_columns).
    """
    reader = csv.DictReader(_text_lines(source))
    if reader.fieldnames is None:
        raise SchemaError("empty input: no header row")
    header = set(reader.fieldnames)
    required = [user_col, item_col, rating_col, *context_columns]
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"missing columns: {missing}")

    user_index: dict = {}
    item_index: dict = {}
    cell_to_row: dict = {}
    duplicates = 0

    for line_no, row in enumerate(reader, start=2):
        try:
            value = int(row[rating_col])
        except (TypeError, ValueError):
            raise ParseError(f"non-numeric rating {row.get(rating_col)!r}", line_no) from None
        context = []
        for col in context_columns:
            cell_text = (row[col] or "").strip()
            try:
                code = float(cell_text) if cell_text else 0.0
            except ValueError:
                raise ParseError(f"non-numeric context value {cell_text!r} in {col}",
                                 line_no) from None
            context.append(max(code, 0.0))  # missing marker (-1 or blank) -> 0
        user = user_index.setdefault(row[user_col], len(user_index))
        item = item_index.setdefault(row[item_col], len(item_index))
        cell = (user, item)
        if cell in cell_to_row:
            duplicates += 1
        cell_to_row[cell] = (value, context)

    ratings = []
    contexts = []
    for (u, i), (value, context) in cell_to_row.items():
        ratings.append(Rating(u, i, value))
        contexts.append(ContextSample(u, i, value, tuple(context)))
    dataset = RatingsDataset(ratings=tuple(ratings), n_users=len(user_index),
                             n_items=len(item_index), r_max=r_max)
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
    perm = rng.permutation(n)
    test_idx = set(perm[:n_test].tolist())
    train_ratings = tuple(r for i, r in enumerate(dataset.ratings) if i not in test_idx)
    test_ratings = tuple(r for i, r in enumerate(dataset.ratings) if i in test_idx)
    make = lambda rs: RatingsDataset(ratings=rs, n_users=dataset.n_users,
                                     n_items=dataset.n_items, r_max=dataset.r_max)
    return make(train_ratings), make(test_ratings)


def generate_zipf(n_users: int, n_items: int, n_ratings: int, exponent: float,
                  r_max: int = 5, seed: int = 0) -> RatingsDataset:
    """Synthetic dataset with power-law item popularity and rating-value
    counts proportional to the value itself.

    Item j (popularity rank j+1) is drawn with weight (j+1)^-exponent; the
    rating value v is drawn with probability v / sum(1..r_max).
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if n_ratings > n_users * n_items:
        raise DatasetError(
            f"cannot place {n_ratings} distinct ratings on a "
            f"{n_users}x{n_items} grid")
    rng = np.random.default_rng(seed)
    item_weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-exponent)
    item_cum = np.cumsum(item_weights / item_weights.sum())
    values_pmf = np.arange(1, r_max + 1, dtype=np.float64)
    values_cum = np.cumsum(values_pmf / values_pmf.sum())

    used = set()
    ratings = []
    max_rounds = 200
    for _ in range(max_rounds):
        need = n_ratings - len(ratings)
        if need == 0:
            break
        batch = max(2 * need, 1024)
        us = rng.integers(0, n_users, size=batch)
        js = np.searchsorted(item_cum, rng.random(batch))
        vs = np.searchsorted(values_cum, rng.random(batch)) + 1
        for u, j, v in zip(us, js, vs):
            cell = (int(u), int(j))
            if cell in used:
                continue
            used.add(cell)
            ratings.append(Rating(cell[0], cell[1], int(v), timestamp=0))
            if len(ratings) == n_ratings:
                break
    if len(ratings) < n_ratings:
        # dense grids: fill remaining cells deterministically
        for u in range(n_users):
            for j in range(n_items):
                if len(ratings) >= n_ratings:
                    break
                if (u, j) in used:
                    continue
                used.add((u, j))
                v = int(np.searchsorted(values_cum, rng.random())) + 1
                ratings.append(Rating(u, j, v, timestamp=0))
    return RatingsDataset(ratings=tuple(ratings), n_users=n_users,
                          n_items=n_items, r_max=r_max)
