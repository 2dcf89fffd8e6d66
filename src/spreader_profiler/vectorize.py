"""Character n-gram vectorization.

A vocabulary is fitted over the preprocessed token streams of the
training corpus: character n-grams are counted, rare ones dropped via
``min_df``, the vocabulary optionally capped to the ``max_features``
most frequent terms, and feature indices assigned in lexicographic
term order. Documents then become sparse rows, either raw counts or
L2-normalized TF-IDF with the smooth IDF ``ln((1+N)/(1+df)) + 1``.

Character n-grams are read from the space-joined token stream, so the
space is part of the alphabet and n-grams may straddle token
boundaries. The alphabet is Unicode codepoints, never bytes. Character
n-grams are the only analyzer: ``Analyzer`` has the single member
``CHAR``, which model files and configuration keys name.

Counting is corpus-level (``NgramCounts``) and complete: every length
from 1 to the longest that its caller's configurations reach is counted
when the counts are built. The symbols of every document are mapped to
dense codes ``1..A`` in sorted order, and each n-gram gets the exact
integer key ``rank(its (n-1)-prefix) * (A + 1) + code(its last
symbol)``, where the rank is the prefix's position among the corpus's
distinct (n-1)-grams. Keys therefore sort like the terms and stay below
``positions * (A + 1)`` for any alphabet. Every length reads the same
positions, one array of them, with nothing compacted: the codes run on
in ``max_n`` zeros past the last symbol, so length n reads the code
``n - 1`` places on from each position. The last ``n - 1`` positions of
each document start no n-gram; they are dead, and their key is the
bound of the length's keys, above every n-gram's, so they rank last and
their cells are cut off the sorted end. Each length's distinct keys
become its columns, ranked by a table marking the keys that occur when
the possible keys are no more than the n-grams, else by one value sort
of each key packed above its position (an ``argsort`` when the two do
not share 63 bits); the columns of every length are numbered in one
sequence, length 1's first. The per-document counts are one CSC matrix
over all of them. Each occurrence becomes the code ``column * documents
+ row`` of its cell, and the codes are sorted: the key sort leaves them
so, since it keeps ties in position order, and after marking one value
sort does. A cell's repeats are then one run, and the run's length is
its count. The counts hold no text: a column's n-gram is spelled from
its key, walked down its prefixes, and the column sums are made when a
fit first reads them, so scoring makes neither. A fit orders its terms
by their codes, which ascend with the code points, so as Python orders
strings. A vocabulary is a set of those columns: fitting selects from
the slice of its lengths, and a transform gathers its columns into a CSC
block in term order. The columns are found by keys, never by strings:
every vocabulary has a ``KeySpace`` and its terms' columns in it, those
of the counts it was fitted on or, for any other, of its own terms'
prefixes. A transform takes them as they are on the counts the key space
came from, and on others maps them through those counts' ``column_map``,
which re-keys every key of that space into theirs. CSC is the one layout
from the counts to the scores, held in the package's own ``CscMatrix``
of numpy arrays rather than scipy's, whose import would cost every
command more than its work at bench scale. Python strings are made only
for the terms a vocabulary keeps.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EmptyVocabulary
from .preprocess import TokenStream

MAX_NGRAM_LENGTH = 16
MAX_FEATURE_CAP = 10**7


class Analyzer(enum.Enum):
    CHAR = "char"


class Weighting(enum.Enum):
    TFIDF = "tfidf"
    COUNT = "count"


@dataclass(frozen=True)
class NgramRange:
    min_n: int
    max_n: int

    def __post_init__(self) -> None:
        if self.min_n < 1:
            raise ValueError(f"min_n must be >= 1, got {self.min_n}")
        if self.max_n < self.min_n:
            raise ValueError(f"max_n must be >= min_n, got [{self.min_n};{self.max_n}]")
        if self.max_n > MAX_NGRAM_LENGTH:
            raise ValueError(f"max_n above sanity bound {MAX_NGRAM_LENGTH}")

    def __str__(self) -> str:
        return f"[{self.min_n};{self.max_n}]"


@dataclass(frozen=True)
class VectorizerConfig:
    analyzer: Analyzer = Analyzer.CHAR
    range: NgramRange = NgramRange(1, 3)
    max_features: int | None = None
    min_df: int = 1
    weighting: Weighting = Weighting.TFIDF

    def __post_init__(self) -> None:
        if self.max_features is not None and not (1 <= self.max_features <= MAX_FEATURE_CAP):
            raise ValueError(f"max_features out of [1; {MAX_FEATURE_CAP}]: {self.max_features}")
        if self.min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {self.min_df}")

    def key(self) -> str:
        """Canonical compact description, also used for deterministic sorting."""
        cap = self.max_features if self.max_features is not None else "all"
        return (
            f"{self.weighting.value},{self.analyzer.value},{self.range},"
            f"max_features={cap},min_df={self.min_df}"
        )


@dataclass(frozen=True)
class SparseVector:
    """Index/value pairs sorted by strictly increasing index."""

    entries: tuple[tuple[int, float], ...]
    dimension: int

    def __post_init__(self) -> None:
        last = -1
        for index, value in self.entries:
            if index <= last:
                raise ValueError("entries must be strictly increasing by index")
            if not (0 <= index < self.dimension):
                raise ValueError(f"index {index} outside dimension {self.dimension}")
            if value == 0:
                raise ValueError("zero-valued entries are not stored")
            last = index

    def norm(self) -> float:
        return math.sqrt(sum(v * v for _, v in self.entries))


class CscMatrix:
    """A sparse matrix in compressed sparse column form: column ``j``
    holds the values ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``, ascending. It is the one
    layout from the counts to the scores, and it has only what the
    pipeline asks of it."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple[int, int]):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        """The matrix as a dense array, repeated entries of a cell added."""
        n_rows, n_columns = self.shape
        cells = self.indices.astype(np.int64)
        cells *= n_columns
        cells += np.repeat(np.arange(n_columns), np.diff(self.indptr))
        dense = np.zeros(n_rows * n_columns, dtype=self.data.dtype)
        np.add.at(dense, cells, self.data)
        return dense.reshape(self.shape)


class TermColumns(NamedTuple):
    """A vocabulary's terms in index order, with the document frequency
    and (for TF-IDF) the idf of each."""

    terms: list[str]
    df: list[int]
    idf: np.ndarray | None


class Vocabulary:
    """A fitted term → index mapping plus the statistics behind it.

    A vocabulary holds its config, its corpus size and ``columns``: the
    terms in index order with their statistics. Built from the dicts, it
    copies them into columns at once, and refuses indices other than
    exactly 0..n-1 in ascending term order and statistics of other terms
    than the indexed ones; ``from_columns`` takes the columns as they
    are, but refuses an idf that contradicts the weighting and, unless a
    fit gives them with their keys, terms that do not strictly ascend.
    Each dict (``term_to_index``, ``document_frequency``, ``idf``) is
    derived the first time it is read, so scoring with a loaded model
    builds none.
    A vocabulary is immutable, and its value is its config, columns and
    corpus size.

    ``key_space`` and ``fitted_columns`` are a ``KeySpace`` and each
    term's column in it, by which a transform finds its columns. A fitted
    vocabulary has those of the ``NgramCounts`` it was fitted on, shared
    with the counts and outliving them (8 bytes for every distinct n-gram
    of every counted length, and 4 for every symbol); any other keys its
    own terms' prefixes when first read. Neither is part of its value."""

    config: VectorizerConfig
    corpus_size: int
    columns: TermColumns

    def __init__(
        self,
        config: VectorizerConfig,
        term_to_index: dict[str, int],
        document_frequency: dict[str, int],
        corpus_size: int,
        idf: dict[str, float] | None = None,
    ):
        terms = sorted(term_to_index)
        if list(map(term_to_index.__getitem__, terms)) != list(range(len(terms))):
            raise ValueError(f"vocabulary indices are not exactly 0..{len(terms) - 1}, "
                             "one per term in ascending term order")
        for name, given in (("document_frequency", document_frequency), ("idf", idf)):
            if given is not None and given.keys() != term_to_index.keys():
                raise ValueError(
                    f"{name} does not hold exactly the vocabulary's terms: missing "
                    f"{sorted(term_to_index.keys() - given.keys())}, "
                    f"extra {sorted(given.keys() - term_to_index.keys())}"
                )
        held = Vocabulary.from_columns(
            config, terms, list(map(document_frequency.__getitem__, terms)), corpus_size,
            None if idf is None else list(map(idf.__getitem__, terms)),
        )
        vars(self).update(vars(held))

    @classmethod
    def from_columns(
        cls,
        config: VectorizerConfig,
        terms: list[str],
        df: list[int],
        corpus_size: int,
        idf: list[float] | None,
        keys: tuple[KeySpace, np.ndarray] | None = None,
    ) -> Vocabulary:
        """The vocabulary of ``terms``, ascending, in index order, with
        their document frequencies, their idfs (``None`` for counts) and
        optionally their ``keys``: a key space and their columns in it.
        Terms given without keys are checked to ascend strictly, a pair at
        a time; a fit's ascend as it orders them."""
        if (idf is None) != (config.weighting is Weighting.COUNT):
            raise ValueError("a count vocabulary holds no idf" if idf is not None
                             else "a TF-IDF vocabulary needs the idf of each term")
        if keys is None and not all(map(str.__lt__, terms, terms[1:])):
            p = next(p for p in range(1, len(terms)) if not terms[p - 1] < terms[p])
            raise ValueError(f"vocabulary term {p} is out of order")
        vocab = cls.__new__(cls)
        idf_column = None if idf is None else np.array(idf, dtype=np.float64)
        vars(vocab).update(config=config, corpus_size=corpus_size,
                           columns=TermColumns(terms, df, idf_column))
        if keys is not None:
            vars(vocab)["_keys"] = keys
        return vocab

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def _value(self) -> tuple:
        terms, df, idf = self.columns
        return self.config, self.corpus_size, terms, df, None if idf is None else idf.tolist()

    def __repr__(self) -> str:
        return (
            f"Vocabulary(config={self.config!r}, terms={len(self)}, corpus_size={self.corpus_size})"
        )

    def __len__(self) -> int:
        return len(self.columns.terms)

    @property
    def dimension(self) -> int:
        return len(self)

    @cached_property
    def term_to_index(self) -> dict[str, int]:
        return dict(zip(self.columns.terms, range(len(self))))

    @cached_property
    def document_frequency(self) -> dict[str, int]:
        return dict(zip(self.columns.terms, self.columns.df))

    @cached_property
    def idf(self) -> dict[str, float] | None:
        terms, _, idf = self.columns
        return None if idf is None else dict(zip(terms, idf.tolist()))

    def terms(self) -> list[str]:
        """Terms in index order (shared, not a copy)."""
        return self.columns.terms

    @cached_property
    def _keys(self) -> tuple[KeySpace, np.ndarray]:
        return _term_key_space(self.columns.terms)

    @property
    def key_space(self) -> KeySpace:
        return self._keys[0]

    @property
    def fitted_columns(self) -> np.ndarray:
        return self._keys[1]


# ----------------------------------------------------------------------
# Corpus-level counting.


@dataclass(frozen=True, eq=False)
class KeySpace:
    """How one ``NgramCounts`` or vocabulary keys and numbers n-grams: its
    ``alphabet`` of sorted code points, coded ``1..A``; ``base``, which is
    ``A + 1``; ``keys[n - 1]``, length n's keys, sorted; and ``first``,
    where each length's columns start, with the column count last. Two
    key spaces are equal only when they are one object."""

    alphabet: np.ndarray
    base: int
    keys: list[np.ndarray]
    first: np.ndarray


def _coded(text: str) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` of the code points of ``text`` and the code ``1..A``
    of each, from a table over the points (at most 0x110000 of them)."""
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    present = np.zeros(int(points.max(initial=0)) + 1, dtype=bool)
    present[points] = True
    return np.flatnonzero(present).astype(points.dtype), np.cumsum(present, dtype=np.int32)[points]


def _term_key_space(terms: Sequence[str]) -> tuple[KeySpace, np.ndarray]:
    """The key space of the prefixes of ``terms``, keyed as ``NgramCounts``
    keys a corpus's n-grams, and each term's column in it: the column of
    its key at its own length, or -1 for the empty term, which has none."""
    lengths = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
    alphabet, codes = _coded("".join(terms))
    base = len(alphabet) + 1
    starts = np.cumsum(lengths) - lengths
    ranks = np.zeros(len(terms), dtype=np.int64)  # of each term's prefix so far
    level_keys = []
    reading = np.flatnonzero(lengths)  # the terms of this length or longer
    for n in range(1, int(lengths.max(initial=0)) + 1):
        keys = ranks[reading] * base + codes[starts[reading] + (n - 1)]
        # ascending terms give ascending keys, each distinct prefix one
        # run (terms in another order map alike, a key heading many runs)
        runs = _run_starts(keys)
        ranks[reading] = np.repeat(np.arange(len(runs)), np.diff(runs, append=len(keys)))
        level_keys.append(keys[runs])
        reading = reading[lengths[reading] > n]
    first = np.cumsum([0, *map(len, level_keys)])
    columns = np.where(lengths > 0, first[lengths - 1] + ranks, -1)
    return KeySpace(alphabet, base, level_keys, first), columns


class NgramCounts:
    """Exact per-document counts of every character n-gram of lengths
    1..``max_n`` of a list of token streams, all counted when it is built,
    so vocabularies and transforms that share one ``NgramCounts`` share
    the counting.

    The n-grams of every length are numbered in one sequence of columns,
    length 1's first and each length's in term order: the columns of
    length n run from ``first[n - 1]`` to ``first[n]``. ``matrix`` is the
    documents x columns count matrix (a ``CscMatrix``), with one empty
    column after the last, which stands for a term these counts do not
    contain. ``df`` holds the column supports; ``tf``, the column sums,
    is made the first time a fit's cap reads it, and ``terms`` spells
    columns from their keys, so the counts keep no text. ``key_space``
    holds the alphabet, each length's keys and ``first``, and outlives
    the counts in the vocabularies fitted on them; ``column_maps`` keeps
    the ``column_map`` of each other key space these counts were asked
    for. Every length is counted in the same scratch, about six integers
    per symbol (each position's code, document, rank, key and cell),
    freed before the constructor returns."""

    def __init__(self, streams: Sequence[TokenStream], max_n: int):
        documents = [stream.joined_text for stream in streams]
        sizes = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
        alphabet, codes = _coded("".join(documents))
        del documents  # counting needs only the codes
        symbols = len(codes)
        # run on in zeros, so that every length reads a view of the codes
        codes = np.append(codes, np.zeros(max_n, dtype=codes.dtype))
        index = np.int32 if symbols < 2**31 else np.int64
        # a cell code rank * documents + row, rank at most the symbols
        cell = np.int32 if (symbols + 1) * len(sizes) < _CELL_LIMIT else np.int64
        base = len(alphabet) + 1
        ends = np.cumsum(sizes)
        # each position's document, in the cells' type: it is added to them
        # and gathered into them
        rows = np.repeat(np.arange(len(sizes), dtype=cell), sizes)
        # the scratch of every length: each position's key, its n-gram's
        # rank (its prefix's, until the key is made) and its cell
        ranks = np.zeros(symbols, dtype=index)
        keys = np.empty(symbols, dtype=np.int64)
        cells = np.empty(symbols, dtype=cell)
        levels, level_keys = [], []
        for n in range(1, max_n + 1):
            bound = (len(level_keys[-1]) if level_keys else 1) * base
            np.multiply(ranks, base, out=keys, dtype=np.int64)
            keys += codes[n - 1 : n - 1 + symbols]
            # the last n - 1 positions of each document start no n-gram:
            # their key is ``bound``, above every n-gram's, so they rank
            # last and their cells are cut off the sorted end
            tails = ends[:, None] - np.arange(1, n)
            dead = tails[tails >= (ends - sizes)[:, None]]
            keys[dead] = bound
            live = symbols - len(dead)
            # keys, ranks = np.unique(keys, return_inverse=True), in less
            # memory: by marking the possible keys when they are fewer than
            # the n-grams, else by sorting. Either way, ``cells`` ends up
            # holding each n-gram's rank * documents + row, sorted.
            if bound <= live:
                present = np.zeros(bound + 1, dtype=bool)  # and the dead key
                present[keys] = True
                table = np.cumsum(present, dtype=index)
                table -= 1
                np.take(table, keys, out=ranks)
                del table
                level = np.flatnonzero(present[:bound])
                del present
                np.multiply(ranks, len(sizes), out=cells, dtype=cell)
                cells += rows
                cells.sort()
            else:
                # sorted by key and then by position, so by row; the
                # position each sorted key came from goes to ``cells``
                _sort_with_order(keys, cells)
                starts = _run_starts(keys)
                level = keys[starts[: len(starts) - (live < symbols)]]  # the dead run last
                # each sorted key's rank, in ``keys``
                keys[:] = 0
                keys[starts[1:]] = 1
                del starts
                np.cumsum(keys, out=keys)
                ranks[cells] = keys
                keys *= len(sizes)
                np.take(rows, cells, out=cells)
                np.add(cells, keys, out=cells, casting="same_kind")
            levels.append(_count_cells(cells[:live], len(sizes), len(level), index))
            level_keys.append(level)
        del codes, rows, ranks, keys, cells  # before the copy below
        empty = np.zeros(0, dtype=np.int32)
        levels.append(CscMatrix(empty, empty.astype(index), np.zeros(2, dtype=np.int64),
                                (len(sizes), 1)))
        self.matrix = join_blocks(levels)
        self.df = np.diff(self.matrix.indptr[:-1])
        self.key_space = KeySpace(alphabet, base, level_keys, np.cumsum([0, *map(len, level_keys)]))
        self.column_maps: dict[KeySpace, np.ndarray] = {}

    @cached_property
    def tf(self) -> np.ndarray:
        """Each column's count summed over the documents, made when first
        read: a fit's cap reads it, scoring never."""
        matrix = self.matrix
        # every column but the empty last one holds an entry
        return np.add.reduceat(matrix.data, matrix.indptr[:-2], dtype=np.int64)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def span(self, ngram_range: NgramRange) -> slice:
        """The columns of the lengths ``ngram_range`` covers."""
        n, first = ngram_range.max_n, self.key_space.first
        if n >= len(first):
            raise ValueError(f"n-grams of length {n} were not counted (max_n={len(first) - 1})")
        return slice(int(first[ngram_range.min_n - 1]), int(first[n]))

    def terms(self, columns: np.ndarray) -> list[str]:
        """The n-gram of each column, in the order given, decoded from its
        key."""
        distinct, at = np.unique(columns, return_inverse=True)
        spelled = _spelled(self.key_space.alphabet, _code_rows(self.key_space, distinct))
        return list(map(spelled.__getitem__, at.tolist()))

    def column_map(self, source: KeySpace) -> np.ndarray:
        """The column of these counts that holds each column's n-gram of
        the key space ``source``, or -1 for an n-gram these counts do not
        contain, and -1 last, for column -1. Made once per key space and
        kept in ``column_maps``."""
        found = self.column_maps.get(source)
        if found is None:
            found = self.column_maps[source] = _column_map(source, self.key_space)
        return found


def _code_rows(space: KeySpace, columns: np.ndarray) -> np.ndarray:
    """The codes of the n-grams of the ascending ``columns`` of ``space``,
    a row each, padded with code 0; so the rows' lexical order
    (``np.lexsort`` of the columns reversed) is the n-grams' string order.
    Each length's columns are one run, and their keys are walked down
    their prefixes together."""
    columns = np.asarray(columns, dtype=np.int64)
    longest = int(np.searchsorted(space.first, columns[-1], side="right")) if len(columns) else 0
    rows = np.zeros((len(columns), longest), dtype=np.min_scalar_type(space.base - 1))
    bounds = np.searchsorted(columns, space.first).tolist()
    for n in range(1, longest + 1):
        run = slice(bounds[n - 1], bounds[n])
        ranks = columns[run] - space.first[n - 1]
        for k in reversed(range(n)):
            ranks, rows[run, k] = np.divmod(space.keys[k][ranks], space.base)
    return rows


def _spelled(alphabet: np.ndarray, rows: np.ndarray) -> list[str]:
    """The strings that the ``_code_rows`` rows spell over ``alphabet``:
    their code points viewed as fixed-width numpy strings, which drop the
    padding as trailing NULs."""
    if not rows.size:
        return [""] * len(rows)
    terms = np.insert(alphabet, 0, 0)[rows].view(f"<U{rows.shape[1]}")[:, 0].tolist()
    if alphabet[0] == 0:  # n-grams that end in U+0000 lost it with the padding
        lengths = np.count_nonzero(rows, axis=1).tolist()
        terms = [term.ljust(n, "\0") for term, n in zip(terms, lengths)]
    return terms


def _column_map(source: KeySpace, target: KeySpace) -> np.ndarray:
    """Every key of ``source`` re-keyed into ``target`` a length at a
    time, as ``target rank of its prefix * target.base + target code of
    its last symbol``, and searched for among ``target``'s keys of that
    length: the target column of each source column, or -1; and -1 last,
    for column -1, the empty term's, which has no key."""
    # each source code's target code, 0 for a symbol ``target`` lacks
    at = np.searchsorted(target.alphabet, source.alphabet)
    found = at < len(target.alphabet)
    found[found] = target.alphabet[at[found]] == source.alphabet[found]
    codes = np.zeros(source.base, dtype=np.int64)
    codes[1:][found] = at[found] + 1
    columns = np.full(int(source.first[-1]) + 1, -1, dtype=np.int64)
    ranks = np.zeros(1, dtype=np.int64)  # the empty prefix's, for length 1
    for n, (keys, level_keys) in enumerate(zip(source.keys, target.keys), 1):
        prefixes, last = np.divmod(keys, source.base)
        # a prefix of rank -1 or a symbol of code 0 gives a key below 0
        # or one of code 0, which no key of ``target`` is
        wanted = ranks[prefixes] * target.base + codes[last]
        at = np.searchsorted(level_keys, wanted)
        hit = at < len(level_keys)
        hit[hit] = level_keys[at[hit]] == wanted[hit]
        ranks = np.where(hit, at, -1)
        columns[source.first[n - 1] : source.first[n]] = np.where(hit, at + target.first[n - 1], -1)
    return columns


# Bits of an int64 that a key and its position may share in one sort.
_KEY_BITS = 63
# Cell codes (rank * documents + row) at or above this need int64.
_CELL_LIMIT = 2**31


def _sort_with_order(keys: np.ndarray, order: np.ndarray) -> None:
    """Sort the non-negative int64 ``keys`` in place, ties in their order,
    and write to ``order`` the position each sorted key came from. Each key
    is packed above its position into one int64, so one value sort gives
    both; keys too large to share the bits are arg-sorted."""
    shift = max(len(keys) - 1, 0).bit_length()
    if int(keys.max(initial=0)).bit_length() + shift > _KEY_BITS:
        order[:] = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
        return
    order[:] = 1  # then the positions, by a running sum in place
    order[:1] = 0
    np.cumsum(order, out=order)
    keys <<= shift
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << shift) - 1, out=order, casting="same_kind")
    keys >>= shift


def _run_starts(values: np.ndarray) -> np.ndarray:
    """The index of the first value of each run of equal values."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _count_cells(cells: np.ndarray, n_rows: int, n_columns: int, index) -> CscMatrix:
    """The count matrix of ``cells``, sorted codes ``column * n_rows + row``
    of one occurrence each, in which every column occurs: every run of
    equal codes is one entry."""
    starts = _run_starts(cells)
    data = np.empty(len(starts), dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=data[:-1], casting="same_kind")
    data[-1:] = len(cells) - starts[-1:]
    columns = cells[starts]
    del starts  # before the rows are made
    rows = columns % n_rows
    columns //= n_rows
    return CscMatrix(data, rows.astype(index, copy=False),
                     np.append(_run_starts(columns), len(columns)), (n_rows, n_columns))


def _as_counts(streams: Sequence[TokenStream] | NgramCounts, max_n: int) -> NgramCounts:
    return streams if isinstance(streams, NgramCounts) else NgramCounts(streams, max_n)


def extract_char_ngrams(text: str, ngram_range: NgramRange) -> Counter:
    """Count every contiguous codepoint n-gram of the configured lengths."""
    counts = NgramCounts([TokenStream("text", (text,))], ngram_range.max_n)
    span = counts.span(ngram_range)
    columns = np.arange(span.start, span.stop)
    return Counter(dict(zip(counts.terms(columns), counts.tf[span].tolist())))


def smooth_idf(corpus_size: int, df: int) -> float:
    return math.log((1 + corpus_size) / (1 + df)) + 1.0


def selected_columns(counts: NgramCounts, config: VectorizerConfig) -> np.ndarray:
    """The columns of ``counts`` that a fit under ``config`` keeps, in
    ascending order, with no term made: ties at a cap go to the smaller
    term by their codes.

    Terms below ``min_df`` documents are dropped first; if
    ``max_features`` is set, the survivors are ranked by total corpus
    term frequency (ties broken toward the lexicographically smaller
    term) and the top slice kept.
    """
    if not len(counts):
        raise ValueError("fit_vocabulary needs at least one stream")
    span = counts.span(config.range)
    numbers = span.start + np.flatnonzero(counts.df[span] >= config.min_df)
    cap = config.max_features
    if cap is not None and len(numbers) > cap:
        tf = counts.tf[numbers]
        threshold = np.partition(tf, len(tf) - cap)[len(tf) - cap]
        tied = np.flatnonzero(tf == threshold)
        slots = cap - int(np.count_nonzero(tf > threshold))
        by_term = np.lexsort(_code_rows(counts.key_space, numbers[tied]).T[::-1])[:slots]
        numbers = numbers[np.sort(np.concatenate([np.flatnonzero(tf > threshold), tied[by_term]]))]
    if not len(numbers):
        raise EmptyVocabulary(f"no term survived min_df={config.min_df}")
    return numbers


def fit_vocabulary(
    streams: Sequence[TokenStream] | NgramCounts, config: VectorizerConfig
) -> Vocabulary:
    """Fit a vocabulary over the given streams (or their shared counts):
    the terms of ``selected_columns``, indexed lexicographically, with
    their document frequencies and, for TF-IDF, their smooth idfs.
    """
    counts = _as_counts(streams, config.range.max_n)
    numbers = selected_columns(counts, config)
    rows = _code_rows(counts.key_space, numbers)
    order = np.lexsort(rows.T[::-1])
    terms = _spelled(counts.key_space.alphabet, rows[order])
    fitted_columns = numbers[order]
    document_frequency = counts.df[fitted_columns].tolist()
    corpus_size = len(counts)
    idf = None
    if config.weighting is Weighting.TFIDF:
        idf = _smooth_idfs(corpus_size, document_frequency)
    return Vocabulary.from_columns(
        config, terms, document_frequency, corpus_size, idf, (counts.key_space, fitted_columns)
    )


def _smooth_idfs(corpus_size: int, document_frequency: list[int]) -> list[float]:
    idf_of = {d: smooth_idf(corpus_size, d) for d in set(document_frequency)}
    return list(map(idf_of.__getitem__, document_frequency))


def with_weighting(vocab: Vocabulary, weighting: Weighting) -> Vocabulary:
    """The same fit under ``weighting``: the same terms, document
    frequencies and fitted columns (shared, not copied), with the smooth
    idf for TF-IDF."""
    if weighting is vocab.config.weighting:
        return vocab
    terms, df, _ = vocab.columns
    idf = _smooth_idfs(vocab.corpus_size, df) if weighting is Weighting.TFIDF else None
    return Vocabulary.from_columns(
        replace(vocab.config, weighting=weighting), terms, df, vocab.corpus_size, idf, vocab._keys
    )


# Entries gathered or weighed at a time, so that no temporary is the
# block's size.
_NORM_SLICE = 1 << 16


def _block(counts: NgramCounts, vocab: Vocabulary) -> CscMatrix:
    """One vocabulary's documents x terms occurrence counts, as float64
    CSC with each column's rows ascending: the vocabulary's columns of
    ``counts`` gathered in term order. The columns are its own when
    ``counts`` hold its key space, else those mapped by ``column_map``;
    a term these counts lack, or outside the block's lengths, gets the
    empty last one."""
    if vocab.key_space is counts.key_space:
        columns = vocab.fitted_columns
    else:
        columns = counts.column_map(vocab.key_space)[vocab.fitted_columns]
        span = counts.span(vocab.config.range)
        columns[(columns < span.start) | (columns >= span.stop)] = -1
    matrix = counts.matrix
    # column -1 reads the last column's bounds through both slices
    starts = matrix.indptr[:-1][columns]
    sizes = matrix.indptr[1:][columns] - starts
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=matrix.indices.dtype)
    # a run of columns of about _NORM_SLICE entries at a time, so that no
    # index array is the block's size
    cuts = np.searchsorted(indptr, np.arange(_NORM_SLICE, indptr[-1], _NORM_SLICE)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(columns)]):
        taken = np.repeat(starts[lo:hi] - indptr[lo:hi], sizes[lo:hi])
        taken += np.arange(indptr[lo], indptr[hi])
        data[indptr[lo] : indptr[hi]] = matrix.data[taken]
        indices[indptr[lo] : indptr[hi]] = matrix.indices[taken]
    return CscMatrix(data, indices, indptr, (matrix.shape[0], len(columns)))


def weigh(block: CscMatrix, vocab: Vocabulary) -> CscMatrix:
    """A count matrix of ``vocab``'s terms, weighted as ``vocab`` says: the
    counts themselves, or a new matrix of TF-IDF values with each row
    L2-normalized: its squares added one at a time in stored order, column
    by column, so left to right in term order."""
    if vocab.config.weighting is Weighting.COUNT:
        return block
    values = np.repeat(vocab.columns.idf, np.diff(block.indptr))
    values *= block.data
    rows = block.indices
    parts = [slice(start, start + _NORM_SLICE) for start in range(0, len(values), _NORM_SLICE)]
    squares = np.zeros(block.shape[0])
    for part in parts:
        np.add.at(squares, rows[part], np.square(values[part]))
    norms = np.sqrt(squares)
    for part in parts:
        values[part] /= norms[rows[part]]
    return CscMatrix(values, block.indices, block.indptr, block.shape)


def union_transform(
    streams: Sequence[TokenStream] | NgramCounts, vocabs: tuple[Vocabulary, ...]
) -> CscMatrix:
    """Vectorize the streams against each vocabulary block and
    concatenate the blocks column-wise: one row per stream.

    Count weighting stores raw occurrence counts; TF-IDF weighting
    multiplies counts by the term IDF and L2-normalizes each block's
    row. Unknown n-grams are ignored; a fully out-of-vocabulary stream
    becomes an empty row.
    """
    counts = _as_counts(streams, max(vocab.config.range.max_n for vocab in vocabs))
    blocks = [weigh(_block(counts, vocab), vocab) for vocab in vocabs]
    del counts, streams  # counts made here are freed before the blocks are joined
    return join_blocks(blocks)


def join_blocks(blocks: Sequence[CscMatrix]) -> CscMatrix:
    """The blocks side by side, in order: their columns concatenated."""
    if len(blocks) == 1:
        return blocks[0]
    offsets = np.cumsum([0, *(block.nnz for block in blocks)])
    return CscMatrix(
        np.concatenate([block.data for block in blocks]),
        np.concatenate([block.indices for block in blocks]),
        np.concatenate([[0], *(b.indptr[1:] + o for b, o in zip(blocks, offsets.tolist()))]),
        (blocks[0].shape[0], sum(block.shape[1] for block in blocks)),
    )


def transform(stream: TokenStream, vocab: Vocabulary) -> SparseVector:
    """Vectorize one stream against a fitted vocabulary (see
    ``union_transform``)."""
    row = union_transform([stream], (vocab,))
    return SparseVector(
        entries=tuple(zip(np.flatnonzero(np.diff(row.indptr)).tolist(), row.data.tolist())),
        dimension=vocab.dimension,
    )
