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
``positions * (A + 1)`` for any alphabet. Each length's distinct keys
become its columns, ranked by a table marking the keys that occur when
the possible keys are no more than the n-grams, else by one value sort
of each key packed above its position (an ``argsort`` when the two do
not share 63 bits); the columns of every length are numbered in one
sequence, length 1's first. The per-document counts are one CSC matrix
over all of them. Each occurrence becomes the code ``column * documents
+ row`` of its cell, and the codes are sorted: the key sort leaves them
so, since it keeps ties in position order, and after marking one value
sort does. A cell's repeats are then one run, and the run's length is
its count. A vocabulary is a set of those columns: fitting selects from
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
    are, but refuses an idf that contradicts the weighting. Each dict
    (``term_to_index``, ``document_frequency``, ``idf``) is derived the
    first time it is read, so scoring with a loaded model builds none.
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
        optionally their ``keys``: a key space and their columns in it."""
        if (idf is None) != (config.weighting is Weighting.COUNT):
            raise ValueError("a count vocabulary holds no idf" if idf is not None
                             else "a TF-IDF vocabulary needs the idf of each term")
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
    contain. ``tf`` and ``df`` are the column sums and column supports,
    and ``where`` a start position of each column's n-gram in
    ``surface``. ``key_space`` holds the alphabet, each length's keys and
    ``first``, and outlives the counts in the vocabularies fitted on
    them; ``column_maps`` keeps the ``column_map`` of each other key
    space these counts were asked for. The counting scratch (about five
    integers per symbol) is freed before the constructor returns."""

    def __init__(self, streams: Sequence[TokenStream], max_n: int):
        documents = [stream.joined_text for stream in streams]
        sizes = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
        self.surface = "".join(documents)
        alphabet, codes = _coded(self.surface)
        del documents  # counting needs only the codes
        index = np.int32 if len(codes) < 2**31 else np.int64
        base = len(alphabet) + 1
        starts = np.cumsum(sizes) - sizes
        # symbols left in the document from each position onwards
        remaining = (np.repeat(starts + sizes, sizes) - np.arange(len(codes))).astype(index)
        levels, tf, where, level_keys = [], [], [], []
        positions = np.arange(len(codes), dtype=index)
        rows = np.repeat(np.arange(len(sizes), dtype=index), sizes)  # each position's document
        ranks = np.zeros(len(codes), dtype=index)
        for n in range(1, max_n + 1):
            alive = remaining[positions] >= n
            positions, rows = positions[alive], rows[alive]
            keys = ranks[alive].astype(np.int64)
            del alive, ranks  # the previous length's, freed before this one's are made
            keys *= base
            keys += codes[positions + (n - 1)]
            # keys, ranks = np.unique(keys, return_inverse=True), in less
            # memory: by marking the possible keys when they are fewer than
            # the n-grams, else by sorting. Either way, ``cells`` ends up
            # holding each n-gram's rank * documents + row, sorted, in the
            # narrower integer that holds every such code.
            bound = (len(level_keys[-1]) if level_keys else 1) * base
            cell = np.int32 if min(bound, len(keys)) * len(sizes) < 2**31 else np.int64
            if bound <= len(keys):
                present = np.zeros(bound, dtype=bool)
                present[keys] = True
                ranks = (np.cumsum(present, dtype=index) - 1)[keys]
                keys = np.flatnonzero(present)
                del present
                cells = ranks.astype(cell)
                cells *= len(sizes)
                cells += rows
                cells.sort()
            else:
                # sorted by key and then by position, so by row
                keys, order = _sorted_with_order(keys)
                starts = _run_starts(keys)
                cells = np.repeat(np.arange(len(starts), dtype=cell),
                                  np.diff(starts, append=len(keys)))
                keys = keys[starts]
                ranks = np.empty(len(positions), dtype=index)
                ranks[order] = cells
                cells *= len(sizes)
                cells += rows[order]
                del order, starts
            levels.append(_count_cells(cells, len(sizes), len(keys), index))
            tf.append(np.bincount(ranks, minlength=len(keys)))
            where.append(np.empty(len(keys), dtype=index))
            where[-1][ranks] = positions
            level_keys.append(keys)
        del codes, remaining, positions, rows, ranks, keys, cells  # before the copy below
        empty = np.zeros(0, dtype=np.int32)
        levels.append(CscMatrix(empty, empty.astype(index), np.zeros(2, dtype=np.int64),
                                (len(sizes), 1)))
        self.matrix = join_blocks(levels)
        self.tf, self.where = np.concatenate(tf), np.concatenate(where)
        self.df = np.diff(self.matrix.indptr[:-1])
        self.key_space = KeySpace(alphabet, base, level_keys, np.cumsum([0, *map(len, level_keys)]))
        self.column_maps: dict[KeySpace, np.ndarray] = {}

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def span(self, ngram_range: NgramRange) -> slice:
        """The columns of the lengths ``ngram_range`` covers."""
        n, first = ngram_range.max_n, self.key_space.first
        if n >= len(first):
            raise ValueError(f"n-grams of length {n} were not counted (max_n={len(first) - 1})")
        return slice(int(first[ngram_range.min_n - 1]), int(first[n]))

    def terms(self, columns: np.ndarray) -> list[str]:
        """The n-gram of each column."""
        lengths = np.searchsorted(self.key_space.first, columns, side="right")
        surface = self.surface
        return [surface[p : p + n] for p, n in zip(self.where[columns].tolist(), lengths.tolist())]

    def column_map(self, source: KeySpace) -> np.ndarray:
        """The column of these counts that holds each column's n-gram of
        the key space ``source``, or -1 for an n-gram these counts do not
        contain, and -1 last, for column -1. Made once per key space and
        kept in ``column_maps``."""
        found = self.column_maps.get(source)
        if found is None:
            found = self.column_maps[source] = _column_map(source, self.key_space)
        return found


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


def _sorted_with_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys[order], order`` for an ``order`` that sorts the non-negative
    int64 ``keys``, which it may overwrite, with ties in their order. Each
    key is packed above its position into one int64, so one value sort
    gives both; keys too large to share the bits are arg-sorted."""
    shift = max(len(keys) - 1, 0).bit_length()
    if int(keys.max(initial=0)).bit_length() + shift > _KEY_BITS:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    keys <<= shift
    keys |= np.arange(len(keys))
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return keys, order


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
    data = np.diff(starts, append=len(cells)).astype(np.int32)
    columns, rows = np.divmod(cells[starts], n_rows)
    del starts  # before the arrays of the matrix are made
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
    ascending order, with no term made but those tied at a cap.

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
        tied_terms = counts.terms(numbers[tied])
        slots = cap - int(np.count_nonzero(tf > threshold))
        by_term = sorted(range(len(tied)), key=tied_terms.__getitem__)[:slots]
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
    found = counts.terms(numbers)
    order = sorted(range(len(found)), key=found.__getitem__)
    terms = list(map(found.__getitem__, order))
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
    taken = np.repeat(starts - indptr[:-1], sizes)
    taken += np.arange(len(taken))
    return CscMatrix(matrix.data[taken].astype(np.float64), matrix.indices[taken], indptr,
                     (matrix.shape[0], len(columns)))


# Entries weighed at a time, so that no temporary is the block's size.
_NORM_SLICE = 1 << 16


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
    return join_blocks([weigh(_block(counts, vocab), vocab) for vocab in vocabs])


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
