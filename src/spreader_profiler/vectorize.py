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

Counting is corpus-level (``NgramCounts``): the symbols of every
document are mapped to dense codes ``1..A`` in sorted order, and each
n-gram gets the exact integer key ``rank(its (n-1)-prefix) * (A + 1) +
code(its last symbol)``, where the rank is the prefix's position among
the corpus's distinct (n-1)-grams. Keys therefore sort like the terms
and stay below ``positions * (A + 1)`` for any alphabet. Each length's
distinct keys become its columns, and its per-document counts a CSR
matrix built in linear time: two counting sorts (occurrences by column,
then by document) leave every row's columns ascending, so repeats are
summed with no comparison sort. Vocabulary selection, weighting and
normalization are then column and row operations on those matrices,
and Python strings are made only for the terms a vocabulary keeps.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

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


class TermColumns(NamedTuple):
    """A vocabulary's terms in index order, with the document frequency
    and (for TF-IDF) the idf of each."""

    terms: list[str]
    df: list[int]
    idf: np.ndarray | None


@dataclass(frozen=True)
class Vocabulary:
    """A fitted term → index mapping plus the statistics behind it.

    ``columns`` holds the same statistics in index order. It is built
    from the dicts on first use, or handed over by ``from_columns``."""

    config: VectorizerConfig
    term_to_index: dict[str, int]
    document_frequency: dict[str, int]
    corpus_size: int
    idf: dict[str, float] | None = field(default=None)

    @classmethod
    def from_columns(
        cls,
        config: VectorizerConfig,
        terms: list[str],
        df: list[int],
        corpus_size: int,
        idf: list[float] | None,
    ) -> Vocabulary:
        """The vocabulary of distinct ``terms`` given in index order, with
        their document frequencies and idfs (``None`` for counts)."""
        vocab = cls(
            config=config,
            term_to_index=dict(zip(terms, range(len(terms)))),
            document_frequency=dict(zip(terms, df)),
            corpus_size=corpus_size,
            idf=None if idf is None else dict(zip(terms, idf)),
        )
        idf_column = None if idf is None else np.array(idf, dtype=np.float64)
        object.__setattr__(vocab, "columns", TermColumns(terms, df, idf_column))
        return vocab

    def __len__(self) -> int:
        return len(self.term_to_index)

    @property
    def dimension(self) -> int:
        return len(self.term_to_index)

    @cached_property
    def columns(self) -> TermColumns:
        """The terms in index order, with their df and idf; a ValueError
        unless the indices are exactly 0..n-1."""
        terms = sorted(self.term_to_index, key=self.term_to_index.__getitem__)
        if list(map(self.term_to_index.__getitem__, terms)) != list(range(len(terms))):
            raise ValueError(
                f"vocabulary indices are not exactly 0..{len(terms) - 1}, one per term"
            )
        idf = None
        if self.idf is not None:
            idf = np.fromiter(map(self.idf.__getitem__, terms), dtype=np.float64, count=len(terms))
        return TermColumns(terms, list(map(self.document_frequency.__getitem__, terms)), idf)

    def terms(self) -> list[str]:
        """Terms in index order (shared, not a copy)."""
        return self.columns.terms


# ----------------------------------------------------------------------
# Corpus-level counting.


@dataclass(frozen=True)
class _Level:
    """Every n-gram of one length n: ``keys`` sorted and distinct (column
    order), ``counts`` the documents x columns count matrix, ``tf`` and
    ``df`` its column sums and column supports, and ``where`` a start
    position of each column's n-gram in the concatenated symbols."""

    keys: np.ndarray
    counts: sp.csr_matrix
    tf: np.ndarray
    df: np.ndarray
    where: np.ndarray


class NgramCounts:
    """Exact per-document counts of every character n-gram of a list of
    token streams. The streams' joined texts are held as one array of
    dense symbol codes, and each n-gram length is counted once, on first
    use, so vocabularies and transforms that share one ``NgramCounts``
    share the counting."""

    def __init__(self, streams: Sequence[TokenStream]):
        documents = [stream.joined_text for stream in streams]
        sizes = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
        self.surface = "".join(documents)
        points = np.frombuffer(self.surface.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        self.alphabet, codes = np.unique(points, return_inverse=True)
        index = np.int32 if len(codes) < 2**31 else np.int64
        self.codes = codes.astype(index) + 1
        self.base = len(self.alphabet) + 1
        self.starts = np.cumsum(sizes) - sizes
        # symbols left in the document from each position onwards
        self.remaining = (np.repeat(self.starts + sizes, sizes) - np.arange(len(codes))).astype(index)
        self.levels: list[_Level] = []
        self._positions = np.arange(len(codes), dtype=index)
        self._ranks = np.zeros(len(codes), dtype=index)

    def __len__(self) -> int:
        return len(self.starts)

    def level(self, n: int) -> _Level:
        if n > len(self.levels) and self.codes is None:
            raise ValueError(f"n-grams of length {n} were not counted before settle()")
        while len(self.levels) < n:
            self._count_next_length()
        return self.levels[n - 1]

    def settle(self, configs: Iterable[VectorizerConfig]) -> None:
        """Count every length up to the longest the configs reach, then
        free the counting scratch (about four integers per symbol). Counts
        that outlive their fit (a grid search keeps one per split side)
        hold only the matrices; no longer length can follow."""
        self.level(max(config.range.max_n for config in configs))
        self.codes = self.remaining = self._positions = self._ranks = None

    def _count_next_length(self) -> None:
        n = len(self.levels) + 1
        alive = self.remaining[self._positions] >= n
        positions = self._positions[alive]
        keys = self._ranks[alive].astype(np.int64)
        del alive
        self._positions = self._ranks = None  # the next length needs only this one's
        keys *= self.base
        keys += self.codes[positions + (n - 1)]
        # keys, ranks = np.unique(keys, return_inverse=True), in less memory:
        # by marking the possible keys when they are fewer than the n-grams,
        # else by sorting
        bound = (len(self.levels[-1].keys) if self.levels else 1) * self.base
        if bound <= len(keys):
            present = np.zeros(bound, dtype=bool)
            present[keys] = True
            ranks = (np.cumsum(present, dtype=positions.dtype) - 1)[keys]
            keys = np.flatnonzero(present)
            del present
        else:
            order = np.argsort(keys)
            keys = keys[order]
            first = np.empty(len(keys), dtype=bool)
            first[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys[first]
            ranks = np.empty(len(positions), dtype=positions.dtype)
            ranks[order] = np.cumsum(first, dtype=positions.dtype) - 1
            del order, first
        # positions ascend, so each document's n-grams are contiguous. The
        # rows are unsorted and repeat columns; the round trip through CSC
        # sorts them by two counting passes (each column's rows, then each
        # row's columns, come out ascending), so summing the repeats needs
        # no per-row comparison sort.
        indptr = np.append(np.searchsorted(positions, self.starts), len(positions))
        counts = sp.csr_matrix(
            (np.ones(len(positions), dtype=np.int32), ranks, indptr),
            shape=(len(self.starts), len(keys)),
        ).tocsc()
        counts.sum_duplicates()
        counts = counts.tocsr()
        where = np.empty(len(keys), dtype=positions.dtype)
        where[ranks] = positions
        self.levels.append(
            _Level(
                keys=keys,
                counts=counts,
                tf=np.bincount(ranks, minlength=len(keys)),
                df=np.bincount(counts.indices, minlength=len(keys)),
                where=where,
            )
        )
        self._positions, self._ranks = positions, ranks

    def term(self, position: int, n: int) -> str:
        return self.surface[position : position + n]

    def columns(self, terms: list[str], n: int) -> np.ndarray:
        """Column of each length-n term in level ``n``, or -1 for a term
        this corpus does not contain: the terms are keyed exactly as the
        corpus was, one symbol at a time, and looked up per prefix."""
        points = np.frombuffer("".join(terms).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        found = np.searchsorted(self.alphabet, points)
        known = found < len(self.alphabet)
        known[known] = self.alphabet[found[known]] == points[known]
        codes = np.where(known, found + 1, 0).reshape(len(terms), n)
        ranks = np.zeros(len(terms), dtype=np.int64)
        hit = np.ones(len(terms), dtype=bool)
        for j in range(n):
            level_keys = self.level(j + 1).keys
            keys = ranks * self.base + codes[:, j]
            ranks = np.searchsorted(level_keys, keys)
            inside = ranks < len(level_keys)
            hit &= inside
            hit[hit] = level_keys[ranks[hit]] == keys[hit]
            ranks[~hit] = 0
        return np.where(hit, ranks, -1)


def _as_counts(streams: Sequence[TokenStream] | NgramCounts) -> NgramCounts:
    return streams if isinstance(streams, NgramCounts) else NgramCounts(streams)


def extract_char_ngrams(text: str, ngram_range: NgramRange) -> Counter:
    """Count every contiguous codepoint n-gram of the configured lengths."""
    counts = NgramCounts([TokenStream("text", (text,))])
    found: Counter = Counter()
    for n in range(ngram_range.min_n, ngram_range.max_n + 1):
        level = counts.level(n)
        found.update({counts.term(p, n): c for p, c in zip(level.where.tolist(), level.tf.tolist())})
    return found


def smooth_idf(corpus_size: int, df: int) -> float:
    return math.log((1 + corpus_size) / (1 + df)) + 1.0


def fit_vocabulary(
    streams: Sequence[TokenStream] | NgramCounts, config: VectorizerConfig
) -> Vocabulary:
    """Fit a vocabulary over the given streams (or their shared counts).

    Terms below ``min_df`` documents are dropped first; if
    ``max_features`` is set, the survivors are ranked by total corpus
    term frequency (ties broken toward the lexicographically smaller
    term) and the top slice kept. Indices run lexicographically.
    """
    counts = _as_counts(streams)
    if not len(counts):
        raise ValueError("fit_vocabulary needs at least one stream")
    lengths, where, tf, df = [], [], [], []
    for n in range(config.range.min_n, config.range.max_n + 1):
        level = counts.level(n)
        columns = np.flatnonzero(level.df >= config.min_df)
        lengths.append(np.full(len(columns), n))
        where.append(level.where[columns])
        tf.append(level.tf[columns])
        df.append(level.df[columns])
    lengths, where, tf, df = (np.concatenate(a) for a in (lengths, where, tf, df))

    kept = np.arange(len(tf))
    cap = config.max_features
    if cap is not None and len(kept) > cap:
        threshold = np.partition(tf, len(tf) - cap)[len(tf) - cap]
        tied = np.flatnonzero(tf == threshold)
        tied_terms = [counts.term(p, n) for p, n in zip(where[tied].tolist(), lengths[tied].tolist())]
        slots = cap - int(np.count_nonzero(tf > threshold))
        by_term = sorted(range(len(tied)), key=tied_terms.__getitem__)[:slots]
        kept = np.sort(np.concatenate([np.flatnonzero(tf > threshold), tied[by_term]]))
    if not len(kept):
        raise EmptyVocabulary(f"no term survived min_df={config.min_df}")

    found = list(map(counts.term, where[kept].tolist(), lengths[kept].tolist()))
    order = sorted(range(len(found)), key=found.__getitem__)
    terms = list(map(found.__getitem__, order))
    document_frequency = df[kept][order].tolist()
    corpus_size = len(counts)
    idf = None
    if config.weighting is Weighting.TFIDF:
        idf_of = {d: smooth_idf(corpus_size, d) for d in set(document_frequency)}
        idf = list(map(idf_of.__getitem__, document_frequency))
    return Vocabulary.from_columns(config, terms, document_frequency, corpus_size, idf)


def _block(counts: NgramCounts, vocab: Vocabulary) -> sp.csr_matrix:
    """One vocabulary's documents x terms matrix, weighted."""
    config = vocab.config
    terms = vocab.terms()
    term_lengths = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
    block = sp.csr_matrix((len(counts), len(terms)))
    for n in range(config.range.min_n, config.range.max_n + 1):
        wanted = np.flatnonzero(term_lengths == n)
        if not len(wanted):
            continue
        found = counts.columns([terms[i] for i in wanted.tolist()], n)
        level = counts.level(n)
        to_term = np.full(len(level.keys), -1, dtype=np.int32)
        to_term[found[found >= 0]] = wanted[found >= 0]
        mapped = to_term[level.counts.indices]
        hit = mapped >= 0
        indptr = np.concatenate([[0], np.cumsum(hit)])[level.counts.indptr]
        block = block + sp.csr_matrix(
            (level.counts.data[hit], mapped[hit], indptr), shape=block.shape
        )
    block.sort_indices()
    if config.weighting is Weighting.TFIDF:
        values = block.data * vocab.columns.idf[block.indices]
        squares = values * values
        for start, end in zip(block.indptr[:-1].tolist(), block.indptr[1:].tolist()):
            if end > start:
                # summed in index order, one term at a time
                values[start:end] /= math.sqrt(sum(squares[start:end].tolist()))
        block.data = values
    return block


def union_transform(
    streams: Sequence[TokenStream] | NgramCounts, vocabs: tuple[Vocabulary, ...]
) -> sp.csr_matrix:
    """Vectorize the streams against each vocabulary block and
    concatenate the blocks column-wise: one row per stream.

    Count weighting stores raw occurrence counts; TF-IDF weighting
    multiplies counts by the term IDF and L2-normalizes each block's
    row. Unknown n-grams are ignored; a fully out-of-vocabulary stream
    becomes an empty row.
    """
    counts = _as_counts(streams)
    blocks = [_block(counts, vocab) for vocab in vocabs]
    return blocks[0] if len(blocks) == 1 else sp.hstack(blocks, format="csr")


def transform(stream: TokenStream, vocab: Vocabulary) -> SparseVector:
    """Vectorize one stream against a fitted vocabulary (see
    ``union_transform``)."""
    row = union_transform([stream], (vocab,))
    return SparseVector(
        entries=tuple(zip(row.indices.tolist(), row.data.tolist())), dimension=vocab.dimension
    )
