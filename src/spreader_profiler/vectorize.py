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
every vocabulary holds its terms only as a ``KeySpace`` and their
columns in it, those of the counts it was fitted on or, for any other,
of its own terms' prefixes, keyed when it is built. A transform takes
them as they are on the counts the key space came from, and on others
maps them through those counts' ``column_map``, which re-keys every key
of that space into theirs. CSC is the one layout from the counts to the
scores, held in the package's own ``CscMatrix`` of numpy arrays rather
than scipy's, whose import would cost every command more than its work
at bench scale. Terms are spelled from their keys only when something
reads them (``Vocabulary.terms()``, its dicts, ``==``, or a model
file's writer), so fitting, transforming and scoring make no string.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property

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


class Vocabulary:
    """A fitted term → index mapping plus the statistics behind it.

    A vocabulary holds its config, its corpus size, ``df`` (the document
    frequency of each term in index order, an int64 array), ``idf_column``
    (the idf of each, a float64 array, or ``None`` for counts) and its
    terms as keys alone: ``key_space``, a ``KeySpace``, and
    ``fitted_columns``, each term's column in it, by which a transform
    finds its columns. A fitted vocabulary has those of the
    ``NgramCounts`` it was fitted on, shared with the counts and outliving
    them (8 bytes for every distinct n-gram of every counted length, and 4
    for every symbol); any other, those of its own terms' prefixes, made
    when it is built. Neither is part of its value.

    Built from the dicts, it copies them into columns at once, and refuses
    indices other than exactly 0..n-1 in ascending term order and
    statistics of other terms than the indexed ones; ``from_columns``
    takes the columns as they are, but refuses an idf that contradicts the
    weighting and terms that do not strictly ascend. The terms are spelled
    from their keys the first time something reads them: ``terms()``, a
    dict (``term_to_index``, ``document_frequency``, ``idf``) or ``==``;
    a model file's writer spells them a chunk at a time and keeps none.
    Fitting, transforming and scoring spell none. A vocabulary is
    immutable, and its value is its config, terms, their statistics and
    corpus size."""

    config: VectorizerConfig
    corpus_size: int
    df: np.ndarray
    idf_column: np.ndarray | None
    key_space: KeySpace
    fitted_columns: np.ndarray

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
        terms: Sequence[str] | None,
        df: Sequence[int],
        corpus_size: int,
        idf: Sequence[float] | None,
        keys: tuple[KeySpace, np.ndarray] | None = None,
    ) -> Vocabulary:
        """The vocabulary of ``terms``, ascending, in index order, with
        their document frequencies and their idfs (``None`` for counts).
        The terms are keyed by their prefixes at once, which refuses them
        unless they strictly ascend (see ``spelled_key_space``), and are
        not kept. A fit or a model file's reader gives ``keys`` instead,
        a key space and each term's column in it, and ``None`` for the
        terms: a fit orders its terms as it selects them, and the reader
        checks their order as it keys them."""
        if (idf is None) != (config.weighting is Weighting.COUNT):
            raise ValueError("a count vocabulary holds no idf" if idf is not None
                             else "a TF-IDF vocabulary needs the idf of each term")
        key_space, fitted_columns = _term_key_space(terms) if keys is None else keys
        vocab = cls.__new__(cls)
        vars(vocab).update(
            config=config, corpus_size=corpus_size, df=np.asarray(df, dtype=np.int64),
            idf_column=None if idf is None else np.asarray(idf, dtype=np.float64),
            key_space=key_space, fitted_columns=fitted_columns,
        )
        return vocab

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def _value(self) -> tuple:
        idf = None if self.idf_column is None else self.idf_column.tolist()
        return self.config, self.corpus_size, self._terms, self.df.tolist(), idf

    def __repr__(self) -> str:
        return (
            f"Vocabulary(config={self.config!r}, terms={len(self)}, corpus_size={self.corpus_size})"
        )

    def __len__(self) -> int:
        return len(self.df)

    @property
    def dimension(self) -> int:
        return len(self)

    @cached_property
    def _terms(self) -> list[str]:
        return [term for chunk in spelled_chunks(self.key_space, self.fitted_columns)
                for term in chunk]

    @cached_property
    def term_to_index(self) -> dict[str, int]:
        return dict(zip(self._terms, range(len(self))))

    @cached_property
    def document_frequency(self) -> dict[str, int]:
        return dict(zip(self._terms, self.df.tolist()))

    @cached_property
    def idf(self) -> dict[str, float] | None:
        idf = self.idf_column
        return None if idf is None else dict(zip(self._terms, idf.tolist()))

    def terms(self) -> list[str]:
        """Terms in index order (shared, not a copy)."""
        return self._terms


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


def _points(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _coded(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct code points of ``points``, sorted, and the code
    ``1..A`` of each point, from a table over the points (at most 0x110000
    of them) in the narrowest type that holds ``A``."""
    present = np.zeros(int(points.max(initial=0)) + 1, dtype=bool)
    present[points] = True
    table = np.cumsum(present, dtype=np.min_scalar_type(np.count_nonzero(present)))
    return np.flatnonzero(present).astype(np.uint32), table[points]


def _term_key_space(terms: Sequence[str]) -> tuple[KeySpace, np.ndarray]:
    """The key space of the prefixes of ``terms``, which must strictly
    ascend, and each term's column in it (see ``spelled_key_space``)."""
    lengths = np.fromiter(map(len, terms), dtype=np.int64, count=len(terms))
    return spelled_key_space(_points("\n".join([*terms, ""])), lengths)


def spelled_key_space(points: np.ndarray, lengths: np.ndarray) -> tuple[KeySpace, np.ndarray]:
    """The key space of the prefixes of the terms that ``points`` spells,
    keyed as ``NgramCounts`` keys a corpus's n-grams, and each term's
    column in it: the column of its key at its own length, or -1 for the
    empty term, which has none. ``points`` holds the code points of each
    term, ``lengths`` of them, and one more that is not read.

    A length is keyed over every term at once, in index order, as ``rank
    of the prefix * (largest point + 1) + point``, which orders and ties
    keys as the codes do; a term too short for it gets the key -1 and no
    rank. Each run of equal keys is one prefix, ranked in order. The
    alphabet is then the points that end some prefix, and each distinct
    key is coded.

    The terms must strictly ascend, else ``ValueError`` names the first
    that does not, as ``vocabulary term p is out of order``. Term p is
    not above term p - 1 exactly when p > 0 is empty, or at some length
    that both reach, p's key is below p - 1's, or equal to it where p
    ends: a key compares points only within a run, where the prefixes are
    equal, as the code rows padded with 0 compare."""
    count = len(lengths)
    reach = int(points.max(initial=0)) + 1
    # positions in 32 bits where they fit, to save load memory; ranks are
    # int64, as rank * reach may pass 2**31
    index = np.int32 if len(points) < 2**31 else np.int64
    at = np.cumsum(lengths + 1, dtype=index)  # where each term's point of this length is
    at -= lengths + 1
    # the terms by length (a radix sort in the narrowest type), and where
    # those of each length end
    by_length = np.argsort(lengths.astype(np.min_scalar_type(lengths.max(initial=0))),
                           kind="stable").astype(index)
    ends = np.cumsum(np.bincount(lengths, minlength=1)).tolist()
    ranks = np.zeros(count, dtype=np.int64)  # of each term's prefix so far
    columns = np.full(count, -1, dtype=np.int64)
    level_keys = []
    # the first term at fault found at each length, after the first empty
    # term past term 0
    late = [np.flatnonzero(lengths[1:] == 0)[:1] + 1]
    for n in range(1, len(ends)):
        keys = ranks * reach
        keys += points.take(at, mode="clip")
        keys[by_length[: ends[n - 1]]] = -1
        step = np.empty(count, dtype=bool)
        step[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=step[1:])
        step &= keys >= 0
        np.cumsum(step, out=ranks)
        ranks -= 1
        late.append(np.flatnonzero(
            (keys[:-1] > keys[1:]) & (keys[1:] >= 0) | ~step[1:] & (lengths[1:] == n)
        )[:1] + 1)
        ending = by_length[ends[n - 1] : ends[n]]
        columns[ending] = ranks[ending] + sum(map(len, level_keys))
        level_keys.append(keys[step])
        at += 1
    if any(map(len, late)):
        raise ValueError(f"vocabulary term {int(np.concatenate(late).min())} is out of order")
    del at, by_length, ranks
    first = np.cumsum([0, *map(len, level_keys)])
    keys = np.concatenate([np.zeros(0, np.int64), *level_keys])
    alphabet, codes = _coded(keys % reach)
    keys //= reach
    keys *= len(alphabet) + 1
    keys += codes
    level_keys = [keys[lo:hi] for lo, hi in zip(first[:-1], first[1:])]
    return KeySpace(alphabet, len(alphabet) + 1, level_keys, first), columns


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
        alphabet, codes = _coded(_points("".join(documents)))
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
                if n < max_n:  # no later length reads the last one's ranks
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
        return [term for chunk in spelled_chunks(self.key_space, columns) for term in chunk]

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


# Terms spelled at a time, so that no temporary is the vocabulary's size.
_SPELL_CHUNK = 4096


def spelled_chunks(space: KeySpace, columns: np.ndarray, size: int = _SPELL_CHUNK):
    """The n-grams of ``columns`` of ``space``, in the order given, as
    lists of at most ``size``: the code rows of the distinct columns are
    decoded from their keys once, and spelled a list at a time. Column -1
    spells the empty term."""
    distinct, at = np.unique(columns, return_inverse=True)
    rows = _code_rows(space, distinct)
    return (_spelled(space.alphabet, rows[at[lo : lo + size]]) for lo in range(0, len(at), size))


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
    the terms of ``selected_columns``, indexed lexicographically by their
    code rows, with their document frequencies and, for TF-IDF, their
    smooth idfs. It keeps the terms as their columns and spells none.
    """
    counts = _as_counts(streams, config.range.max_n)
    numbers = selected_columns(counts, config)
    fitted_columns = numbers[np.lexsort(_code_rows(counts.key_space, numbers).T[::-1])]
    df = counts.df[fitted_columns]
    corpus_size = len(counts)
    idf = None
    if config.weighting is Weighting.TFIDF:
        idf = _smooth_idfs(corpus_size, df)
    return Vocabulary.from_columns(
        config, None, df, corpus_size, idf, (counts.key_space, fitted_columns)
    )


def _smooth_idfs(corpus_size: int, df: np.ndarray) -> np.ndarray:
    """The smooth idf of each document frequency, computed once per
    distinct one."""
    distinct, at = np.unique(df, return_inverse=True)
    return np.array([smooth_idf(corpus_size, d) for d in distinct.tolist()])[at]


def with_weighting(vocab: Vocabulary, weighting: Weighting) -> Vocabulary:
    """The same fit under ``weighting``: the same document frequencies,
    key space and fitted columns (shared, not copied), with the smooth
    idf for TF-IDF."""
    if weighting is vocab.config.weighting:
        return vocab
    idf = _smooth_idfs(vocab.corpus_size, vocab.df) if weighting is Weighting.TFIDF else None
    return Vocabulary.from_columns(replace(vocab.config, weighting=weighting), None, vocab.df,
                                   vocab.corpus_size, idf, (vocab.key_space, vocab.fitted_columns))


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
    values = np.repeat(vocab.idf_column, np.diff(block.indptr))
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
