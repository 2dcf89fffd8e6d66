import gc
import math
import random
import tracemalloc
import warnings
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler import vectorize
from spreader_profiler.corpus import Corpus, Label, Language
from spreader_profiler.errors import EmptyVocabulary
from spreader_profiler.models import LinearModel, ModelKind, decision_values, load_model, save_model
from spreader_profiler.preprocess import TokenStream, load_stopwords, preprocess_corpus
from spreader_profiler.synth import synth_author
from spreader_profiler.vectorize import (
    Analyzer,
    CscMatrix,
    NgramCounts,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    extract_char_ngrams,
    fit_vocabulary,
    join_blocks,
    selected_columns,
    smooth_idf,
    transform,
    union_transform,
    weigh,
)

from conftest import csc_matrices, scipy_csc
from oracles import brute_char_ngrams, brute_fit, brute_transform, dense_from_sparse


def stream_of(text: str, author_id: str = "a1") -> TokenStream:
    """A stream whose joined_text is exactly `text`."""
    return TokenStream(author_id=author_id, tokens=tuple(text.split(" ")) if text else ())


class TestExtractCharNgrams:
    def test_loot_1_3(self):
        counts = extract_char_ngrams("loot", NgramRange(1, 3))
        assert dict(counts) == {
            "l": 1, "o": 2, "t": 1,
            "lo": 1, "oo": 1, "ot": 1,
            "loo": 1, "oot": 1,
        }

    def test_empty_text(self):
        assert extract_char_ngrams("", NgramRange(1, 3)) == {}

    def test_spaces_participate(self):
        counts = extract_char_ngrams("ab cd", NgramRange(2, 2))
        assert dict(counts) == {"ab": 1, "b ": 1, " c": 1, "cd": 1}

    def test_text_shorter_than_n(self):
        assert dict(extract_char_ngrams("ab", NgramRange(3, 5))) == {}


class TestNgramRangeValidation:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            NgramRange(0, 2)
        with pytest.raises(ValueError):
            NgramRange(3, 2)
        with pytest.raises(ValueError):
            NgramRange(1, 17)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VectorizerConfig(max_features=0)
        with pytest.raises(ValueError):
            VectorizerConfig(min_df=0)


def char_config(min_n=1, max_n=1, max_features=None, min_df=1, weighting=Weighting.TFIDF):
    return VectorizerConfig(
        analyzer=Analyzer.CHAR,
        range=NgramRange(min_n, max_n),
        max_features=max_features,
        min_df=min_df,
        weighting=weighting,
    )


class TestFitVocabulary:
    def test_two_doc_idf(self):
        vocab = fit_vocabulary([stream_of("ab"), stream_of("aa")], char_config())
        assert vocab.term_to_index == {"a": 0, "b": 1}
        assert vocab.document_frequency == {"a": 2, "b": 1}
        assert vocab.idf["a"] == pytest.approx(1.0)
        assert vocab.idf["b"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
        assert vocab.idf["b"] == pytest.approx(1.405465, abs=1e-6)

    def test_min_df_two(self):
        vocab = fit_vocabulary([stream_of("ab"), stream_of("aa")], char_config(min_df=2))
        assert vocab.term_to_index == {"a": 0}

    def test_max_features_tie_breaks_lexicographically(self):
        # tf(a) == tf(b) == 2; the smaller term wins the single slot
        vocab = fit_vocabulary(
            [stream_of("aab"), stream_of("b")], char_config(max_features=1)
        )
        assert vocab.term_to_index == {"a": 0}

    def test_all_filtered_is_an_error(self):
        with pytest.raises(EmptyVocabulary):
            fit_vocabulary([stream_of("ab")], char_config(min_df=5))

    def test_indices_lexicographic_and_dense(self):
        vocab = fit_vocabulary([stream_of("cba bac")], char_config())
        terms = vocab.terms()
        assert terms == sorted(terms)
        assert sorted(vocab.term_to_index.values()) == list(range(len(vocab)))

    def test_columns_follow_the_dicts(self):
        fitted = fit_vocabulary(
            [stream_of("cab ba"), stream_of("ab c"), stream_of("b")], char_config(1, 2)
        )
        rebuilt = Vocabulary(
            config=fitted.config,
            term_to_index=dict(reversed(fitted.term_to_index.items())),
            document_frequency=fitted.document_frequency,
            corpus_size=fitted.corpus_size,
            idf=fitted.idf,
        )
        terms, df, idf = rebuilt.columns
        assert terms == fitted.terms() == sorted(fitted.term_to_index)
        assert df == fitted.columns.df == [fitted.document_frequency[t] for t in terms]
        assert idf.tolist() == fitted.columns.idf.tolist() == [fitted.idf[t] for t in terms]

    @pytest.mark.parametrize("weighting", [Weighting.TFIDF, Weighting.COUNT])
    def test_dicts_of_a_vocabulary_from_columns_are_built_on_first_read(self, weighting):
        docs = ["cab ba", "ab c", "b"]
        config = char_config(1, 2, weighting=weighting)
        index, df, idf = brute_fit(docs, 1, 2, tfidf=weighting is Weighting.TFIDF)
        lazy = fit_vocabulary([stream_of(text) for text in docs], config)
        assert len(lazy) == lazy.dimension == len(index)
        assert not {"term_to_index", "document_frequency", "idf"} & set(vars(lazy))
        built = Vocabulary(config=config, term_to_index=index, document_frequency=df,
                           corpus_size=3, idf=idf)
        assert len(built) == built.dimension == len(index)
        assert lazy == built and built == lazy
        assert lazy.term_to_index == index and lazy.document_frequency == df and lazy.idf == idf
        assert lazy.terms() == built.terms() and lazy.columns.df == built.columns.df
        assert (lazy.columns.idf is None) == (idf is None)
        if idf is not None:
            assert lazy.columns.idf.tolist() == built.columns.idf.tolist()
        assert lazy != Vocabulary(config=config, term_to_index=index, document_frequency=df,
                                  corpus_size=4, idf=idf)
        with pytest.raises(AttributeError):
            lazy.corpus_size = 4

    def test_scoring_with_a_loaded_model_builds_no_dict(self, tmp_path):
        streams = [stream_of(text) for text in ("cab ba", "ab c", "b")]
        vocabs = (
            fit_vocabulary(streams, char_config(1, 3)),
            fit_vocabulary(streams, char_config(3, 5, weighting=Weighting.COUNT)),
        )
        width = sum(map(len, vocabs))
        model = LinearModel(ModelKind.SVM, np.linspace(-1, 1, width), 0.5, vocabs, Language.ES)
        save_model(model, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        scored = [stream_of("abc cab"), stream_of("zz")]
        assert decision_values(loaded, scored).tolist() == decision_values(model, scored).tolist()
        for vocab in loaded.feature_spec:
            assert not {"term_to_index", "document_frequency", "idf"} & set(vars(vocab))
        assert loaded.feature_spec == vocabs

    @pytest.mark.parametrize(
        "term_to_index", [{"a": 0, "b": 0}, {"a": 0, "b": 2}, {"a": 1, "b": 2}, {"a": -1, "b": 0}]
    )
    def test_indices_other_than_0_to_n_are_refused(self, term_to_index):
        # refused at construction, so no such vocabulary reaches terms() or save_model
        with pytest.raises(ValueError, match="indices are not exactly 0..1"):
            Vocabulary(
                config=char_config(weighting=Weighting.COUNT),
                term_to_index=term_to_index,
                document_frequency={"a": 1, "b": 1},
                corpus_size=1,
            )

    @pytest.mark.parametrize(
        "df, idf, message",
        [
            ({"b": 1}, {"a": 1.0, "b": 1.0}, r"^document_frequency .* missing \['a'\], extra \[\]"),
            ({"a": 1, "b": 1, "zz": 3}, None, r"^document_frequency .* \[\], extra \['zz'\]"),
            ({"a": 1, "b": 1}, {"a": 1.0, "q": 2.0}, r"idf .* missing \['b'\], extra \['q'\]"),
        ],
    )
    def test_statistics_of_other_terms_are_refused(self, df, idf, message):
        with pytest.raises(ValueError, match=message):
            Vocabulary(char_config(), {"a": 0, "b": 1}, df, 2, idf=idf)

    def test_an_index_order_other_than_term_order_is_refused(self):
        # save_model would write it, and load_model refuse the file
        with pytest.raises(ValueError, match="one per term in ascending term order"):
            Vocabulary(char_config(weighting=Weighting.COUNT), {"b": 0, "a": 1},
                       {"a": 1, "b": 1}, 1)

    @pytest.mark.parametrize("terms, position", [(["b", "a", "a"], 1), (["a", "b", "b"], 2),
                                                 (["a", "\U0001f600", "\ud800"], 2)])
    def test_terms_given_out_of_order_are_refused(self, terms, position):
        # save_model would write them, and load_model refuse the file; a
        # lone surrogate is below an astral symbol, as its code point is
        config = char_config(weighting=Weighting.COUNT)
        with pytest.raises(ValueError, match=f"vocabulary term {position} is out of order"):
            Vocabulary.from_columns(config, terms, [1] * len(terms), 1, None)

    @pytest.mark.parametrize(
        "weighting, idf, message",
        [
            (Weighting.COUNT, [1.0, 1.5], "a count vocabulary holds no idf"),
            (Weighting.TFIDF, None, "a TF-IDF vocabulary needs the idf of each term"),
        ],
    )
    def test_an_idf_that_contradicts_the_weighting_is_refused(self, weighting, idf, message):
        # save_model would write either, and load_model refuse the file
        config = char_config(weighting=weighting)
        with pytest.raises(ValueError, match=message):
            Vocabulary.from_columns(config, ["a", "b"], [1, 1], 2, idf)
        with pytest.raises(ValueError, match=message):
            Vocabulary(config, {"a": 0, "b": 1}, {"a": 1, "b": 1}, 2,
                       idf=None if idf is None else dict(zip("ab", idf)))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_a_vocabulary_built_from_dicts_is_a_value(self, read_first):
        index, df, idf = {"b": 1, "a": 0}, {"a": 2, "b": 1}, {"a": 1.0, "b": 1.5}
        vocab = Vocabulary(config=char_config(), term_to_index=index, document_frequency=df,
                           corpus_size=2, idf=idf)
        twin = Vocabulary(config=char_config(), term_to_index=dict(index),
                          document_frequency=dict(df), corpus_size=2, idf=dict(idf))
        if read_first:
            assert vocab.terms() == ["a", "b"]
        index["c"], df["c"], idf["c"] = 2, 1, 1.5
        index["a"], df["a"], idf["a"] = 5, 9, 9.0
        assert not {id(index), id(df), id(idf)} & set(map(id, vars(vocab).values()))
        assert len(vocab) == vocab.dimension == 2
        assert vocab.terms() == ["a", "b"]
        assert vocab.term_to_index == {"a": 0, "b": 1}
        assert vocab.document_frequency == {"a": 2, "b": 1}
        assert vocab.idf == {"a": 1.0, "b": 1.5}
        assert vocab == twin and twin == vocab

    def test_idf_bounds(self):
        vocab = fit_vocabulary(
            [stream_of("ab"), stream_of("ba"), stream_of("b")], char_config()
        )
        for term, value in vocab.idf.items():
            assert value >= 1.0
            if vocab.document_frequency[term] == vocab.corpus_size:
                assert value == pytest.approx(1.0)

    def test_monotonicity_min_df_and_max_features(self):
        streams = [stream_of(t) for t in ("abc ab", "bcd bc", "abd", "dd a")]

        def size_at_min_df(k):
            try:
                return len(fit_vocabulary(streams, char_config(1, 2, min_df=k)))
            except EmptyVocabulary:
                return 0

        sizes_by_min_df = [size_at_min_df(k) for k in (1, 2, 3, 4, 5)]
        assert sizes_by_min_df == sorted(sizes_by_min_df, reverse=True)
        sizes_by_cap = [
            len(fit_vocabulary(streams, char_config(1, 2, max_features=k)))
            for k in (1, 3, 8, 100)
        ]
        assert sizes_by_cap == sorted(sizes_by_cap)


class TestTransform:
    def test_tfidf_hand_values(self):
        vocab = fit_vocabulary([stream_of("ab"), stream_of("aa")], char_config())
        vector = transform(stream_of("ab"), vocab)
        idf_b = math.log(3 / 2) + 1
        norm = math.sqrt(1.0 + idf_b * idf_b)
        assert vector.entries[0] == (0, pytest.approx(1.0 / norm))
        assert vector.entries[1] == (1, pytest.approx(idf_b / norm))
        assert vector.entries[0][1] == pytest.approx(0.5797, abs=1e-4)
        assert vector.entries[1][1] == pytest.approx(0.8148, abs=1e-4)

    def test_count_weighting(self):
        vocab = fit_vocabulary(
            [stream_of("ab"), stream_of("aa")], char_config(weighting=Weighting.COUNT)
        )
        vector = transform(stream_of("aa"), vocab)
        assert vector.entries == ((0, 2.0),)

    def test_fully_oov_is_empty(self):
        vocab = fit_vocabulary([stream_of("ab"), stream_of("aa")], char_config())
        vector = transform(stream_of("zz"), vocab)
        assert vector.entries == ()
        assert vector.dimension == 2

    def test_tfidf_unit_norm_or_empty(self):
        streams = [stream_of(t) for t in ("abc", "bcd", "cde")]
        vocab = fit_vocabulary(streams, char_config(1, 3))
        for s in streams + [stream_of("zzz")]:
            vector = transform(s, vocab)
            if vector.entries:
                assert vector.norm() == pytest.approx(1.0, abs=1e-9)


class TestSparseVectorInvariants:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            SparseVector(((1, 1.0), (1, 2.0)), 3)

    def test_no_zero_entries(self):
        with pytest.raises(ValueError):
            SparseVector(((0, 0.0),), 1)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            SparseVector(((5, 1.0),), 3)


class TestFeatureUnion:
    """union_transform concatenates the blocks column-wise, one row per stream."""

    streams = [stream_of("ab"), stream_of("aa")]

    def blocks(self):
        return (
            fit_vocabulary(self.streams, char_config()),  # a, b
            fit_vocabulary(self.streams, char_config(2, 2, weighting=Weighting.COUNT)),  # aa, ab
        )

    def test_index_arithmetic(self):
        X = union_transform(self.streams, self.blocks())
        assert isinstance(X, CscMatrix) and X.shape == (2, 4)
        rows = scipy_csc(X).tocsr()
        assert rows[0].indices.tolist() == [0, 1, 3]
        assert rows[0, 3] == 1.0
        assert rows[1].indices.tolist() == [0, 2]
        assert rows[1, 2] == 1.0

    def test_two_empty(self):
        X = union_transform([stream_of("zz")], self.blocks())
        assert X.nnz == 0
        assert X.shape == (1, 4)

    def test_no_renormalization(self):
        X = scipy_csc(union_transform([stream_of("abab")], self.blocks()))
        tfidf_part, count_part = X[0, :2].toarray().ravel(), X[0, 2:].toarray().ravel()
        assert math.hypot(*tfidf_part) == pytest.approx(1.0)  # unit norm
        assert count_part.tolist() == [0.0, 2.0]            # counts
        assert math.sqrt(X[0].multiply(X[0]).sum()) == pytest.approx(math.sqrt(1.0 + 4.0))

    def test_union_transform_dimension_capped_by_blocks(self):
        streams = [stream_of(t) for t in ("abcdefg hij", "hij klmno", "abc klm")]
        blocks = (
            char_config(1, 3, max_features=5000),
            char_config(3, 7, max_features=50000, weighting=Weighting.COUNT),
        )
        vocabs = tuple(fit_vocabulary(streams, c) for c in blocks)
        X = union_transform(streams, vocabs)
        assert X.shape == (len(streams), sum(v.dimension for v in vocabs))
        assert X.shape[1] <= 55000


def test_determinism_across_runs():
    streams = [stream_of(t) for t in ("abc ab a", "bc abc", "cab")]
    config = char_config(1, 3, max_features=10)
    first = fit_vocabulary(streams, config)
    second = fit_vocabulary(streams, config)
    assert first.term_to_index == second.term_to_index
    assert first.idf == second.idf
    assert transform(streams[0], first) == transform(streams[0], second)


# -- oracle equivalence --------------------------------------------------


def _random_corpus(rng: random.Random):
    alphabet = "abc "
    n_docs = rng.randint(1, 10)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        for _ in range(n_docs)
    ]


def assert_matches_oracle(docs, min_n, max_n, min_df, max_features, weighting):
    streams = [stream_of(text, f"d{i}") for i, text in enumerate(docs)]
    config = VectorizerConfig(
        analyzer=Analyzer.CHAR,
        range=NgramRange(min_n, max_n),
        max_features=max_features,
        min_df=min_df,
        weighting=weighting,
    )
    tfidf = weighting is Weighting.TFIDF
    try:
        vocab = fit_vocabulary(streams, config)
        failed = False
    except EmptyVocabulary:
        failed = True
    index, df, idf = brute_fit(docs, min_n, max_n, min_df, max_features, tfidf)
    if failed:
        assert index == {}
        return
    assert vocab.term_to_index == index
    assert vocab.document_frequency == df
    if tfidf:
        for term in index:
            assert vocab.idf[term] == pytest.approx(idf[term], abs=1e-12)
    for stream, text in zip(streams, docs):
        mine = dense_from_sparse(transform(stream, vocab))
        reference = brute_transform(text, index, idf, min_n, max_n)
        if weighting is Weighting.COUNT:
            assert mine == reference
        else:
            assert mine == pytest.approx(reference, abs=1e-9)


def test_oracle_equivalence_seeded_sweep():
    rng = random.Random(20200901)
    for trial in range(60):
        docs = _random_corpus(rng)
        min_n = rng.randint(1, 3)
        max_n = rng.randint(min_n, 4)
        assert_matches_oracle(
            docs,
            min_n,
            max_n,
            min_df=rng.randint(1, 3),
            max_features=rng.choice([None, 1, 2, 5, 10]),
            weighting=rng.choice([Weighting.TFIDF, Weighting.COUNT]),
        )


@settings(max_examples=120, deadline=None)
@given(
    docs=st.lists(st.text(alphabet="ab ", max_size=12), min_size=1, max_size=6),
    max_n=st.integers(min_value=1, max_value=3),
    min_df=st.integers(min_value=1, max_value=3),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    weighting=st.sampled_from([Weighting.TFIDF, Weighting.COUNT]),
)
def test_oracle_equivalence_property(docs, max_n, min_df, cap, weighting):
    assert_matches_oracle(docs, 1, max_n, min_df, cap, weighting)


def test_smooth_idf_formula():
    assert smooth_idf(2, 1) == pytest.approx(math.log(3 / 2) + 1)
    assert smooth_idf(10, 10) == pytest.approx(1.0)


# -- the corpus-level builder against the oracles -------------------------

NARROW_ALPHABET = "ab é😀"
UNSEEN_ALPHABET = "ab zq🚀\U0001f9ea"
# 570 distinct codepoints, astral emoji among them: more than a fixed
# base**7 packing of 64-bit keys could hold.
WIDE_ALPHABET = [chr(c) for c in range(0x410, 0x410 + 520)] + [
    chr(c) for c in range(0x1F600, 0x1F600 + 50)
]


@st.composite
def training_corpora(draw):
    if draw(st.booleans()):
        symbols = draw(st.permutations(WIDE_ALPHABET))
        cuts = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=4)))
        bounds = [0, *cuts, len(symbols)]
        return ["".join(symbols[a:b]) for a, b in zip(bounds, bounds[1:])]
    return draw(st.lists(st.text(alphabet=NARROW_ALPHABET, max_size=14), min_size=1, max_size=6))


def tied_caps(docs, min_n, max_n, min_df):
    """Caps whose boundary falls inside a run of equal term frequencies."""
    tf = Counter(g for doc in docs for g in brute_char_ngrams(doc, min_n, max_n))
    df = Counter(g for doc in docs for g in set(brute_char_ngrams(doc, min_n, max_n)))
    ranked = sorted((t for t in tf if df[t] >= min_df), key=lambda t: (-tf[t], t))
    return [k for k in range(1, len(ranked)) if tf[ranked[k - 1]] == tf[ranked[k]]]


@settings(max_examples=60, deadline=None)
@given(
    docs=training_corpora(),
    scoring=st.lists(st.text(alphabet=UNSEEN_ALPHABET, max_size=14), max_size=4),
    min_n=st.integers(min_value=1, max_value=7),
    span=st.integers(min_value=0, max_value=3),
    min_df=st.integers(min_value=1, max_value=2),
    weighting=st.sampled_from([Weighting.TFIDF, Weighting.COUNT]),
    data=st.data(),
)
def test_batch_builder_matches_oracle(docs, scoring, min_n, span, min_df, weighting, data):
    max_n = min(min_n + span, 7)
    ties = tied_caps(docs, min_n, max_n, min_df)
    caps = [st.none(), st.integers(1, 8)] + ([st.sampled_from(ties)] * 2 if ties else [])
    cap = data.draw(st.one_of(caps), label="cap")
    tfidf = weighting is Weighting.TFIDF
    index, df, idf = brute_fit(docs, min_n, max_n, min_df, cap, tfidf)
    streams = [stream_of(text, f"d{i}") for i, text in enumerate(docs)]
    try:
        vocab = fit_vocabulary(streams, char_config(min_n, max_n, cap, min_df, weighting))
    except EmptyVocabulary:
        assert index == {}
        return
    assert vocab.term_to_index == index
    assert vocab.document_frequency == df
    assert vocab.idf == idf

    texts = docs + scoring
    X = scipy_csc(union_transform([stream_of(text) for text in texts], (vocab,)))
    assert X.shape == (len(texts), len(index))
    for row, text in enumerate(texts):
        dense = X[row].toarray().ravel().tolist()
        assert dense == brute_transform(text, index, idf, min_n, max_n)
        assert dense_from_sparse(transform(stream_of(text), vocab)) == dense


def test_tfidf_norm_adds_each_rows_squares_left_to_right():
    """A row's squares are added one at a time in term order, as a ``+=``
    loop adds them: the squares [1e16, 1, 1, ...] then sum to 1e16, where a
    compensated or pairwise sum (builtin ``sum`` from Python 3.12 on) counts
    the ones. A row with no vocabulary term stays empty, with no warning."""
    terms = list("abcdef")
    idf = [1e8] + [1.0] * (len(terms) - 1)
    vocab = Vocabulary.from_columns(char_config(), terms, [1] * len(terms), 2, idf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = union_transform([stream_of("fedcba"), stream_of("zzz")], (vocab,))
    acc = 0.0
    for value in idf:
        acc += value * value
    assert acc == 1e16 != math.fsum(value * value for value in idf)
    rows = scipy_csc(X).tocsr()
    assert rows[0].indices.tolist() == list(range(len(terms)))
    assert rows[0].data.tolist() == [value / math.sqrt(acc) for value in idf]
    assert rows[1].nnz == 0


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_tfidf_weighting_is_the_same_in_any_slices(size, monkeypatch):
    """``_block`` gathers, and ``weigh`` squares and divides, a bounded
    slice of entries at a time; the slices do not change a bit of the
    result."""
    rng = random.Random(size)
    docs = ["".join(rng.choice("abc ") for _ in range(rng.randint(0, 12))) for _ in range(6)]
    streams = [stream_of(text) for text in docs]
    vocab = fit_vocabulary(streams, char_config(1, 3))
    whole = union_transform(streams, (vocab,))
    monkeypatch.setattr(vectorize, "_NORM_SLICE", size)
    sliced = union_transform(streams, (vocab,))
    assert whole.nnz > size and isinstance(sliced, CscMatrix)
    for name in ("data", "indices", "indptr"):
        assert getattr(sliced, name).tobytes() == getattr(whole, name).tobytes()


def _raised(call):
    """The type and message of the error ``call`` raises, or None."""
    try:
        call()
    except (EmptyVocabulary, ValueError) as error:
        return type(error), str(error)
    return None


@settings(max_examples=60, deadline=None)
@given(
    docs=training_corpora(),
    min_n=st.integers(min_value=1, max_value=7),
    span=st.integers(min_value=0, max_value=3),
    min_df=st.integers(min_value=1, max_value=2),
    weighting=st.sampled_from([Weighting.TFIDF, Weighting.COUNT]),
    data=st.data(),
)
def test_selected_columns_are_the_fits_columns(docs, min_n, span, min_df, weighting, data):
    """The columns a fit keeps, ascending, with the fit's errors: none
    kept, a length not counted and no stream at all."""
    max_n = min(min_n + span, 7)
    ties = tied_caps(docs, min_n, max_n, min_df)
    caps = [st.none(), st.integers(1, 8)] + ([st.sampled_from(ties)] * 2 if ties else [])
    cap = data.draw(st.one_of(caps), label="cap")
    counted = data.draw(st.sampled_from([max_n, max_n, max_n, max(max_n - 1, 1)]), label="counted")
    streams = data.draw(st.sampled_from([docs] * 4 + [[]]), label="streams")
    counts = NgramCounts([stream_of(text, f"d{i}") for i, text in enumerate(streams)], counted)
    config = char_config(min_n, max_n, cap, min_df, weighting)
    raised = _raised(lambda: fit_vocabulary(counts, config))
    assert _raised(lambda: selected_columns(counts, config)) == raised
    if raised is None:
        columns = selected_columns(counts, config)
        assert columns.tolist() == np.sort(fit_vocabulary(counts, config).fitted_columns).tolist()
        index, _, _ = brute_fit(docs, min_n, max_n, min_df, cap, weighting is Weighting.TFIDF)
        assert sorted(counts.terms(columns)) == sorted(index)


def test_batch_builder_shares_counts_across_blocks():
    streams = [stream_of(t) for t in ("abcab", "", "bca cab", "😀ab😀")]
    counts = NgramCounts(streams, 5)
    blocks = (char_config(1, 3, max_features=6), char_config(3, 5, weighting=Weighting.COUNT))
    shared = tuple(fit_vocabulary(counts, c) for c in blocks)
    separate = tuple(fit_vocabulary(streams, c) for c in blocks)
    assert shared == separate
    assert len(counts.key_space.keys) == 5  # lengths 1 to 5, each counted once
    assert (scipy_csc(union_transform(counts, shared))
            != scipy_csc(union_transform(streams, separate))).nnz == 0


def test_counts_hold_every_length_up_to_max_n_and_no_scratch():
    streams = [stream_of(t) for t in ("abcab", "", "bca cab", "😀ab😀")]
    blocks = (char_config(1, 3, max_features=6), char_config(2, 4, weighting=Weighting.COUNT))
    counts = NgramCounts(streams, 4)
    assert len(counts) == len(streams)
    assert len(counts.key_space.keys) == 4  # lengths 1 to 4, no further
    assert len(counts.key_space.first) == 5
    # the counting scratch does not outlive the constructor, and tf is
    # made only when a fit reads it
    assert set(vars(counts)) == {"key_space", "column_maps", "matrix", "df"}
    assert set(vars(counts.key_space)) == {"alphabet", "base", "keys", "first"}
    vocabs = tuple(fit_vocabulary(counts, c) for c in blocks)
    scored = NgramCounts(streams, 4)
    union_transform(scored, vocabs)
    assert set(vars(scored)) == {"key_space", "column_maps", "matrix", "df"}
    assert vocabs == tuple(fit_vocabulary(streams, c) for c in blocks)
    assert (scipy_csc(union_transform(counts, vocabs))
            != scipy_csc(union_transform(streams, vocabs))).nnz == 0
    assert counts.column_maps == {}  # its own vocabularies need no map
    with pytest.raises(ValueError, match="length 5 were not counted"):
        counts.span(NgramRange(1, 5))
    with pytest.raises(ValueError, match="length 5 were not counted"):
        counts.span(NgramRange(5, 5))
    with pytest.raises(ValueError, match="length 5 were not counted"):
        fit_vocabulary(counts, char_config(1, 5))


@st.composite
def level_corpora(draw):
    """Documents over the 570-codepoint alphabet: optionally the whole
    alphabet spread over a few documents, repetitive documents over a few
    of its symbols (so rows repeat columns before they are summed), and
    empty documents."""
    docs = []
    if draw(st.booleans()):
        symbols = draw(st.permutations(WIDE_ALPHABET))
        cuts = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=3)))
        bounds = [0, *cuts, len(symbols)]
        docs += ["".join(symbols[a:b]) for a, b in zip(bounds, bounds[1:])]
    few = draw(st.lists(st.sampled_from(WIDE_ALPHABET), min_size=1, max_size=4, unique=True))
    docs += draw(st.lists(st.text(alphabet=few, max_size=30), max_size=5))
    docs += [""] * draw(st.integers(0, 2))
    return draw(st.permutations(docs)) if docs else [""]


def assert_counts_match_brute_force(ngram_counts, docs, max_n):
    space = ngram_counts.key_space
    assert len(space.keys) == max_n
    first = space.first.tolist()
    assert first[0] == 0 and len(first) == max_n + 1
    symbols = sorted({ord(symbol) for text in docs for symbol in text})
    assert space.alphabet.dtype == np.uint32 and space.alphabet.tolist() == symbols
    assert space.base == len(symbols) + 1
    terms = ngram_counts.terms(np.arange(first[-1]))
    for n in range(1, max_n + 1):
        level = terms[first[n - 1] : first[n]]
        assert {len(term) for term in level} <= {n}
        assert level == sorted(set(level)) and len(level) == len(space.keys[n - 1])
    # one column per term and the empty column after them; each column's
    # rows strictly ascending, so no repeats
    matrix = ngram_counts.matrix
    assert isinstance(matrix, CscMatrix) and matrix.shape == (len(docs), len(terms) + 1)
    assert matrix.indptr[-1] == matrix.indptr[-2]
    assert scipy_csc(matrix).has_canonical_format
    rows = scipy_csc(matrix).tocsr()
    expected_tf, expected_df = Counter(), Counter()
    for row, text in enumerate(docs):
        start, end = rows.indptr[row], rows.indptr[row + 1]
        got = dict(zip((terms[c] for c in rows.indices[start:end]), rows.data[start:end].tolist()))
        expected = Counter(brute_char_ngrams(text, 1, max_n))
        assert got == expected
        expected_tf.update(expected)
        expected_df.update(expected.keys())
    assert ngram_counts.tf.tolist() == [expected_tf[t] for t in terms]
    assert ngram_counts.df.tolist() == [expected_df[t] for t in terms]


def assert_same_counts(got, expected):
    """Every array of two ``NgramCounts``, equal in value and dtype, and
    their terms."""
    left, right = got.key_space, expected.key_space
    pairs = [(got.matrix.data, expected.matrix.data), (got.matrix.indices, expected.matrix.indices),
             (got.matrix.indptr, expected.matrix.indptr), *zip(left.keys, right.keys),
             (left.alphabet, right.alphabet), (left.first, right.first)]
    pairs += [(getattr(got, name), getattr(expected, name)) for name in ("tf", "df")]
    assert len(left.keys) == len(right.keys) and left.base == right.base
    columns = np.arange(left.first[-1])
    assert got.terms(columns) == expected.terms(columns)
    for mine, theirs in pairs:
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()


@settings(max_examples=60, deadline=None)
@given(docs=level_corpora(), max_n=st.integers(1, 7))
def test_levels_match_brute_force_counts(docs, max_n):
    counts = NgramCounts([stream_of(text) for text in docs], max_n)
    assert_counts_match_brute_force(counts, docs, max_n)


@settings(max_examples=40, deadline=None)
@given(docs=level_corpora(), max_n=st.integers(1, 7), key_bits=st.integers(0, 24))
def test_counts_from_the_argsort_fallback_match_brute_force_counts(docs, max_n, key_bits):
    """Keys that cannot share an int64 with their positions are
    arg-sorted; that gives every array the packed value sort gives."""
    streams = [stream_of(text) for text in docs]
    with mock.patch.object(vectorize, "_KEY_BITS", key_bits):
        counts = NgramCounts(streams, max_n)
    assert_counts_match_brute_force(counts, docs, max_n)
    assert_same_counts(counts, NgramCounts(streams, max_n))


# Corpora whose dead positions (the last n - 1 of each document, which
# start no n-gram) matter: a document shorter than n, empty documents and
# one-symbol documents, and n-grams that would run on into the next
# document ("ab" then "abab" would give "aba").
EDGE_CORPORA = {
    "shorter than n": ["ab", "a", "abcab", "abcdabcd"],
    "empty documents": ["", "abcab", "", "bb", ""],
    "only empty documents": ["", "", ""],
    "one-symbol documents": ["a", "b", "a", "😀"],
    "runs into the next document": ["ab", "abab", "ba", "b", "a"],
}
# A document appended to steer the ranking of the lengths: a long one over
# two symbols has every length ranked by marking the possible keys, and one
# of 300 distinct symbols every length from 2 on (and length 1 too when no
# symbol repeats) by sorting them, or by arg-sorting with no bits to pack.
STEERING = {
    "as it comes": None,
    "marking": "ab" * 300,
    "sorting": "".join(WIDE_ALPHABET[:300]),
    "arg-sorting": "".join(WIDE_ALPHABET[:300]),
}


@pytest.mark.parametrize("corpus", sorted(EDGE_CORPORA))
@pytest.mark.parametrize("ranking", list(STEERING))
@pytest.mark.parametrize("max_n", [1, 3, 5])
@pytest.mark.parametrize("cells", ["int32", "int64"])
def test_dead_positions_count_nothing_in_every_branch(corpus, ranking, max_n, cells, monkeypatch):
    """Also with int64 cell codes beside int32 rows and ranks, which a
    corpus of (symbols + 1) * documents >= 2**31 gets: the counts are the
    same, arrays and dtypes."""
    docs = EDGE_CORPORA[corpus] + ([STEERING[ranking]] if STEERING[ranking] else [])
    streams = [stream_of(text) for text in docs]
    expected = NgramCounts(streams, max_n)
    sort = mock.Mock(wraps=vectorize._sort_with_order)
    monkeypatch.setattr(vectorize, "_sort_with_order", sort)
    argsort = mock.Mock(wraps=np.argsort)
    monkeypatch.setattr(np, "argsort", argsort)
    if ranking == "arg-sorting":
        monkeypatch.setattr(vectorize, "_KEY_BITS", 0)
    if cells == "int64":
        monkeypatch.setattr(vectorize, "_CELL_LIMIT", 0)
    counts = NgramCounts(streams, max_n)
    assert_counts_match_brute_force(counts, docs, max_n)
    assert_same_counts(counts, expected)
    text = "".join(docs)
    sorted_lengths = max_n - (len(set(text)) < len(text))
    if ranking != "as it comes":
        assert sort.call_count == (0 if ranking == "marking" else sorted_lengths)
        assert argsort.call_count == (sorted_lengths if ranking == "arg-sorting" else 0)


@settings(max_examples=40, deadline=None)
@given(docs=level_corpora(), max_n=st.integers(1, 5), data=st.data())
def test_terms_of_any_columns_in_any_order(docs, max_n, data):
    """``terms`` spells the given columns in their order, repeats and all,
    over surrogates, astral symbols and U+0000, also at an n-gram's end."""
    docs = docs + data.draw(st.lists(st.text(alphabet="a\x00\ud800\udc00\U0001f600", max_size=8),
                                     max_size=3))
    counts = NgramCounts([stream_of(text) for text in docs], max_n)
    everything = counts.terms(np.arange(counts.key_space.first[-1]))
    assert_counts_match_brute_force(counts, docs, max_n)
    columns = data.draw(st.lists(st.integers(0, len(everything) - 1), max_size=30)
                        if everything else st.just([]))
    assert counts.terms(np.array(columns, dtype=np.int64)) == [everything[c] for c in columns]
    assert counts.terms(np.zeros(0, dtype=np.int64)) == []


@settings(max_examples=40, deadline=None)
@given(docs=st.lists(st.text(alphabet="ab\x00\ud800\udfff\U0001f600\U0010ffff", max_size=12),
                     min_size=1, max_size=4),
       min_n=st.integers(1, 3), span=st.integers(0, 3), cap=st.none() | st.integers(1, 6))
def test_fitted_terms_ascend_as_python_orders_strings(docs, min_n, span, cap):
    """A fit orders its terms by their codes, which ascend with the code
    points, so as Python orders the strings: lone surrogates below the
    astral symbols, a prefix before its extensions, U+0000 lowest."""
    config = char_config(min_n, min_n + span, cap)
    try:
        vocab = fit_vocabulary([stream_of(text) for text in docs], config)
    except EmptyVocabulary:
        return
    index, _, _ = brute_fit(docs, min_n, min_n + span, 1, cap, True)
    assert vocab.terms() == sorted(index)


def test_counting_peaks_below_per_length_copies():
    """The traced peak of counting a fixed synthetic ES corpus (60 authors
    per class, 50 tweets each, seed 7: 334,448 symbols) up to length 7.
    Counting that compacted its position, row and rank arrays at every
    length, and kept a tf and a start position per column, peaked at
    18,562,373 bytes there, 55.5 per symbol (numpy 2.4); reading one
    position array at every length peaks at about 49.3. The bound is the
    former, so a change that brings the per-length copies back fails."""
    rng = random.Random(7)
    authors = tuple(synth_author(rng, label, Language.ES, 50)
                    for label in (Label.TRUE_NEWS_SPREADER, Label.FAKE_NEWS_SPREADER)
                    for _ in range(60))
    streams = preprocess_corpus(Corpus(Language.ES, authors), load_stopwords(Language.ES))
    symbols = sum(len(stream.joined_text) for stream in streams)
    assert symbols == 334_448
    gc.collect()
    tracemalloc.start()
    try:
        NgramCounts(streams, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55.5 * symbols, (
        f"{peak / symbols:.1f} bytes per symbol; the bound was measured under numpy 2.4 "
        f"and this is numpy {np.__version__}, whose own scratch may differ")


def test_the_argsort_fallback_runs_only_when_keys_outgrow_the_bits(monkeypatch):
    # every symbol once, so the lengths are ranked by sorting, not marking
    docs = ["".join(WIDE_ALPHABET[:300]), "".join(WIDE_ALPHABET[300:])]
    streams = [stream_of(text) for text in docs]
    argsort = mock.Mock(wraps=np.argsort)
    monkeypatch.setattr(np, "argsort", argsort)
    packed = NgramCounts(streams, 4)
    assert argsort.call_count == 0
    monkeypatch.setattr(vectorize, "_KEY_BITS", 12)
    fallback = NgramCounts(streams, 4)
    assert argsort.call_count == 4  # length 1 alone needs 10 bits for positions, 10 for keys
    assert_counts_match_brute_force(fallback, docs, 4)
    assert_same_counts(fallback, packed)


@settings(max_examples=40, deadline=None)
@given(
    docs=level_corpora(),
    scoring=st.lists(st.text(alphabet=WIDE_ALPHABET[:3] + ["z", " "], max_size=12), max_size=3),
    min_n=st.integers(1, 3),
    span=st.integers(0, 3),
)
def test_every_block_is_float64_with_canonical_rows(docs, scoring, min_n, span):
    """Fitted or looked up, a block holds the documents' counts as float64
    CSC, each column's rows strictly ascending."""
    max_n = min_n + span
    streams = [stream_of(text) for text in docs]
    counts = NgramCounts(streams, max_n)
    try:
        vocab = fit_vocabulary(counts, char_config(min_n, max_n, weighting=Weighting.COUNT))
    except EmptyVocabulary:
        return
    scored = docs + scoring
    sides = [
        (docs, counts),  # the fitted columns
        (docs, NgramCounts(streams, max_n)),  # looked up: the same documents
        (scored, NgramCounts([stream_of(text) for text in scored], max_n)),
    ]
    terms = vocab.terms()
    for texts, side in sides:
        block = vectorize._block(side, vocab)
        assert isinstance(block, CscMatrix) and block.data.dtype == np.float64
        assert scipy_csc(block).has_canonical_format
        columns = np.repeat(np.arange(block.shape[1]), np.diff(block.indptr))
        for row, text in enumerate(texts):
            entries = block.indices == row
            got = dict(zip((terms[c] for c in columns[entries]), block.data[entries].tolist()))
            expected = Counter(brute_char_ngrams(text, min_n, max_n))
            assert got == {term: expected[term] for term in terms if term in expected}


@settings(max_examples=60, deadline=None)
@given(docs=level_corpora(), max_n=st.integers(1, 5), data=st.data())
def test_mixed_length_columns_agree_with_term_by_term_lookup(docs, max_n, data):
    """Terms keyed by their prefixes and mapped onto counts find the
    column that holds each there, in any order and with repeats, and -1
    for a term the counts lack and for the empty term; a corpus's own
    n-grams key exactly as the corpus does."""
    counts = NgramCounts([stream_of(text) for text in docs], max_n)
    everything = np.arange(counts.key_space.first[-1])
    column_of = {term: c for c, term in enumerate(counts.terms(everything))}
    present = data.draw(st.lists(st.sampled_from(sorted(column_of)), max_size=20)) if column_of else []
    # absent terms: over a few known symbols and some unknown ones, and
    # present terms extended or changed by an unknown symbol
    absent = data.draw(st.lists(
        st.text(alphabet=WIDE_ALPHABET[:3] + ["z", "\x00", "\U0010ffff"], min_size=1,
                max_size=max_n),
        max_size=20,
    ))
    absent += [term + "z" for term in present if len(term) < max_n]
    absent += ["z" + term[1:] for term in present] + [""]
    terms = data.draw(st.permutations(present + absent))
    space, columns = vectorize._term_key_space(terms)
    assert counts.column_map(space)[columns].tolist() == [column_of.get(t, -1) for t in terms]
    space, columns = vectorize._term_key_space([])
    assert counts.column_map(space)[columns].tolist() == []
    own, columns = vectorize._term_key_space(sorted(column_of))
    assert columns.tolist() == [column_of[term] for term in sorted(column_of)]
    assert own.alphabet.tolist() == counts.key_space.alphabet.tolist()
    assert own.base == counts.key_space.base
    assert [keys.tolist() for keys in own.keys] == [
        keys.tolist() for keys in counts.key_space.keys if len(keys)
    ]
    assert own.first.tolist() == counts.key_space.first[: len(own.first)].tolist()


def test_a_vocabulary_keys_its_terms_on_first_read():
    """A vocabulary not fitted on counts keys its terms' prefixes the first
    time its key space or columns are read: codes 1..A over its sorted
    code points, and each length's keys ``rank(prefix) * (A + 1) + code``."""
    config = char_config(1, 2, weighting=Weighting.COUNT)
    vocab = Vocabulary.from_columns(config, ["", "a", "ab", "b", "ba"], [1] * 5, 1, None)
    assert "_keys" not in vars(vocab)
    space = vocab.key_space
    assert space.alphabet.tolist() == [ord("a"), ord("b")] and space.base == 3
    assert [keys.tolist() for keys in space.keys] == [[1, 2], [0 * 3 + 2, 1 * 3 + 1]]
    assert space.first.tolist() == [0, 2, 4]
    assert vocab.fitted_columns.tolist() == [-1, 0, 2, 1, 3]  # the empty term has no key
    assert vocab.key_space is space
    empty = Vocabulary.from_columns(config, [], [], 1, None)
    assert empty.fitted_columns.tolist() == [] and empty.key_space.keys == []


@st.composite
def target_corpora(draw, source):
    """Documents to map the counts of ``source`` onto: drawn apart from
    them, sharing suffixes of some of them, over astral code points that
    no document of ``source`` holds, or without a symbol."""
    kind = draw(st.sampled_from(["shared", "drawn", "disjoint", "no symbols"]))
    if kind == "no symbols":
        return [""] * draw(st.integers(1, 3))
    docs = draw(level_corpora())
    if kind == "shared":
        texts = draw(st.lists(st.sampled_from(source), min_size=1, max_size=4))
        docs += [text[draw(st.integers(0, len(text) // 2)):] for text in texts]
    if kind == "disjoint":  # WIDE_ALPHABET moved up by 0x20000
        docs = ["".join(chr(ord(symbol) + 0x20000) for symbol in text) for text in docs]
    return docs


@settings(max_examples=100, deadline=None)
@given(source_docs=level_corpora().filter(any), source_n=st.integers(1, 6),
       target_n=st.integers(1, 7), data=st.data())
def test_column_map_agrees_with_looking_each_term_up(source_docs, source_n, target_n, data):
    """Every column of one counts' key space, mapped onto other counts,
    is the column that holds its term there, and -1 last stands for
    column -1; so a fitted vocabulary's block is the block of the same
    terms keyed by their own prefixes and masked to its lengths, whether
    the other counts share its alphabet, hold none of it, hold no
    symbol, or count fewer lengths."""
    source = NgramCounts([stream_of(text) for text in source_docs], source_n)
    target_docs = data.draw(target_corpora(source_docs))
    target = NgramCounts([stream_of(text) for text in target_docs], target_n)
    mapped = target.column_map(source.key_space)
    terms = source.terms(np.arange(source.key_space.first[-1]))
    known = target.terms(np.arange(target.key_space.first[-1]))
    column_of = dict(zip(known, range(len(known))))
    assert mapped.tolist() == [column_of.get(term, -1) for term in terms] + [-1]
    assert target.column_map(source.key_space) is mapped
    assert list(target.column_maps) == [source.key_space]
    min_n = data.draw(st.integers(1, min(source_n, target_n)))
    max_n = data.draw(st.integers(min_n, min(source_n, target_n)))
    try:
        vocab = fit_vocabulary(source, char_config(min_n, max_n, weighting=Weighting.COUNT))
    except EmptyVocabulary:
        return
    loaded = Vocabulary.from_columns(vocab.config, vocab.terms(), vocab.columns.df,
                                     vocab.corpus_size, None)
    by_key, by_term = vectorize._block(target, vocab), vectorize._block(target, loaded)
    assert by_key.shape == by_term.shape
    for got, expected in zip((by_key.data, by_key.indices, by_key.indptr),
                             (by_term.data, by_term.indices, by_term.indptr)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# Texts over lone surrogates and the largest code point, with or without
# it; terms that may hold points above the largest the texts hold.
EDGE_ALPHABET = ["a", " ", "\ud800", "\U0010ffff"]
ABOVE_ALPHABET = ["a", "\udfff", "\U0010fffe", "\U0010ffff", "z"]


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.text(alphabet=EDGE_ALPHABET, max_size=10), min_size=1, max_size=4),
    scoring=st.lists(st.text(alphabet=ABOVE_ALPHABET, max_size=8), max_size=2),
    max_n=st.integers(1, 4),
    terms=st.lists(st.text(alphabet=EDGE_ALPHABET + ABOVE_ALPHABET, min_size=1, max_size=5),
                   max_size=12, unique=True),
)
def test_edge_code_points_count_and_look_up_as_the_oracle(docs, scoring, max_n, terms):
    """Counting and keying terms over U+10FFFF, a lone surrogate, and
    terms holding a point above the largest of the counted corpus (which
    gets no code there, so the term is absent)."""
    texts = docs + scoring
    streams = [stream_of(text, f"d{i}") for i, text in enumerate(texts)]
    counts = NgramCounts(streams, max_n)
    assert_counts_match_brute_force(counts, texts, max_n)
    everything = np.arange(counts.key_space.first[-1])
    column_of = {term: c for c, term in enumerate(counts.terms(everything))}
    space, columns = vectorize._term_key_space(terms)
    assert counts.column_map(space)[columns].tolist() == [column_of.get(t, -1) for t in terms]
    terms = sorted(terms)
    vocab = Vocabulary.from_columns(
        char_config(1, max_n, weighting=Weighting.COUNT), terms, [1] * len(terms), len(docs), None
    )
    X = scipy_csc(union_transform(counts, (vocab,)))
    for row, text in enumerate(texts):
        dense = X[row].toarray().ravel().tolist()
        assert dense == brute_transform(text, vocab.term_to_index, None, 1, max_n)


@st.composite
def read_vocabularies(draw, docs, ngram_range, counted, weighting):
    """A vocabulary as a model file may hold it: terms of the block's
    lengths taken from ``docs``, mixed with the empty term, terms shorter
    than ``min_n``, terms longer than ``max_n`` but counted, and terms
    longer than every one of the ``counted`` lengths, from ``docs`` or
    not; each with any df of the corpus."""
    grams = {g for doc in docs for g in brute_char_ngrams(doc, 1, counted + 2)}
    outside = st.text(alphabet=NARROW_ALPHABET, min_size=counted + 1, max_size=counted + 3)
    kinds = [
        {g for g in grams if ngram_range.min_n <= len(g) <= ngram_range.max_n},
        {g for g in grams if len(g) < ngram_range.min_n},
        {g for g in grams if ngram_range.max_n < len(g) <= counted},
        {g for g in grams if len(g) > counted},
    ]
    terms = {""} | set(draw(st.lists(outside, max_size=3)))
    for kind in kinds:
        if kind:
            terms |= set(draw(st.lists(st.sampled_from(sorted(kind)), max_size=6)))
    terms = sorted(terms)
    df = [draw(st.integers(1, len(docs))) for _ in terms]
    idf = [smooth_idf(len(docs), d) for d in df] if weighting is Weighting.TFIDF else None
    config = char_config(ngram_range.min_n, ngram_range.max_n, weighting=weighting)
    return Vocabulary.from_columns(config, terms, df, len(docs), idf)


@settings(max_examples=100, deadline=None)
@given(
    docs=st.lists(st.text(alphabet=NARROW_ALPHABET, max_size=14), min_size=1, max_size=5),
    scoring=st.lists(st.text(alphabet=UNSEEN_ALPHABET, max_size=14), max_size=3),
    min_n=st.integers(1, 4),
    span=st.integers(0, 2),
    extra=st.integers(0, 2),
    weighting=st.sampled_from([Weighting.TFIDF, Weighting.COUNT]),
    data=st.data(),
)
def test_terms_outside_the_blocks_lengths_score_as_absent(
    docs, scoring, min_n, span, extra, weighting, data
):
    ngram_range = NgramRange(min_n, min_n + span)
    counted = ngram_range.max_n + extra
    vocab = data.draw(read_vocabularies(docs, ngram_range, counted, weighting))
    index, idf = vocab.term_to_index, vocab.idf
    texts = docs + scoring
    streams = [stream_of(text, f"d{i}") for i, text in enumerate(texts)]
    for features in (streams, NgramCounts(streams, counted)):
        X = scipy_csc(union_transform(features, (vocab,)))
        assert X.shape == (len(texts), len(index))
        for row, text in enumerate(texts):
            dense = X[row].toarray().ravel().tolist()
            assert dense == brute_transform(text, index, idf, min_n, ngram_range.max_n)


def test_a_fitted_vocabulary_is_mapped_onto_other_counts_and_a_loaded_one_keyed_by_its_terms(
    monkeypatch, tmp_path
):
    fitted_streams = [stream_of(t) for t in ("abcab", "bca cab")]
    other_streams = [stream_of(t) for t in ("xyz", "zyxyz")]  # no n-gram in common
    counts = NgramCounts(fitted_streams, 3)
    vocab = fit_vocabulary(counts, char_config(1, 3, weighting=Weighting.COUNT))
    assert vocab.key_space is counts.key_space
    assert not hasattr(NgramCounts, "lookup")  # terms are never looked up one by one
    maps = []  # the (source, target) key spaces mapped
    column_map = vectorize._column_map

    def recording_map(source, target):
        maps.append((source, target))
        return column_map(source, target)

    monkeypatch.setattr(vectorize, "_column_map", recording_map)
    fitted = union_transform(counts, (vocab,))
    assert maps == [] and fitted.nnz and counts.column_maps == {}
    other = NgramCounts(other_streams, 3)
    assert union_transform(other, (vocab,)).nnz == 0
    same = NgramCounts(fitted_streams, 3)
    for _ in range(2):  # the second transform reuses the map the first made
        assert (scipy_csc(union_transform(same, (vocab,))) != scipy_csc(fitted)).nnz == 0
    assert maps == [(vocab.key_space, other.key_space), (vocab.key_space, same.key_space)]
    assert list(same.column_maps) == [vocab.key_space]
    # the key space outlives the counts it came from, and new counts
    # are mapped from it
    freed = weakref.ref(counts)
    del counts, same
    assert freed() is None
    for _ in range(5):
        assert union_transform(NgramCounts(other_streams, 3), (vocab,)).nnz == 0
    assert len(maps) == 7
    # the same vocabulary read from a model file keys its own terms when
    # first scored, and is mapped once onto each counts
    save_model(LinearModel(ModelKind.SVM, np.ones(len(vocab)), 0.0, (vocab,), Language.EN),
               tmp_path / "model.txt")
    (loaded,) = load_model(tmp_path / "model.txt").feature_spec
    assert loaded == vocab and "_keys" not in vars(loaded)  # loading keys no term
    sides = [other, NgramCounts(fitted_streams, 3)]
    expected = [scipy_csc(union_transform(side, (vocab,))) for side in sides]
    assert len(maps) == 8
    for side, block in zip(sides, expected):
        for _ in range(2):
            assert (scipy_csc(union_transform(side, (loaded,))) != block).nnz == 0
    assert loaded.key_space is not vocab.key_space
    assert [source for source, _ in maps[8:]] == [loaded.key_space] * 2
    assert list(other.column_maps) == [vocab.key_space, loaded.key_space]


# ----------------------------------------------------------------------
# The CSC arrays against scipy's, as the pipeline built them with scipy.


@settings(max_examples=60, deadline=None)
@given(docs=level_corpora(), max_n=st.integers(1, 7))
def test_count_matrix_is_scipys_summed_csr_conversion(docs, max_n):
    """Each length's matrix as it was built: one CSR entry per occurrence,
    in position order, converted to CSC and its repeats summed; then the
    lengths and the empty column side by side."""
    counts = NgramCounts([stream_of(text) for text in docs], max_n)
    everything = np.arange(counts.key_space.first[-1])
    column_of = {term: c for c, term in enumerate(counts.terms(everything))}
    levels = []
    for n in range(1, max_n + 1):
        columns, indptr = [], [0]
        for text in docs:
            columns += [column_of[text[p : p + n]] - counts.key_space.first[n - 1]
                        for p in range(len(text) - n + 1)]
            indptr.append(len(columns))
        level = sp.csr_matrix(
            (np.ones(len(columns), dtype=np.int32), columns, indptr),
            shape=(len(docs), len(counts.key_space.keys[n - 1])),
        ).tocsc()
        level.sum_duplicates()
        levels.append(level)
    levels.append(sp.csc_matrix((len(docs), 1), dtype=np.int32))
    expected = sp.hstack(levels, format="csc")
    matrix = counts.matrix
    assert matrix.shape == expected.shape and matrix.nnz == expected.nnz
    assert matrix.data.dtype == expected.data.dtype
    for name in ("data", "indices", "indptr"):
        assert getattr(matrix, name).tolist() == getattr(expected, name).tolist()


@settings(max_examples=60, deadline=None)
@given(docs=level_corpora(), min_n=st.integers(1, 3), span=st.integers(0, 2),
       extra=st.integers(0, 2), data=st.data())
def test_block_gathers_the_columns_scipy_gathers(docs, min_n, span, extra, data):
    """A block is scipy's ``matrix[:, columns]`` of the count matrix, with
    -1 (the empty last column) for a term the counts lack or that is
    outside the block's lengths."""
    ngram_range = NgramRange(min_n, min_n + span)
    counts = NgramCounts([stream_of(text) for text in docs], ngram_range.max_n + extra)
    known = counts.terms(np.arange(counts.key_space.first[-1]))
    absent = ["z" * n for n in range(1, 4)] + [WIDE_ALPHABET[0] * 20]
    terms = sorted(set(data.draw(st.lists(st.sampled_from(known + absent), max_size=25))))
    vocab = Vocabulary.from_columns(
        char_config(min_n, ngram_range.max_n, weighting=Weighting.COUNT),
        terms, [1] * len(terms), len(docs), None,
    )
    block = vectorize._block(counts, vocab)
    column_of = dict(zip(known, range(len(known))))
    span_of = counts.span(ngram_range)
    columns = [column_of[t] if t in column_of and column_of[t] in range(span_of.start, span_of.stop)
               else -1 for t in terms]
    expected = scipy_csc(counts.matrix)[:, columns]
    assert block.shape == expected.shape
    assert block.data.tobytes() == expected.data.astype(np.float64).tobytes()
    assert block.indices.tolist() == expected.indices.tolist()
    assert block.indptr.tolist() == expected.indptr.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 6), n_blocks=st.integers(1, 4))
def test_joined_blocks_are_scipys_hstack(data, n_rows, n_blocks):
    matrices = [data.draw(csc_matrices(n_rows=n_rows)) for _ in range(n_blocks)]
    joined = join_blocks([CscMatrix(m.data, m.indices, m.indptr, m.shape) for m in matrices])
    expected = sp.hstack(matrices, format="csc")
    assert joined.shape == expected.shape
    assert joined.data.tobytes() == expected.data.tobytes()
    assert joined.indices.tolist() == expected.indices.tolist()
    assert joined.indptr.tolist() == expected.indptr.tolist()


@settings(max_examples=200, deadline=None)
@given(matrix=csc_matrices(), seed=st.integers(0, 2**32 - 1))
def test_tfidf_weighs_each_row_as_a_loop_over_scipys_rows(matrix, seed):
    """Each value is its count times its idf over the root of its row's
    squares, added left to right over the row as scipy stores it in CSR."""
    counts = abs(matrix)
    counts.data = np.ceil(counts.data)  # whole counts, at least 1
    rng = np.random.default_rng(seed)
    idf = (rng.random(counts.shape[1]) * 10.0 ** rng.integers(-3, 4, counts.shape[1])).tolist()
    terms = [f"t{column}" for column in range(counts.shape[1])]
    vocab = Vocabulary.from_columns(char_config(), terms, [1] * len(terms), 2, idf)
    weighed = weigh(CscMatrix(counts.data, counts.indices, counts.indptr, counts.shape), vocab)
    expected = {}
    rows = counts.tocsr()
    for row in range(rows.shape[0]):
        start, end = rows.indptr[row], rows.indptr[row + 1]
        values = [count * idf[c] for c, count in zip(rows.indices[start:end], rows.data[start:end])]
        acc = 0.0
        for value in values:
            acc += value * value
        for c, value in zip(rows.indices[start:end].tolist(), values):
            expected[row, c] = value / math.sqrt(acc)
    columns = np.repeat(np.arange(counts.shape[1]), np.diff(counts.indptr))
    assert weighed.indices.tolist() == counts.indices.tolist()
    assert weighed.indptr.tolist() == counts.indptr.tolist()
    assert weighed.data.tolist() == [expected[r, c] for r, c in zip(counts.indices, columns)]
