import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler.corpus import Language
from spreader_profiler.errors import EmptyVocabulary
from spreader_profiler.models import LinearModel, ModelKind, save_model
from spreader_profiler.preprocess import TokenStream
from spreader_profiler.vectorize import (
    Analyzer,
    NgramCounts,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    extract_char_ngrams,
    fit_vocabulary,
    smooth_idf,
    transform,
    union_transform,
)

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

    @pytest.mark.parametrize(
        "term_to_index", [{"a": 0, "b": 0}, {"a": 0, "b": 2}, {"a": 1, "b": 2}, {"a": -1, "b": 0}]
    )
    def test_indices_other_than_0_to_n_are_refused(self, term_to_index, tmp_path):
        vocab = Vocabulary(
            config=char_config(weighting=Weighting.COUNT),
            term_to_index=term_to_index,
            document_frequency={"a": 1, "b": 1},
            corpus_size=1,
        )
        with pytest.raises(ValueError, match="indices are not exactly 0..1"):
            vocab.terms()
        model = LinearModel(ModelKind.SVM, np.zeros(2), 0.0, (vocab,), Language.EN)
        with pytest.raises(ValueError, match="indices"):
            save_model(model, tmp_path / "model.txt")

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
        assert X.shape == (2, 4)
        assert X[0].indices.tolist() == [0, 1, 3]
        assert X[0, 3] == 1.0
        assert X[1].indices.tolist() == [0, 2]
        assert X[1, 2] == 1.0

    def test_two_empty(self):
        X = union_transform([stream_of("zz")], self.blocks())
        assert X.nnz == 0
        assert X.shape == (1, 4)

    def test_no_renormalization(self):
        X = union_transform([stream_of("abab")], self.blocks())
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
    X = union_transform([stream_of(text) for text in texts], (vocab,))
    assert X.shape == (len(texts), len(index))
    for row, text in enumerate(texts):
        dense = X[row].toarray().ravel().tolist()
        assert dense == brute_transform(text, index, idf, min_n, max_n)
        assert dense_from_sparse(transform(stream_of(text), vocab)) == dense


def test_batch_builder_shares_counts_across_blocks():
    streams = [stream_of(t) for t in ("abcab", "", "bca cab", "😀ab😀")]
    counts = NgramCounts(streams)
    blocks = (char_config(1, 3, max_features=6), char_config(3, 5, weighting=Weighting.COUNT))
    shared = tuple(fit_vocabulary(counts, c) for c in blocks)
    separate = tuple(fit_vocabulary(streams, c) for c in blocks)
    assert shared == separate
    assert len(counts.levels) == 5  # lengths 1 to 5, each counted once
    assert (union_transform(counts, shared) != union_transform(streams, separate)).nnz == 0


def test_settled_counts_keep_only_the_matrices():
    streams = [stream_of(t) for t in ("abcab", "", "bca cab", "😀ab😀")]
    blocks = (char_config(1, 3, max_features=6), char_config(2, 4, weighting=Weighting.COUNT))
    settled = NgramCounts(streams)
    settled.settle(blocks)
    assert len(settled) == len(streams)
    assert len(settled.levels) == 4  # up to the longest max_n, no further
    assert settled.codes is None and settled.remaining is None  # the scratch is freed
    vocabs = tuple(fit_vocabulary(settled, c) for c in blocks)
    assert vocabs == tuple(fit_vocabulary(streams, c) for c in blocks)
    assert (union_transform(settled, vocabs) != union_transform(streams, vocabs)).nnz == 0
    with pytest.raises(ValueError, match="length 5 were not counted before settle"):
        fit_vocabulary(settled, char_config(1, 5))


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


@settings(max_examples=60, deadline=None)
@given(docs=level_corpora())
def test_levels_match_brute_force_counts(docs):
    ngram_counts = NgramCounts([stream_of(text) for text in docs])
    for n in range(1, 8):
        level = ngram_counts.level(n)
        counts = level.counts
        terms = [ngram_counts.term(p, n) for p in level.where.tolist()]
        assert terms == sorted(set(terms)) and len(terms) == len(level.keys)
        assert counts.shape == (len(docs), len(terms))
        expected_tf, expected_df = Counter(), Counter()
        for row, text in enumerate(docs):
            start, end = counts.indptr[row], counts.indptr[row + 1]
            columns = counts.indices[start:end].tolist()
            # canonical format: strictly ascending columns, so no repeats
            assert columns == sorted(set(columns))
            got = dict(zip((terms[c] for c in columns), counts.data[start:end].tolist()))
            expected = Counter(brute_char_ngrams(text, n, n))
            assert got == expected
            expected_tf.update(expected)
            expected_df.update(expected.keys())
        assert counts.has_canonical_format
        assert level.tf.tolist() == [expected_tf[t] for t in terms]
        assert level.df.tolist() == [expected_df[t] for t in terms]
