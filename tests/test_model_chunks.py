"""Vocabulary chunks read by array comparison, against the line reader.

``load_model`` reads each chunk of vocabulary lines by comparing whole
arrays of its bytes (``models._array_chunk``), and sends a chunk they
refuse through the line reader (``models._line_chunk``), which names the
fault. The arrays may only accept what the line reader accepts, with the
same values: with the array path refusing every chunk, each file must
load to the same model or be refused with the same message.

A loaded vocabulary keeps its terms as the keys made at load alone, and
spells them from the keys the first time something reads them. Loading
and scoring must decode no key, saving must give the file back and keep
no term, and the first read must give the file's terms.
"""

import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler import cli, models, vectorize
from spreader_profiler.corpus import Language, load_corpus
from spreader_profiler.errors import CorruptModelFile
from spreader_profiler.evaluation import score_corpus
from spreader_profiler.models import (
    LinearModel,
    ModelKind,
    _render_model,
    decision_values,
    load_model,
    save_model,
)
from spreader_profiler.preprocess import TokenStream
from spreader_profiler.synth import generate_corpus_dir
from spreader_profiler.vectorize import VectorizerConfig, Vocabulary, Weighting, smooth_idf

from test_model_files import (
    _ALPHABETS,
    _SIZES,
    _file,
    _hand_model,
    _vocabulary,
    _vocabulary_start,
    bench_es_model,  # noqa: F401 (a fixture)
    line_edits,
    models as model_strategy,
)

from oracles import brute_transform, oracle_load_model


def _outcome(path):
    try:
        return load_model(path)
    except CorruptModelFile as exc:
        return exc


def _assert_same(fast, slow) -> None:
    if isinstance(slow, CorruptModelFile):
        assert isinstance(fast, CorruptModelFile), fast
        assert str(fast) == str(slow)
        return
    assert not isinstance(fast, CorruptModelFile), fast
    assert np.array_equal(fast.weights.view(np.uint64), slow.weights.view(np.uint64))
    assert (fast.kind, fast.bias, fast.language) == (slow.kind, slow.bias, slow.language)
    assert fast.train_config == slow.train_config
    assert fast.feature_spec == slow.feature_spec
    for mine, theirs in zip(fast.feature_spec, slow.feature_spec):
        assert mine.fitted_columns.tolist() == theirs.fitted_columns.tolist()
        ours, others = mine.key_space, theirs.key_space
        assert ours.alphabet.tolist() == others.alphabet.tolist() and ours.base == others.base
        assert [k.tolist() for k in ours.keys] == [k.tolist() for k in others.keys]
        assert ours.first.tolist() == others.first.tolist()


def _check_against_line_reader(text: str, directory: str) -> None:
    """The file ``text`` loads as it does with every chunk read by the line
    reader."""
    path = Path(directory) / "model.txt"
    path.write_text(text, encoding="utf-8", newline="")
    fast = _outcome(path)
    with mock.patch.object(models, "_array_chunk", lambda *args: None):
        slow = _outcome(path)
    _assert_same(fast, slow)


def _check_edits(text: str, data, edits: int = 4) -> None:
    lines = text.split("\n")[:-2]
    with tempfile.TemporaryDirectory() as directory:
        _check_against_line_reader(text, directory)
        for _ in range(edits):
            edit = data.draw(line_edits(lines))
            edited = list(lines)
            edit(edited)
            _check_against_line_reader(_file(edited), directory)


class TestAgainstTheLineReader:
    # edits make escapes like "\:", which both paths keep as they are
    @pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
    @settings(max_examples=25, deadline=None)
    @given(model=model_strategy(), data=st.data())
    def test_models_and_their_edits(self, model, data):
        _check_edits(_render_model(model), data)

    @pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
    @pytest.mark.parametrize("alphabet", sorted(_ALPHABETS))
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32), size=st.sampled_from(_SIZES),
           weighting=st.sampled_from(list(Weighting)), data=st.data())
    def test_each_alphabet_and_its_edits(self, alphabet, seed, size, weighting, data):
        vocab = _vocabulary(random.Random(seed), _ALPHABETS[alphabet], size, weighting)
        weights = np.random.default_rng(seed).standard_normal(len(vocab))
        model = LinearModel(ModelKind.SVM, weights, 0.25, (vocab,), Language.ES)
        _check_edits(_render_model(model), data)


def _count_model(terms: list[str], corpus_size: int = 1) -> LinearModel:
    return _hand_model(terms) if corpus_size == 1 else LinearModel(
        ModelKind.SVM, np.arange(len(terms), dtype=float), 0.5,
        (Vocabulary.from_columns(VectorizerConfig(weighting=Weighting.COUNT), terms,
                                 [5] * len(terms), corpus_size, None),),
        Language.ES,
    )


def _tfidf_model(terms: list[str]) -> LinearModel:
    idf = [smooth_idf(9, 2)] * len(terms)
    vocab = Vocabulary.from_columns(VectorizerConfig(), terms, [2] * len(terms), 9, idf)
    return LinearModel(ModelKind.SVM, np.ones(len(terms)), 0.5, (vocab,), Language.EN)


def _edited(model: LinearModel, edit) -> str:
    lines = _render_model(model).split("\n")[:-2]
    edit(lines, _vocabulary_start(lines))
    return _file(lines)


def _set(offset: int, line: str):
    return lambda lines, start: lines.__setitem__(start + offset, line)


def _lone_backslash_beside_an_escaped_newline(lines, start):
    lines[start + 1] = "x\\" + lines[start + 1][len("b\\xe9") :]
    lines[start + 2] = "y\\nz" + lines[start + 2][len("c\\xe9") :]


def _two_tabs_then_four(lines, start):
    assert lines[start : start + 2] == ["a\t0\t1\t-", "b\t1\t1\t-"]
    lines[start : start + 2] = ["a\t0\t1-", "b\t1\t1\t\t-"]


HAND_CASES = {
    "lone backslash beside an escaped newline": (
        _count_model(["aé", "bé", "cé"]), _lone_backslash_beside_an_escaped_newline, True),
    "terms holding a newline and a tab": (_count_model(["a\nb", "c\td", "e"]), None, False),
    "term escape in uppercase hex": (_count_model(["aé", "bé"]), _set(1, "b\\xE9\t1\t1\t-"),
                                     True),
    "index 01": (_count_model(["a", "b"]), _set(1, "b\t01\t1\t-"), True),
    "df +5": (_count_model(["a", "b"], 60), _set(1, "b\t1\t+5\t-"), True),
    "df 05": (_count_model(["a", "b"], 60), _set(1, "b\t1\t05\t-"), True),
    "df 5_0": (_count_model(["a", "b"], 60), _set(1, "b\t1\t5_0\t-"), True),
    "df 0": (_count_model(["a", "b"], 60), _set(1, "b\t1\t0\t-"), True),
    "count idf --": (_count_model(["a", "b"]), _set(1, "b\t1\t1\t--"), True),
    "tfidf idf in uppercase hex": (
        _tfidf_model(["a", "b"]), _set(1, "b\t1\t2\t" + smooth_idf(9, 2).hex().upper()), True),
    "adjacent lines with 2 and 4 tabs": (_count_model(["a", "b", "c"]), _two_tabs_then_four,
                                         True),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases_agree_with_the_line_reader(name, tmp_path):
    model, edit, refused = HAND_CASES[name]
    text = _render_model(model) if edit is None else _edited(model, edit)
    _check_against_line_reader(text, str(tmp_path))
    outcome = _outcome(tmp_path / "model.txt")
    assert isinstance(outcome, CorruptModelFile) is refused, outcome


def test_a_chunk_the_arrays_refuse_is_read_by_the_line_reader(tmp_path):
    # a term holding a newline decodes to one line too many for the arrays
    terms = ["a\nb", "c"] + [f"t{i:05d}" for i in range(models._CHUNK_LINES)]
    path = tmp_path / "model.txt"
    path.write_text(_render_model(_count_model(terms)), encoding="utf-8")
    read = []
    line_chunk = models._line_chunk

    def recording(block, lo, *rest):
        read.append(lo)
        return line_chunk(block, lo, *rest)

    with mock.patch.object(models, "_line_chunk", recording):
        assert load_model(path).feature_spec[0].terms() == terms
    assert read == [0]


@pytest.fixture(scope="module")
def stock_models(bench_es_model, tmp_path_factory):  # noqa: F811
    """The bench ES model and the stock EN model of the bench EN corpus
    (20 authors per class, 25 tweets each, seed 7), with their corpora."""
    root = tmp_path_factory.mktemp("stock-en")
    generate_corpus_dir(root / "en", authors_per_class=20, tweets_per_author=25, seed=7,
                        language="en")
    path = root / "model.txt"
    argv = ["train", "--lang", "en", "--seed", "7", "--input", str(root / "en")]
    assert cli.run(argv + ["--out", str(path)]) == 0
    return [(bench_es_model, bench_es_model.parent / "es"), (path, root / "en")]


def test_stock_models_load_by_arrays_alone_and_score_without_keying(stock_models):
    with mock.patch.object(models, "_line_chunk", side_effect=AssertionError("line reader")):
        loaded = [(load_model(path), corpus) for path, corpus in stock_models]
    for model, corpus in loaded:
        assert all("key_space" in vars(vocab) for vocab in model.feature_spec)
        with mock.patch.object(vectorize, "_term_key_space",
                               side_effect=AssertionError("keyed when scored")):
            values = score_corpus(model, load_corpus(corpus, model.language))
        assert len(values) == 40 and np.isfinite(values).all()


def test_stock_models_score_without_decoding_a_key_and_save_without_keeping_terms(
    stock_models, tmp_path, capsys
):
    out = str(tmp_path / "predictions.txt")
    for path, corpus in stock_models:
        with mock.patch.object(vectorize, "_code_rows",
                               side_effect=AssertionError("keys decoded")):
            model = load_model(path)
            values = score_corpus(model, load_corpus(corpus, model.language))
            for argv in (["evaluate"], ["predict", "--out", out]):
                assert cli.run([*argv, "--model", str(path), "--input", str(corpus)]) == 0
        assert _render_model(model) == path.read_text(encoding="utf-8")
        assert len(values) == 40 and np.isfinite(values).all()
        assert not any("_terms" in vars(vocab) for vocab in model.feature_spec)
        assert sum(len(vocab) for vocab in model.feature_spec) == model.dimension
    capsys.readouterr()


def _check_terms_spelled_on_first_read(model: LinearModel, directory: str) -> None:
    """``model`` saved and loaded again: the loaded vocabularies spell no
    term until one is read, save back to the file before and after, and
    their first read gives the terms that the per-line reader decodes."""
    path, again = Path(directory) / "model.txt", Path(directory) / "again.txt"
    save_model(model, path)
    loaded = load_model(path)
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert not any("_terms" in vars(vocab) for vocab in loaded.feature_spec)
    oracle = oracle_load_model(path)
    for vocab, theirs, original in zip(loaded.feature_spec, oracle.feature_spec,
                                       model.feature_spec):
        assert vocab.terms() == theirs.terms() == original.terms()
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert loaded.feature_spec == model.feature_spec


HAND_TERMS = {
    "nul ending a term": ["a", "a\x00", "b\x00"],
    "lone surrogates": sorted(["\ud800", "a\udfff", "z\ud800x"]),
    "astral points": sorted(["\U0001f600", "a\U0001f600", "\U0010ffff"]),
    "the empty term at index 0": ["", "a", "b"],
    "a newline and a tab": ["a\nb", "c\td", "e"],
}


class TestTermsSpelledOnFirstRead:
    @settings(max_examples=25, deadline=None)
    @given(model=model_strategy())
    def test_models(self, model):
        with tempfile.TemporaryDirectory() as directory:
            _check_terms_spelled_on_first_read(model, directory)

    @pytest.mark.parametrize("alphabet", sorted(_ALPHABETS))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32), size=st.sampled_from(_SIZES),
           weighting=st.sampled_from(list(Weighting)))
    def test_each_alphabet(self, alphabet, seed, size, weighting):
        vocab = _vocabulary(random.Random(seed), _ALPHABETS[alphabet], size, weighting)
        model = LinearModel(ModelKind.SVM, np.ones(len(vocab)), 0.25, (vocab,), Language.ES)
        with tempfile.TemporaryDirectory() as directory:
            _check_terms_spelled_on_first_read(model, directory)

    @pytest.mark.parametrize("name", sorted(HAND_TERMS))
    def test_hand_cases(self, name, tmp_path):
        _check_terms_spelled_on_first_read(_hand_model(HAND_TERMS[name]), str(tmp_path))


def test_a_large_vocabulary_over_the_largest_code_point_loads_as_built(tmp_path):
    # 2,500 distinct prefixes of length 2, each followed by U+10FFFF: their
    # length-3 keys (prefix rank * 0x110000 + point) pass 2**31
    letters = [chr(0x100 + i) for i in range(50)]
    top = "\U0010ffff"
    terms = sorted({*letters, top, *(a + b + top for a in letters for b in letters)})
    df = {term: 1 + i % 7 for i, term in enumerate(terms)}
    built = Vocabulary(VectorizerConfig(), {t: i for i, t in enumerate(terms)}, df, 9,
                       {t: smooth_idf(9, d) for t, d in df.items()})
    weights = np.random.default_rng(7).standard_normal(len(terms))
    model = LinearModel(ModelKind.SVM, weights, 0.25, (built,), Language.ES)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    vocab = loaded.feature_spec[0]
    # the keys made at load spell each term back
    space, columns = vocab.key_space, vocab.fitted_columns
    ordered = np.sort(columns)
    spelled = vectorize._spelled(space.alphabet, vectorize._code_rows(space, ordered))
    assert list(map(dict(zip(ordered.tolist(), spelled)).__getitem__, columns.tolist())) == terms
    texts = [" ".join(terms[i :: 97]) for i in range(5)] + [letters[3] + top + top]
    streams = [TokenStream(author_id=f"a{i}", tokens=tuple(text.split(" ")))
               for i, text in enumerate(texts)]
    dense = vectorize.union_transform(streams, (vocab,)).toarray()
    for row, text in zip(dense, texts):
        assert row.tolist() == brute_transform(text, built.term_to_index, built.idf, 1, 3)
    assert (decision_values(loaded, streams).tobytes()
            == decision_values(model, streams).tobytes())
    assert vocab == built
