"""Model files read and written a column at a time, checked against the
per-line writer and reader in ``oracles.py``.

The writer must produce the oracle's bytes. On files edited one line at
a time (with the checksum made valid again), the reader must refuse
every file the oracle refuses, and where both accept, return the same
model. The reader is stricter than the oracle in a few listed ways; a
file only it refuses must be refused for one of those reasons.
"""

import gc
import hashlib
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spreader_profiler import cli
from spreader_profiler.corpus import Language
from spreader_profiler.errors import CorruptModelFile, DimensionMismatch, ModelError
from spreader_profiler.models import (
    _CHUNK_LINES,
    LinearModel,
    LossKind,
    ModelKind,
    TrainConfig,
    _render_model,
    decision_values,
    load_model,
)
from spreader_profiler.synth import generate_corpus_dir
from spreader_profiler.vectorize import (
    Analyzer,
    NgramRange,
    VectorizerConfig,
    Vocabulary,
    Weighting,
)

from oracles import oracle_load_model, oracle_render_model

# Term alphabets: plain ASCII (terms written as they are), non-ASCII
# (escaped, and decoded by one call per column), and one with newlines
# and backslashes (decoded a term at a time).
_ALPHABETS = {
    "ascii": "ab #'\"x",
    "unicode": "ab é\u2028😀πж\x01",
    "hostile": "ab\t\n\\é\u2028😀n\x00",
}

# Sizes around one and two chunks of lines.
_SIZES = [1, 2, 7, 40, _CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1, 2 * _CHUNK_LINES + 5]

# What the reader refuses that the per-line reader accepted.
_STRICTER = (
    "has index",  # an index field that is not ``str`` of its position
    "is not a decimal in",  # a df field that is not ``str`` of its value
    "is not '-'",  # a count block's idf field other than "-"
    "character other than printable ASCII",  # any other byte in the file
    "is not the escaped form",  # a term field the writer would escape otherwise
)


def _vocabulary(rng: random.Random, alphabet: str, size: int, weighting: Weighting) -> Vocabulary:
    terms = set()
    while len(terms) < size:
        terms.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))))
    ordered = sorted(terms)
    corpus_size = rng.randint(1, 300)
    df = {t: rng.randint(1, corpus_size) for t in ordered}
    idf = None
    if weighting is Weighting.TFIDF:
        idf = {t: math.log((1 + corpus_size) / (1 + df[t])) + 1.0 for t in ordered}
    return Vocabulary(
        config=VectorizerConfig(
            analyzer=rng.choice([Analyzer.CHAR] * 2),  # one draw keeps a seed's later draws
            range=NgramRange(1, rng.randint(1, 4)),
            max_features=rng.choice([None, 5000]),
            min_df=rng.randint(1, 3),
            weighting=weighting,
        ),
        term_to_index={t: i for i, t in enumerate(ordered)},
        document_frequency=df,
        corpus_size=corpus_size,
        idf=idf,
    )


@st.composite
def models(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = tuple(
        _vocabulary(
            rng,
            _ALPHABETS[draw(st.sampled_from(sorted(_ALPHABETS)))],
            draw(st.sampled_from(_SIZES)),
            draw(st.sampled_from([Weighting.TFIDF, Weighting.COUNT])),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    dimension = sum(len(v) for v in blocks)
    np_rng = np.random.default_rng(rng.randrange(2**32))
    return LinearModel(
        kind=rng.choice([ModelKind.SVM, ModelKind.LOGREG]),
        weights=np_rng.standard_normal(dimension) * 10.0 ** rng.randint(-6, 4),
        bias=float(np_rng.standard_normal()),
        feature_spec=blocks,
        language=rng.choice([Language.EN, Language.ES]),
        train_config=TrainConfig(
            C=10.0 ** rng.randint(-3, 3),
            max_iterations=rng.randint(1, 10000),
            loss=rng.choice([LossKind.SQUARED_HINGE, LossKind.LOGISTIC]),
            fit_intercept=rng.random() < 0.5,
        ),
    )


def _file(lines: list[str]) -> str:
    body = "\n".join(lines) + "\n"
    return body + f"checksum\tsha256:{hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


def _outcome(load, path):
    try:
        return load(path)
    except (ModelError, OverflowError) as exc:
        # the per-line reader let float.fromhex's OverflowError out
        return exc


def _assert_same_model(fast: LinearModel, slow: LinearModel) -> None:
    assert np.array_equal(fast.weights, slow.weights)
    assert (fast.bias, fast.kind, fast.language) == (slow.bias, slow.kind, slow.language)
    assert fast.train_config == slow.train_config
    assert len(fast.feature_spec) == len(slow.feature_spec)
    for mine, theirs in zip(fast.feature_spec, slow.feature_spec):
        assert (mine.config, mine.corpus_size) == (theirs.config, theirs.corpus_size)
        assert list(mine.term_to_index.items()) == list(theirs.term_to_index.items())
        assert list(mine.document_frequency.items()) == list(theirs.document_frequency.items())
        assert mine.idf == theirs.idf
        assert mine.terms() == list(theirs.term_to_index)


def _check_against_oracle(text: str, directory: str) -> None:
    path = Path(directory) / "model.txt"
    path.write_text(text, encoding="utf-8", newline="")
    slow = _outcome(oracle_load_model, path)
    fast = _outcome(load_model, path)
    if isinstance(slow, OverflowError):
        assert isinstance(fast, CorruptModelFile), fast
    elif isinstance(slow, ModelError):
        assert type(fast) is type(slow), (slow, fast)
    elif isinstance(fast, ModelError):
        assert isinstance(fast, CorruptModelFile)
        assert any(reason in str(fast) for reason in _STRICTER), fast
    else:
        _assert_same_model(fast, slow)


# Characters an edit puts into a line: field and line separators, digits
# and signs of numerals, hex-float letters, escapes and line breaks that
# only some readers split on.
_EDIT_CHARS = "\t:\\-+ 0159xpn.é\u2028\x0c\x85\r\x1c"


@st.composite
def line_edits(draw, lines: list[str]):
    """One edit of one line, as a function of the list of lines."""
    starts = [n + 1 for n, line in enumerate(lines) if line.startswith(("terms\t", "weights\t"))]
    offsets = (0, 1, _CHUNK_LINES - 1, _CHUNK_LINES)
    special = sorted({n + d for n in starts for d in offsets if n + d < len(lines)})
    number = draw(st.one_of(st.integers(0, len(lines) - 1), st.sampled_from(special)))
    line = lines[number]
    kind = draw(
        st.sampled_from(["replace", "insert", "delete", "drop", "repeat", "swap", "numeral"])
    )
    where = draw(st.integers(0, len(line)))
    char = draw(st.sampled_from(_EDIT_CHARS))
    if kind == "replace":
        new = [line[:where] + char + line[where + 1 :]]
    elif kind == "insert":
        new = [line[:where] + char + line[where:]]
    elif kind == "delete":
        new = [line[:where] + line[where + 1 :]]
    elif kind == "drop":
        new = []
    elif kind == "repeat":
        new = [line, line]
    elif kind == "swap":
        following = lines[number + 1] if number + 1 < len(lines) else ""
        return lambda ls: ls.__setitem__(slice(number, number + 2), [following, line])
    else:
        sep = "\t" if "\t" in line else ":"
        fields = line.split(sep)
        position = draw(st.integers(0, len(fields) - 1))
        value = fields[position].strip() or "0"
        fields[position] = draw(
            st.sampled_from(["+" + value, " " + value, "0" + value, value + " ", "1" + value])
        )
        new = [sep.join(fields)]
    return lambda ls: ls.__setitem__(slice(number, number + 1), new)


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(model=models())
    def test_writer_writes_the_oracle_bytes(self, model):
        assert _render_model(model) == oracle_render_model(model)

    # edits make escapes like "\:", which both readers keep as they are
    @pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
    @settings(max_examples=25, deadline=None)
    @given(model=models(), data=st.data())
    def test_reader_refuses_what_the_oracle_refuses(self, model, data):
        text = _render_model(model)
        lines = text.split("\n")[:-2]
        with tempfile.TemporaryDirectory() as directory:
            _check_against_oracle(text, directory)
            for _ in range(4):
                edit = data.draw(line_edits(lines))
                edited = list(lines)
                edit(edited)
                _check_against_oracle(_file(edited), directory)


def _hand_model(terms: list[str]) -> LinearModel:
    vocab = Vocabulary(
        config=VectorizerConfig(weighting=Weighting.COUNT),
        term_to_index={t: i for i, t in enumerate(terms)},
        document_frequency={t: 1 for t in terms},
        corpus_size=1,
    )
    weights = np.arange(len(terms), dtype=float)
    return LinearModel(ModelKind.SVM, weights, 0.5, (vocab,), Language.ES)


def _vocabulary_start(lines):
    return next(n for n, line in enumerate(lines) if line.startswith("terms\t")) + 1


def _both_refuse(lines, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(_file(lines), encoding="utf-8")
    with pytest.raises(CorruptModelFile):
        oracle_load_model(path)
    with pytest.raises(CorruptModelFile):
        load_model(path)


class TestEditsBothRefuse:
    """Edits a column-at-a-time reader could let through: fields that
    still split into the right number per line, or that a field parser
    accepts where the per-line reader splits the line."""

    def test_term_field_ending_in_a_lone_backslash(self, tmp_path):
        # "x\\" then "y\\nz": joined by a newline, the lone backslash would
        # eat the separator and the escaped newline would split "xy" from
        # "z", one piece per field, in order after "aé"
        lines = _render_model(_hand_model(["aé", "bé", "cé"])).split("\n")[:-2]
        start = _vocabulary_start(lines)
        assert lines[start].startswith("a\\xe9\t")
        lines[start + 1] = "x\\" + lines[start + 1][len("b\\xe9") :]
        lines[start + 2] = "y\\nz" + lines[start + 2][len("c\\xe9") :]
        _both_refuse(lines, tmp_path)

    @pytest.mark.parametrize("line_break", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_line_break_inside_a_field(self, line_break, tmp_path):
        # the per-line reader splits the line there; float.fromhex would
        # take "\x0b" and "\x0c" after a weight as blank space
        lines = _render_model(_hand_model(["a", "b"])).split("\n")[:-2]
        lines[-1] += line_break
        _both_refuse(lines, tmp_path)
        lines = _render_model(_hand_model(["a", "b"])).split("\n")[:-2]
        start = _vocabulary_start(lines)
        lines[start + 1] = "b" + line_break + lines[start + 1][1:]
        _both_refuse(lines, tmp_path)

    def test_five_fields_then_three(self, tmp_path):
        lines = _render_model(_hand_model(["a", "b", "c"])).split("\n")[:-2]
        start = _vocabulary_start(lines)
        assert lines[start + 1 : start + 3] == ["b\t1\t1\t-", "c\t2\t1\t-"]
        lines[start + 1] += "\tc"
        lines[start + 2] = "2\t1\t-"
        _both_refuse(lines, tmp_path)

    def test_weight_line_with_two_colons_then_none(self, tmp_path):
        lines = _render_model(_hand_model(["a", "b", "c", "d", "e"])).split("\n")[:-2]
        weights = next(n for n, line in enumerate(lines) if line.startswith("weights\t")) + 1
        three, four = lines[weights + 3], lines[weights + 4]
        assert three.startswith("3:") and four.startswith("4:")
        lines[weights + 3] = three + ":4"
        lines[weights + 4] = four[len("4:") :]
        _both_refuse(lines, tmp_path)

    def test_terms_out_of_order_across_a_chunk_boundary(self, tmp_path):
        terms = [f"t{i:05d}" for i in range(_CHUNK_LINES + 1)]
        lines = _render_model(_hand_model(terms)).split("\n")[:-2]
        last = _vocabulary_start(lines) + _CHUNK_LINES
        assert lines[last].startswith(terms[-1] + "\t")
        lines[last] = terms[-2] + lines[last][len(terms[-1]) :]
        lines[last - 1] = terms[-1] + lines[last - 1][len(terms[-2]) :]
        _both_refuse(lines, tmp_path)


class TestOnlyTheReaderRefuses:
    """Files the per-line reader accepted although a load and a save
    would not give their bytes back."""

    @pytest.mark.filterwarnings("ignore:invalid escape sequence:DeprecationWarning")
    @pytest.mark.parametrize(
        "field, term",
        [
            (" #N\\:", " #N\\:"),  # an invalid escape, kept as backslash and colon
            ("\\x41", "A"),  # escapes of printable ASCII
            ("\\u0041", "A"),
            ("\\101", "A"),
            ("\\N{DIGIT ONE}", "1"),
            ("\\x5c", "\\"),
            ("\\x7B", "{"),
            ("a\\u00e9", "a\xe9"),  # written as a\xe9
            ("a\\XE9", "a\\XE9"),
        ],
    )
    def test_term_field_other_than_the_escaped_term(self, field, term, tmp_path):
        lines = _render_model(_hand_model([" ", "~"])).split("\n")[:-2]
        start = _vocabulary_start(lines)
        assert lines[start].startswith(" \t")
        lines[start] = field + lines[start][1:]
        path = tmp_path / "model.txt"
        path.write_text(_file(lines), encoding="utf-8")
        accepted = oracle_load_model(path)
        assert accepted.feature_spec[0].terms()[0] == term
        assert oracle_render_model(accepted) != path.read_text(encoding="utf-8")
        with pytest.raises(CorruptModelFile, match="is not the escaped form of its term"):
            load_model(path)

    def test_escaped_terms_still_load(self, tmp_path):
        terms = sorted([" #N\\:", "A", "a\xe9", "\\", "\t\n", "\u2028😀", "{"])
        path = tmp_path / "model.txt"
        path.write_text(_render_model(_hand_model(terms)), encoding="utf-8")
        assert load_model(path).feature_spec[0].terms() == terms

    def test_word_analyzer_is_refused(self, tmp_path):
        lines = _render_model(_hand_model(["a", "b"])).split("\n")[:-2]
        assert lines.count("analyzer\tchar") == 1
        lines[lines.index("analyzer\tchar")] = "analyzer\tword"
        path = tmp_path / "model.txt"
        path.write_text(_file(lines), encoding="utf-8")
        with pytest.raises(CorruptModelFile, match="'word' is not a valid Analyzer"):
            load_model(path)


@pytest.fixture(scope="module")
def bench_es_model(tmp_path_factory):
    """The stock ES model of the benchmark's es-score corpus (20 authors
    per class, 30 tweets each, seed 7)."""
    root = tmp_path_factory.mktemp("bench-es")
    generate_corpus_dir(root / "es", authors_per_class=20, tweets_per_author=30, seed=7,
                        language="es")
    path = root / "model.txt"
    argv = ["train", "--lang", "es", "--seed", "7", "--input", str(root / "es")]
    assert cli.run(argv + ["--out", str(path)]) == 0
    return path


def test_loading_allocates_little_beyond_the_model(bench_es_model):
    gc.collect()
    tracemalloc.start()
    try:
        model = load_model(bench_es_model)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.dimension == 27_630
    assert peak <= 2.6 * retained, (peak, retained)


def test_decision_values_of_a_matrix_of_the_wrong_width(bench_es_model):
    model = load_model(bench_es_model)
    with pytest.raises(DimensionMismatch):
        decision_values(model, sp.csr_matrix((3, 5)))
