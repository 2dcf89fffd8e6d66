"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from spreader_profiler import cli
from spreader_profiler.corpus import (
    Corpus,
    Label,
    Language,
    SplitSpec,
    load_corpus,
    split_corpus,
)
from spreader_profiler.errors import CorruptModelFile, EmptyVocabulary, UnsupportedVersion
from spreader_profiler.evaluation import (
    ConfusionMatrix,
    evaluate_pipeline,
    final_config,
    metrics,
)
from spreader_profiler.models import (
    LinearModel,
    LossKind,
    ModelKind,
    TrainConfig,
    _objective_and_grad,
    load_model,
    predict,
    save_model,
    train,
    train_logreg,
    train_svm,
)
from spreader_profiler.preprocess import (
    PLACEHOLDER_TOKENS,
    load_stopwords,
    preprocess_author,
    squeeze_repeats,
)
from spreader_profiler.vectorize import (
    Analyzer,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    fit_vocabulary,
    transform,
)

from conftest import make_author, pan_data_dir
from oracles import (
    brute_fit,
    brute_transform,
    central_difference_gradient,
    dense_from_sparse,
    reference_objective,
    relative_error,
)
from test_models import make_blobs
from test_preprocess import TWEET_ALPHABET, assert_stream_invariants

FAKE = Label.FAKE_NEWS_SPREADER
TRUE = Label.TRUE_NEWS_SPREADER


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except pytest.skip.Exception:
        print(f"\n[acceptance] criterion {number} ({description}): SKIP")
        raise
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({description}): FAIL")
        raise
    else:
        print(f"\n[acceptance] criterion {number} ({description}): PASS")


# -- criterion 1 ---------------------------------------------------------


def test_criterion_1_metric_fidelity():
    with criterion(1, "metric fidelity against the published test-split rows"):
        en = metrics(ConfusionMatrix(35, 35, 10, 10, positive_class=FAKE))
        for value in (en.precision, en.recall, en.f1, en.accuracy):
            assert abs(value - 0.7778) <= 0.005
            assert round(value, 2) == 0.78

        printed_es = ConfusionMatrix(42, 36, 9, 3, positive_class=FAKE)
        es = metrics(printed_es.reoriented(TRUE))
        assert abs(es.precision - 0.923) <= 0.005
        assert abs(es.recall - 0.800) <= 0.005
        assert abs(es.f1 - 0.857) <= 0.005
        assert abs(es.accuracy - 0.867) <= 0.005
        assert (round(es.precision, 2), round(es.recall, 2)) == (0.92, 0.80)
        assert (round(es.f1, 2), round(es.accuracy, 2)) == (0.86, 0.87)


# -- criterion 2 ---------------------------------------------------------


def make_stream(text, author_id):
    from spreader_profiler.preprocess import TokenStream

    return TokenStream(author_id=author_id, tokens=tuple(text.split(" ")) if text else ())


def test_criterion_2_vectorizer_oracle_equivalence():
    with criterion(2, "fit+transform equals brute-force oracle on 200 random corpora"):
        rng = random.Random(97)
        alphabet = "abc #"
        for trial in range(200):
            docs = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
                for _ in range(rng.randint(1, 10))
            ]
            min_n = rng.randint(1, 3)
            max_n = rng.randint(min_n, 5)
            min_df = rng.randint(1, 3)
            cap = rng.choice([None, 1, 2, 3, 5, 8, 20])
            weighting = rng.choice([Weighting.TFIDF, Weighting.COUNT])

            streams = [
                make_stream(text, f"d{i}") for i, text in enumerate(docs)
            ]
            config = VectorizerConfig(
                analyzer=Analyzer.CHAR,
                range=NgramRange(min_n, max_n),
                max_features=cap,
                min_df=min_df,
                weighting=weighting,
            )
            tfidf = weighting is Weighting.TFIDF
            index, df, idf = brute_fit(docs, min_n, max_n, min_df, cap, tfidf)
            try:
                vocab = fit_vocabulary(streams, config)
            except EmptyVocabulary:
                assert index == {}
                continue
            assert vocab.term_to_index == index
            assert vocab.document_frequency == df
            if tfidf:
                for term in index:
                    assert abs(vocab.idf[term] - idf[term]) <= 1e-12
            for stream, text in zip(streams, docs):
                mine = dense_from_sparse(transform(stream, vocab))
                reference = brute_transform(text, index, idf, min_n, max_n)
                if tfidf:
                    assert len(mine) == len(reference)
                    assert all(abs(a - b) <= 1e-9 for a, b in zip(mine, reference))
                else:
                    assert mine == reference


# -- criterion 3 ---------------------------------------------------------


def test_criterion_3_optimizer_correctness():
    with criterion(3, "gradients, separable blobs, monotone objective"):
        # (a) analytic vs central finite differences, 50 random instances
        rng = np.random.default_rng(1234)
        for trial in range(50):
            m, n = 7, 4
            X_dense = rng.normal(size=(m, n))
            y_pm = rng.choice([-1.0, 1.0], size=m)
            theta = rng.normal(size=n + 1)
            C = float(rng.uniform(0.2, 3.0))
            loss_kind = LossKind.SQUARED_HINGE if trial % 2 else LossKind.LOGISTIC
            loss_name = "squared_hinge" if loss_kind is LossKind.SQUARED_HINGE else "logistic"

            numeric = central_difference_gradient(
                lambda t: reference_objective(t, X_dense.tolist(), y_pm.tolist(), C, loss_name),
                theta,
            )
            _, analytic = _objective_and_grad(
                theta, sp.csr_matrix(X_dense), y_pm, C, loss_kind, True
            )
            assert relative_error(analytic, numeric) <= 1e-5

        # (b) 100% training accuracy on margin-separated blobs
        X, y = make_blobs(n=40, dim=4, seed=17, separation=4.0)
        for trainer in (train_svm, train_logreg):
            model = trainer(X, y)
            assert all(predict(model, x) is label for x, label in zip(X, y))

        # (c) objective never increases between outer iterations
        X2, y2 = make_blobs(n=30, dim=5, seed=23, separation=1.0)
        for loss in (LossKind.SQUARED_HINGE, LossKind.LOGISTIC):
            model = train(X2, y2, TrainConfig(loss=loss))
            history = model.objective_history
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


# -- criterion 4 ---------------------------------------------------------


def _random_tweet(rng: random.Random, max_len=160) -> str:
    return "".join(rng.choice(TWEET_ALPHABET) for _ in range(rng.randint(0, max_len)))


def test_criterion_4_pipeline_properties():
    with criterion(4, "preprocessing properties over 1000+ random inputs each"):
        stopwords = load_stopwords(Language.EN)
        rng = random.Random(31337)

        # squeeze_repeats: length never grows, no 3-run survives
        for _ in range(1200):
            text = _random_tweet(rng)
            squeezed = squeeze_repeats(text)
            assert len(squeezed) <= len(text)
            for i in range(len(squeezed) - 2):
                assert not (squeezed[i] == squeezed[i + 1] == squeezed[i + 2])

        # TokenStream invariants and pipeline idempotence
        for _ in range(1200):
            doc = make_author("a1", [_random_tweet(rng)])
            stream = preprocess_author(doc, stopwords)
            assert_stream_invariants(stream, stopwords)
            again = preprocess_author(make_author("a1", [stream.joined_text]), stopwords)
            assert again.tokens == stream.tokens


# -- criterion 5 ---------------------------------------------------------


def _accuracy_from_report(report_text: str) -> float:
    lines = report_text.splitlines()
    header = lines.index("TP\tTN\tFP\tFN\tP\tR\tF1\tAcc")
    return float(lines[header + 1].split("\t")[-1])


def test_criterion_5_desk_scale_experiment(synth_dir, tmp_path, capsys):
    with criterion(5, "desk-scale end-to-end, real signal vs shuffled labels"):
        # the command-line flow on the bundled synthetic corpus
        model_path = tmp_path / "desk.model"
        rc = cli.run(["train", "--input", str(synth_dir), "--lang", "en",
                      "--seed", "42", "--out", str(model_path)])
        assert rc == 0
        capsys.readouterr()
        rc = cli.run(["evaluate", "--model", str(model_path), "--input", str(synth_dir),
                      "--split", "test", "--seed", "42"])
        assert rc == 0
        accuracy = _accuracy_from_report(capsys.readouterr().out)
        assert accuracy >= 0.90

        # label-shuffled controls: signal must vanish
        corpus = load_corpus(synth_dir, "en")
        config = final_config(Language.EN)
        control_accuracies = []
        for seed in range(20):
            rng = random.Random(seed)
            labels = [a.label for a in corpus]
            rng.shuffle(labels)
            shuffled = Corpus(
                corpus.language,
                tuple(a.with_label(l) for a, l in zip(corpus, labels)),
            )
            train_part, test_part = split_corpus(shuffled, SplitSpec(seed=seed))
            report = evaluate_pipeline(train_part, test_part, config)
            control_accuracies.append(report.accuracy)
        control_mean = sum(control_accuracies) / len(control_accuracies)
        assert abs(control_mean - 0.5) <= 0.15


# -- criterion 6 (needs the real corpus on disk) --------------------------


def test_criterion_6_shared_task_reproduction():
    with criterion(6, "seeded-split accuracy on the real corpora"):
        data_root = pan_data_dir()
        if data_root is None:
            pytest.skip("set SPREADER_PAN_DATA to the directory holding en/ and es/")
        expectations = [("en", Language.EN, 0.78), ("es", Language.ES, 0.87)]
        for subdir, language, published in expectations:
            corpus = load_corpus(data_root / subdir, language)
            config = final_config(language)
            accuracies = []
            for seed in range(10):
                train_part, test_part = split_corpus(corpus, SplitSpec(seed=seed))
                report = evaluate_pipeline(train_part, test_part, config)
                accuracies.append(report.accuracy)
            mean_accuracy = sum(accuracies) / len(accuracies)
            assert abs(mean_accuracy - published) <= 0.08, (
                f"{subdir}: mean accuracy {mean_accuracy:.4f} across 10 seeds "
                f"vs published {published}"
            )


# -- criterion 7 ---------------------------------------------------------

_TERM_ALPHABET = "ab #\tπемج😀\\\n'\"é"


def _random_vocabulary(rng: random.Random) -> Vocabulary:
    weighting = rng.choice([Weighting.TFIDF, Weighting.COUNT])
    config = VectorizerConfig(
        analyzer=rng.choice([Analyzer.CHAR] * 2),  # one draw keeps a seed's later draws
        range=NgramRange(1, rng.randint(1, 4)),
        max_features=rng.choice([None, 100, 5000]),
        min_df=rng.randint(1, 3),
        weighting=weighting,
    )
    n_terms = rng.randint(1, 40)
    terms = set()
    while len(terms) < n_terms:
        terms.add(
            "".join(rng.choice(_TERM_ALPHABET) for _ in range(rng.randint(1, 6)))
        )
    ordered = sorted(terms)
    corpus_size = rng.randint(1, 500)
    df = {t: rng.randint(1, corpus_size) for t in ordered}
    idf = None
    if weighting is Weighting.TFIDF:
        idf = {t: math.log((1 + corpus_size) / (1 + df[t])) + 1.0 for t in ordered}
    return Vocabulary(
        config=config,
        term_to_index={t: i for i, t in enumerate(ordered)},
        document_frequency=df,
        corpus_size=corpus_size,
        idf=idf,
    )


def test_criterion_7_model_persistence(tmp_path):
    with criterion(7, "100 randomized models round-trip bit-exactly"):
        rng = random.Random(777)
        np_rng = np.random.default_rng(777)
        for index in range(100):
            vocab = _random_vocabulary(rng)
            model = LinearModel(
                kind=rng.choice([ModelKind.SVM, ModelKind.LOGREG]),
                weights=np_rng.standard_normal(vocab.dimension) * 10.0 ** rng.randint(-6, 4),
                bias=float(np_rng.standard_normal()) * 10.0 ** rng.randint(-6, 4),
                feature_spec=(vocab,),
                language=rng.choice([Language.EN, Language.ES]),
                train_config=TrainConfig(
                    C=10.0 ** rng.randint(-3, 3),
                    tolerance=10.0 ** rng.randint(-8, -2),
                    max_iterations=rng.randint(1, 10000),
                    loss=rng.choice([LossKind.SQUARED_HINGE, LossKind.LOGISTIC]),
                    fit_intercept=rng.random() < 0.5,
                ),
            )
            path = tmp_path / f"model_{index}.txt"
            save_model(model, path)
            loaded = load_model(path)
            assert np.array_equal(model.weights, loaded.weights)
            assert model.bias == loaded.bias
            assert model.kind == loaded.kind
            assert model.language == loaded.language
            assert model.train_config == loaded.train_config
            restored = loaded.feature_spec[0]
            assert restored.term_to_index == vocab.term_to_index
            assert restored.document_frequency == vocab.document_frequency
            assert restored.idf == vocab.idf
            assert restored.config == vocab.config
            assert restored.corpus_size == vocab.corpus_size

        # corruption and version gates
        reference_path = tmp_path / "model_0.txt"
        trimmed = tmp_path / "trimmed.txt"
        trimmed.write_bytes(reference_path.read_bytes()[:-40])
        with pytest.raises(CorruptModelFile):
            load_model(trimmed)

        mangled = bytearray(reference_path.read_bytes())
        mangled[len(mangled) // 2] ^= 0x01
        flipped = tmp_path / "flipped.txt"
        flipped.write_bytes(bytes(mangled))
        with pytest.raises(CorruptModelFile):
            load_model(flipped)

        future = tmp_path / "future.txt"
        future.write_text(
            reference_path.read_text(encoding="utf-8").replace(
                "spreader-profiler-model 1", "spreader-profiler-model 2", 1
            ),
            encoding="utf-8",
        )
        with pytest.raises(UnsupportedVersion):
            load_model(future)
