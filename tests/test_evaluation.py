from dataclasses import replace

import numpy as np
import pytest

from spreader_profiler import evaluation, models, vectorize
from spreader_profiler.corpus import (
    AuthorDocument,
    Corpus,
    Label,
    Language,
    SplitSpec,
    load_corpus,
    split_corpus,
    split_folds,
)
from spreader_profiler.errors import (
    ConvergenceWarning,
    EmptyGrid,
    EmptyMatrix,
    LengthMismatch,
    UnlabeledCorpus,
)
from spreader_profiler.evaluation import (
    FINAL_EN_CONFIG,
    FINAL_ES_CONFIG,
    ConfusionMatrix,
    GridResult,
    PipelineConfig,
    confusion,
    default_grid,
    evaluate_model,
    evaluate_pipeline,
    final_config,
    fit_pipeline,
    grid_search,
    metrics,
    render_grid_report,
    render_grid_tsv,
    render_report,
)
from spreader_profiler.models import ModelKind, TrainConfig
from spreader_profiler.preprocess import load_stopwords, preprocess_corpus
from spreader_profiler.synth import generate_corpus_dir
from spreader_profiler.vectorize import (
    Analyzer,
    NgramCounts,
    NgramRange,
    VectorizerConfig,
    Weighting,
    fit_vocabulary,
)

from conftest import make_corpus

FAKE = Label.FAKE_NEWS_SPREADER
TRUE = Label.TRUE_NEWS_SPREADER


def labeled_pairs(n_true, n_fake):
    """Pairs with an obvious lexical class signal."""
    pairs = []
    for i in range(n_true):
        pairs.append(
            (f"t{i:02d}", ["sunny garden flowers bloom quietly", "calm river morning walk"], 0)
        )
    for i in range(n_fake):
        pairs.append(
            (f"f{i:02d}", ["shocking miracle cure exposed", "secret lottery winner scandal"], 1)
        )
    return pairs


SMALL_CONFIG = PipelineConfig(
    vectorizers=(
        VectorizerConfig(
            analyzer=Analyzer.CHAR, range=NgramRange(1, 3), max_features=300, min_df=1
        ),
    ),
    model_kind=ModelKind.SVM,
)


def counts_to_lists(tp, tn, fp, fn):
    preds, truth = [], []
    preds += [FAKE] * tp; truth += [FAKE] * tp
    preds += [TRUE] * tn; truth += [TRUE] * tn
    preds += [FAKE] * fp; truth += [TRUE] * fp
    preds += [TRUE] * fn; truth += [FAKE] * fn
    return preds, truth


class TestConfusion:
    def test_en_final_split_counts(self):
        preds, truth = counts_to_lists(35, 35, 10, 10)
        cm = confusion(preds, truth, positive_class=FAKE)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (35, 35, 10, 10)
        assert metrics(cm).accuracy == pytest.approx(70 / 90)

    def test_all_correct(self):
        preds, truth = counts_to_lists(3, 4, 0, 0)
        cm = confusion(preds, truth)
        assert cm.fp == 0 and cm.fn == 0

    def test_swapping_positive_class(self):
        preds, truth = counts_to_lists(5, 3, 2, 1)
        with_fake = confusion(preds, truth, positive_class=FAKE)
        with_true = confusion(preds, truth, positive_class=TRUE)
        assert (with_true.tp, with_true.tn) == (with_fake.tn, with_fake.tp)
        assert (with_true.fp, with_true.fn) == (with_fake.fn, with_fake.fp)
        reoriented = with_fake.reoriented(TRUE)
        assert reoriented == with_true

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([FAKE], [FAKE, TRUE])

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            confusion([], [])


class TestMetrics:
    def test_en_row(self):
        m = metrics(ConfusionMatrix(35, 35, 10, 10))
        for value in (m.precision, m.recall, m.f1, m.accuracy):
            assert value == pytest.approx(0.7778, abs=5e-4)
        assert round(m.accuracy, 2) == 0.78

    def test_es_row_both_orientations(self):
        printed = ConfusionMatrix(42, 36, 9, 3, positive_class=FAKE)
        fake_positive = metrics(printed)
        assert fake_positive.precision == pytest.approx(42 / 51)
        assert fake_positive.recall == pytest.approx(42 / 45)
        assert fake_positive.accuracy == pytest.approx(78 / 90)

        true_positive = metrics(printed.reoriented(TRUE))
        assert true_positive.precision == pytest.approx(0.923, abs=5e-4)
        assert true_positive.recall == pytest.approx(0.800, abs=5e-4)
        assert true_positive.f1 == pytest.approx(0.857, abs=5e-4)
        assert true_positive.accuracy == pytest.approx(0.867, abs=5e-4)

    def test_degenerate_flag(self):
        m = metrics(ConfusionMatrix(0, 5, 0, 3))
        assert m.precision == 0.0
        assert m.degenerate

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix(0, 0, 0, 0))


class TestEvaluatePipeline:
    def test_separable_corpus_perfect(self):
        corpus = make_corpus(labeled_pairs(8, 8))
        train_part, test_part = split_corpus(corpus, SplitSpec(seed=4))
        report = evaluate_pipeline(train_part, test_part, SMALL_CONFIG)
        assert report.accuracy == 1.0

    def test_train_equals_test_sanity(self):
        corpus = make_corpus(labeled_pairs(6, 6))
        report = evaluate_pipeline(corpus, corpus, SMALL_CONFIG)
        assert report.accuracy == 1.0

    def test_no_leakage_from_test_corpus(self):
        corpus = make_corpus(labeled_pairs(8, 8))
        train_part, test_part = split_corpus(corpus, SplitSpec(seed=4))
        model_full = fit_pipeline(train_part, SMALL_CONFIG)

        smaller_test = Corpus(test_part.language, test_part.authors[1:])
        model_again = fit_pipeline(train_part, SMALL_CONFIG)
        assert np.array_equal(model_full.weights, model_again.weights)

        full_report = evaluate_model(model_full, test_part)
        partial_report = evaluate_model(model_full, smaller_test)
        full_by_id = dict((a, p) for a, p, _ in full_report.predictions)
        for author_id, predicted, _ in partial_report.predictions:
            assert full_by_id[author_id] == predicted

    def test_metrics_consistent_with_predictions(self):
        corpus = make_corpus(labeled_pairs(7, 7))
        train_part, test_part = split_corpus(corpus, SplitSpec(seed=8))
        report = evaluate_pipeline(train_part, test_part, SMALL_CONFIG)
        recomputed = confusion(
            [p for _, p, _ in report.predictions],
            [a for _, _, a in report.predictions],
            report.confusion.positive_class,
        )
        assert recomputed == report.confusion
        assert metrics(recomputed).accuracy == report.accuracy

    def test_unlabeled_rejected(self):
        labeled = make_corpus(labeled_pairs(4, 4))
        unlabeled = make_corpus(
            [(f"u{i}", ["hello world"], None) for i in range(4)], labeled=False
        )
        with pytest.raises(UnlabeledCorpus):
            evaluate_pipeline(unlabeled, labeled, SMALL_CONFIG)
        model = fit_pipeline(labeled, SMALL_CONFIG)
        with pytest.raises(UnlabeledCorpus):
            evaluate_model(model, unlabeled)


class TestGridSearch:
    def test_singleton_grid_equals_evaluate_pipeline(self):
        corpus = make_corpus(labeled_pairs(8, 8))
        spec = SplitSpec(seed=4)
        results = grid_search(corpus, [SMALL_CONFIG], spec)
        assert len(results) == 1
        train_part, test_part = split_corpus(corpus, spec)
        direct = evaluate_pipeline(train_part, test_part, SMALL_CONFIG)
        assert results[0].mean_accuracy == direct.accuracy
        assert results[0].reports[0].confusion == direct.confusion

    def test_two_final_configs_rank_deterministically(self):
        corpus = make_corpus(labeled_pairs(8, 8))
        grid = [FINAL_EN_CONFIG, FINAL_ES_CONFIG]
        first = grid_search(corpus, grid, SplitSpec(seed=2))
        second = grid_search(corpus, list(reversed(grid)), SplitSpec(seed=2))
        assert [r.config.key() for r in first] == [r.config.key() for r in second]
        accuracies = [r.mean_accuracy for r in first]
        assert accuracies == sorted(accuracies, reverse=True)

    def test_empty_grid(self):
        corpus = make_corpus(labeled_pairs(4, 4))
        with pytest.raises(EmptyGrid):
            grid_search(corpus, [], SplitSpec())

    def test_default_grid_covers_documented_axes(self):
        grid = default_grid()
        keys = {c.key() for c in grid}
        assert len(keys) == len(grid)
        ranges = {(v.range.min_n, v.range.max_n) for c in grid for v in c.vectorizers}
        assert ranges == {(1, 3), (2, 7), (3, 7)}
        caps = {v.max_features for c in grid for v in c.vectorizers}
        assert caps == {1000, 3000, 5000, 10000, 50000}
        min_dfs = {v.min_df for c in grid for v in c.vectorizers}
        assert min_dfs == {1, 2, 3}
        weightings = {v.weighting for c in grid for v in c.vectorizers}
        assert weightings == {Weighting.TFIDF, Weighting.COUNT}
        models = {c.model_kind for c in grid}
        assert models == {ModelKind.SVM, ModelKind.LOGREG}
        # every combination of the example axes appears
        for ngram_range in ((1, 3), (2, 7), (3, 7)):
            for cap in (1000, 3000, 5000, 10000, 50000):
                for kind in (ModelKind.SVM, ModelKind.LOGREG):
                    assert any(
                        c.model_kind is kind
                        and (c.vectorizers[0].range.min_n, c.vectorizers[0].range.max_n)
                        == ngram_range
                        and c.vectorizers[0].max_features == cap
                        for c in grid
                    )

    def test_folds_option(self):
        corpus = make_corpus(labeled_pairs(9, 9))
        results = grid_search(corpus, [SMALL_CONFIG], SplitSpec(seed=1), folds=3)
        assert len(results[0].reports) == 3
        total_eval = sum(r.confusion.total for r in results[0].reports)
        assert total_eval == 18  # every author held out exactly once


TWO_BLOCKS = PipelineConfig(
    vectorizers=(
        VectorizerConfig(range=NgramRange(1, 2), max_features=150, min_df=1),
        VectorizerConfig(range=NgramRange(3, 5), max_features=400, min_df=2,
                         weighting=Weighting.COUNT),
    ),
    model_kind=ModelKind.LOGREG,
)


@pytest.fixture(scope="module")
def hard_corpus(tmp_path_factory):
    """Few tweets per author, so configurations disagree on accuracy."""
    path = tmp_path_factory.mktemp("grid") / "en"
    generate_corpus_dir(path, authors_per_class=9, tweets_per_author=3, seed=5, language="en")
    with pytest.warns(UserWarning):
        return load_corpus(path, "en")


class TestSharedGrid:
    """The grid shares preprocessing, counting and fitting across
    configurations; its output must equal scoring each configuration on
    its own."""

    GRID = default_grid(
        ranges=(NgramRange(1, 3), NgramRange(2, 4)),
        min_dfs=(1, 2),
        max_features=(300,),
    ) + [TWO_BLOCKS]

    @pytest.mark.parametrize("folds", [1, 3])
    def test_equals_per_config_evaluation(self, hard_corpus, folds):
        spec = SplitSpec(seed=11)
        pairs = split_folds(hard_corpus, spec, folds)
        expected = []
        for config in self.GRID:
            reports = tuple(evaluate_pipeline(train, test, config) for train, test in pairs)
            mean = sum(r.accuracy for r in reports) / len(reports)
            expected.append(GridResult(config=config, mean_accuracy=mean, reports=reports))
        expected.sort(key=lambda r: (-r.mean_accuracy, r.config.key()))
        assert len({round(r.mean_accuracy, 4) for r in expected}) > 1

        shared = grid_search(hard_corpus, list(reversed(self.GRID)), spec, folds=folds)
        assert render_grid_tsv(shared) == render_grid_tsv(expected)
        assert render_grid_report(shared) == render_grid_report(expected)
        assert shared == expected

    @pytest.mark.parametrize("folds", [1, 3])
    def test_every_vocabulary_comes_from_training_authors_only(
        self, hard_corpus, folds, monkeypatch
    ):
        spec = SplitSpec(seed=11)
        pairs = split_folds(hard_corpus, spec, folds)
        # On the single split, give every test author an n-gram that no
        # training author has.
        tagged = set(pairs[0][1].author_ids()) if folds == 1 else set()
        corpus = Corpus(hard_corpus.language, tuple(
            AuthorDocument(a.author_id, a.tweets + (("qxjqxj",) if a.author_id in tagged else ()),
                           a.label)
            for a in hard_corpus
        ))
        grid = self.GRID + [PipelineConfig(
            vectorizers=(VectorizerConfig(range=NgramRange(1, 6)),), model_kind=ModelKind.SVM
        )]

        authors_of, fitted = {}, []

        class RecordingCounts(NgramCounts):
            def __init__(self, streams):
                super().__init__(streams)
                authors_of[id(self)] = [stream.author_id for stream in streams]

        def recording_fit(counts, config):
            vocab = fit_vocabulary(counts, config)
            fitted.append((authors_of[id(counts)], config, vocab))
            return vocab

        monkeypatch.setattr(evaluation, "NgramCounts", RecordingCounts)
        monkeypatch.setattr(evaluation, "fit_vocabulary", recording_fit)
        grid_search(corpus, grid, spec, folds=folds)

        blocks = {vc for config in grid for vc in config.vectorizers}
        assert len(fitted) == len(blocks) * len(pairs)
        streams = {s.author_id: s for s in
                   preprocess_corpus(corpus, load_stopwords(corpus.language))}
        train_sides = [train.author_ids() for train, _ in pairs]
        for author_ids, config, vocab in fitted:
            assert author_ids in train_sides
            alone = fit_vocabulary([streams[author_id] for author_id in author_ids], config)
            assert vocab == alone
            assert not any("qxj" in term for term in vocab.term_to_index)
        if tagged:  # the tag would show in an uncapped vocabulary if it leaked
            everyone = fit_vocabulary(list(streams.values()), grid[-1].vectorizers[0])
            assert "qxj" in everyone.term_to_index

    @pytest.mark.parametrize("folds", [1, 3])
    def test_each_side_is_transformed_once_per_vectorizer_group(
        self, hard_corpus, folds, monkeypatch
    ):
        built = []
        block = vectorize._block

        def recording_block(counts, vocab):
            built.append(vocab.config)
            return block(counts, vocab)

        monkeypatch.setattr(vectorize, "_block", recording_block)
        grid_search(hard_corpus, self.GRID, SplitSpec(seed=11), folds=folds)
        groups = {config.vectorizers for config in self.GRID}
        assert len(groups) < len(self.GRID)  # groups hold several classifiers
        assert len(built) == 2 * folds * sum(len(vectorizers) for vectorizers in groups)

    @pytest.mark.parametrize("folds", [1, 3])
    def test_classifiers_of_a_vectorizer_group_share_one_gram(
        self, hard_corpus, folds, monkeypatch
    ):
        shapes = []
        gram = models._gram

        def recording_gram(X):
            shapes.append(X.shape)
            return gram(X)

        monkeypatch.setattr(models, "_gram", recording_gram)
        grid_search(hard_corpus, self.GRID, SplitSpec(seed=11), folds=folds)
        groups = {config.vectorizers for config in self.GRID}
        kinds = {vectorizers: {c.model_kind for c in self.GRID if c.vectorizers == vectorizers}
                 for vectorizers in groups}
        assert set(ModelKind) in kinds.values()
        assert len(shapes) == len(groups) * folds

    def test_unconverged_configurations_are_named(self, hard_corpus):
        """One warning per configuration and split that stops at
        ``max_iterations``, naming both, and none for the others."""
        capped = [replace(config, train=TrainConfig(max_iterations=1))
                  for config in self.GRID if config.model_kind is ModelKind.LOGREG][:2]
        converging = [config for config in self.GRID if config.model_kind is ModelKind.SVM][:2]
        spec, folds = SplitSpec(seed=11), 3
        with pytest.warns(ConvergenceWarning) as caught:
            results = grid_search(hard_corpus, capped + converging, spec, folds=folds)
        messages = sorted(str(w.message) for w in caught)
        assert messages == sorted(
            f"{config.key()} split {split}: optimizer hit max_iterations=1 before "
            f"reaching tolerance {config.train.tolerance}"
            for config in capped
            for split in range(folds)
        )
        assert len(results) == len(capped + converging)


class TestFinalConfigs:
    def test_en_shape(self):
        config = final_config(Language.EN)
        assert config.model_kind is ModelKind.SVM
        (block,) = config.vectorizers
        assert (block.range.min_n, block.range.max_n) == (1, 3)
        assert block.max_features == 3000
        assert block.weighting is Weighting.TFIDF

    def test_es_shape(self):
        config = final_config(Language.ES)
        assert config.model_kind is ModelKind.LOGREG
        first, second = config.vectorizers
        assert (first.range.min_n, first.range.max_n) == (1, 3)
        assert first.max_features == 5000
        assert first.weighting is Weighting.TFIDF
        assert (second.range.min_n, second.range.max_n) == (3, 7)
        assert second.max_features == 50000
        assert second.weighting is Weighting.COUNT


class TestRendering:
    def test_report_has_table5_layout(self):
        corpus = make_corpus(labeled_pairs(6, 6))
        report = evaluate_pipeline(corpus, corpus, SMALL_CONFIG)
        text = render_report(report, heading="model: svm")
        lines = text.splitlines()
        assert "TP\tTN\tFP\tFN\tP\tR\tF1\tAcc" in lines
        assert any(line.startswith("positive class: 1") for line in lines)

    def test_grid_tsv_shape(self):
        corpus = make_corpus(labeled_pairs(6, 6))
        results = grid_search(corpus, [SMALL_CONFIG], SplitSpec(seed=0))
        tsv = render_grid_tsv(results)
        header, row = tsv.strip().splitlines()
        assert header.split("\t") == ["rank", "mean_accuracy", "model", "features", "splits"]
        assert row.split("\t")[0] == "1"
