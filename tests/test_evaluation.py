import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spreader_profiler import cli, evaluation, models, vectorize
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
    union_transform,
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

    def test_fit_pipeline_frees_its_counts(self, monkeypatch):
        made = []  # weak references to each counts and its arrays, key space last

        class RecordingCounts(NgramCounts):
            def __init__(self, streams, max_n):
                super().__init__(streams, max_n)
                arrays = (self.matrix.data, self.matrix.indices, self.matrix.indptr, self.df)
                made.append(list(map(weakref.ref, (self, *arrays, self.key_space))))

        monkeypatch.setattr(evaluation, "NgramCounts", RecordingCounts)
        model = fit_pipeline(make_corpus(labeled_pairs(4, 4)), SMALL_CONFIG)
        assert len(made) == 1
        *freed, key_space = made[0]
        assert [ref() for ref in freed] == [None] * len(freed)
        (vocab,) = model.feature_spec
        assert key_space() is vocab.key_space and len(vocab.fitted_columns) == len(vocab)
        assert set(vars(vocab.key_space)) == {"alphabet", "base", "keys", "first"}

    @pytest.mark.parametrize("language", [Language.EN, Language.ES])
    def test_fitted_and_loaded_models_score_the_held_out_side_alike(
        self, language, tmp_path, monkeypatch
    ):
        """A fitted model's vocabularies are mapped onto the held-out
        counts from the key space they were fitted in, and the same model
        read from its file from key spaces of their own terms: both give
        the same decision values, bit for bit, also on held-out authors
        without some of the fitted terms and symbols."""
        generate_corpus_dir(tmp_path / "corpus", authors_per_class=6, tweets_per_author=10,
                            seed=7, language=language)
        with pytest.warns(UserWarning):
            corpus = load_corpus(tmp_path / "corpus", language)
        train_part, test_part = split_corpus(corpus, SplitSpec(seed=5))
        model = fit_pipeline(train_part, final_config(language))
        models.save_model(model, tmp_path / "model.txt")
        loaded = models.load_model(tmp_path / "model.txt")
        assert loaded.feature_spec == model.feature_spec
        held_out = preprocess_corpus(test_part, load_stopwords(language))
        # "a" and "e" become symbols no training author has, and one author has none
        swapped = str.maketrans({"a": "\u2603", "e": "\U0001f700"})
        without = [replace(s, tokens=tuple(t.translate(swapped) for t in s.tokens))
                   for s in held_out] + [replace(held_out[0], author_id="silent", tokens=())]
        sources = []  # the key space of each column map made
        column_map = vectorize._column_map

        def recording_map(source, target):
            sources.append(source)
            return column_map(source, target)

        monkeypatch.setattr(vectorize, "_column_map", recording_map)
        for side in (held_out, without):
            sources.clear()
            fitted = models.decision_values(model, side)
            assert sources == [model.feature_spec[0].key_space]  # one map serves every block
            read = models.decision_values(loaded, side)
            # one map for each block read, from the key space of its own terms
            assert sources[1:] == [vocab.key_space for vocab in loaded.feature_spec]
            assert len(set(map(id, sources))) == 1 + len(loaded.feature_spec)
            assert fitted.dtype == read.dtype and fitted.tobytes() == read.tobytes()

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

    def test_mean_accuracy_is_the_same_in_every_fold_order(self, monkeypatch):
        # Added left to right, the 6 orders of these folds give 2 means.
        fold_accuracies = (1 / 7, 1 / 7, 4 / 7)
        corpus = make_corpus(labeled_pairs(9, 9))
        report = evaluation._report
        means = set()
        for order in itertools.permutations(fold_accuracies):
            accuracies = iter(order)
            monkeypatch.setattr(
                evaluation, "_report",
                lambda *args: replace(report(*args), accuracy=next(accuracies)),
            )
            results = grid_search(corpus, [SMALL_CONFIG], SplitSpec(seed=1), folds=3)
            assert [r.accuracy for r in results[0].reports] == list(order)
            means.add(results[0].mean_accuracy)
        assert means == {math.fsum(fold_accuracies) / 3}


TWO_BLOCKS = PipelineConfig(
    vectorizers=(
        VectorizerConfig(range=NgramRange(1, 2), max_features=150, min_df=1),
        VectorizerConfig(range=NgramRange(3, 5), max_features=400, min_df=2,
                         weighting=Weighting.COUNT),
    ),
    model_kind=ModelKind.LOGREG,
)


# Count weighting, [1;3], cap 300: min_df 1 and 2 keep one term list on
# every split of the hard corpus, under different classifiers.
SHARED_TERMS = [
    PipelineConfig(
        vectorizers=(VectorizerConfig(range=NgramRange(1, 3), max_features=300, min_df=min_df,
                                      weighting=Weighting.COUNT),),
        model_kind=model_kind,
    )
    for min_df, model_kind in ((1, ModelKind.SVM), (2, ModelKind.LOGREG))
]

# The block of a single-block configuration of the grid below, twice.
REPEATED_BLOCK = PipelineConfig(
    vectorizers=(
        VectorizerConfig(range=NgramRange(2, 4), max_features=300, min_df=2),
        VectorizerConfig(range=NgramRange(2, 4), max_features=300, min_df=2,
                         weighting=Weighting.COUNT),
    ),
    model_kind=ModelKind.SVM,
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

    # SHARED_TERMS repeats two of the default grid's configurations, and
    # each list entry is reported.
    GRID = default_grid(
        ranges=(NgramRange(1, 3), NgramRange(2, 4)),
        min_dfs=(1, 2),
        max_features=(300,),
    ) + [TWO_BLOCKS, REPEATED_BLOCK] + SHARED_TERMS

    @pytest.mark.parametrize("folds", [1, 3])
    def test_equals_per_config_evaluation(self, hard_corpus, folds):
        spec = SplitSpec(seed=11)
        pairs = split_folds(hard_corpus, spec, folds)
        expected = []
        for config in self.GRID:
            reports = tuple(evaluate_pipeline(train, test, config) for train, test in pairs)
            mean = math.fsum(r.accuracy for r in reports) / len(reports)
            expected.append(GridResult(config=config, mean_accuracy=mean, reports=reports))
        expected.sort(key=lambda r: (-r.mean_accuracy, r.config.key()))
        assert len({round(r.mean_accuracy, 4) for r in expected}) > 1

        shared = grid_search(hard_corpus, list(reversed(self.GRID)), spec, folds=folds)
        assert render_grid_tsv(shared) == render_grid_tsv(expected)
        assert render_grid_report(shared) == render_grid_report(expected)
        assert shared == expected

    def test_fits_reweighting_and_the_grid_spell_no_term(self, hard_corpus, monkeypatch):
        """Every vocabulary the grid fits or re-weighs holds its terms as
        keys alone: with the speller patched to fail, the grid runs, and
        no vocabulary keeps a term."""
        made = []

        def keeping(name, function):
            def kept(*args):
                made.append((name, function(*args)))
                return made[-1][1]
            return kept

        def spelled(*args):
            raise AssertionError("terms spelled")

        monkeypatch.setattr(vectorize, "_spelled", spelled)
        monkeypatch.setattr(evaluation, "fit_vocabulary", keeping("fit", fit_vocabulary))
        monkeypatch.setattr(evaluation, "with_weighting",
                            keeping("weigh", vectorize.with_weighting))
        grid_search(hard_corpus, self.GRID, SplitSpec(seed=11))
        fits = [vocab for name, vocab in made if name == "fit"]
        reweighed = [vocab for name, vocab in made
                     if name == "weigh" and not any(vocab is fit for fit in fits)]
        assert fits and reweighed
        assert not any("_terms" in vars(vocab) for _, vocab in made)

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

        authors_of, selected, fitted = {}, [], []

        class RecordingCounts(NgramCounts):
            def __init__(self, streams, max_n):
                super().__init__(streams, max_n)
                authors_of[id(self)] = [stream.author_id for stream in streams]

        def recording_selection(counts, config):
            columns = vectorize.selected_columns(counts, config)
            selected.append((authors_of[id(counts)], config, tuple(counts.terms(columns))))
            return columns

        def recording_fit(counts, config):
            vocab = fit_vocabulary(counts, config)
            fitted.append((authors_of[id(counts)], config, vocab))
            return vocab

        monkeypatch.setattr(evaluation, "NgramCounts", RecordingCounts)
        monkeypatch.setattr(evaluation, "selected_columns", recording_selection)
        monkeypatch.setattr(evaluation, "fit_vocabulary", recording_fit)
        grid_search(corpus, grid, spec, folds=folds)

        # one selection per split for each block's terms, whatever its
        # weighting, and however many configurations share the block
        blocks = {replace(vc, weighting=Weighting.COUNT) for c in grid for vc in c.vectorizers}
        assert len(selected) == len({(tuple(a), c) for a, c, _ in selected}) == len(blocks) * folds
        repeated = REPEATED_BLOCK.vectorizers[1]  # also a single-block configuration's block
        assert sum(config == repeated for _, config, _ in selected) == folds
        # one fit per split for each distinct term list of a term-list tuple
        streams = {s.author_id: s for s in
                   preprocess_corpus(corpus, load_stopwords(corpus.language))}
        term_lists = [{tuple(terms for terms, _ in matrix) for matrix in matrices}
                      for matrices in self._distinct_matrices(grid, corpus, pairs)]
        assert len(fitted) == sum(len(set(lists)) for split in term_lists for lists in split)
        assert len(fitted) < len(selected)
        train_sides = [train.author_ids() for train, _ in pairs]
        for author_ids, config, terms in selected:
            assert author_ids in train_sides
            alone = fit_vocabulary([streams[author_id] for author_id in author_ids], config)
            assert sorted(terms) == sorted(alone.terms())
        for author_ids, config, vocab in fitted:
            assert author_ids in train_sides
            alone = fit_vocabulary([streams[author_id] for author_id in author_ids], config)
            assert vocab == alone
            assert not any("qxj" in term for term in vocab.term_to_index)
        if tagged:  # the tag would show in an uncapped vocabulary if it leaked
            everyone = fit_vocabulary(list(streams.values()), grid[-1].vectorizers[0])
            assert "qxj" in everyone.term_to_index

    @staticmethod
    def _distinct_matrices(grid, corpus, pairs):
        """Per split, each distinct training matrix of the grid, named by
        its blocks' terms (fitted alone) and weightings."""
        streams = {s.author_id: s for s in
                   preprocess_corpus(corpus, load_stopwords(corpus.language))}
        return [
            {
                tuple(
                    (tuple(fit_vocabulary(train_streams, vc).terms()), vc.weighting)
                    for vc in config.vectorizers
                )
                for config in grid
            }
            for train_streams in (
                [streams[author_id] for author_id in train.author_ids()] for train, _ in pairs
            )
        ]

    @pytest.mark.parametrize("folds", [1, 3])
    def test_each_side_is_counted_once_per_term_list(self, hard_corpus, folds, monkeypatch):
        """One count matrix per side for each distinct term list of each
        term-list tuple of a split: the training side's from the fit's
        columns, the held-out side's through one column map per split
        from the fit's key space."""
        built, maps = [], []  # (key space, whether the fit's); (source, target)
        block, column_map = vectorize._block, vectorize._column_map

        def recording_block(counts, vocab):
            built.append((counts.key_space, vocab.key_space is counts.key_space))
            return block(counts, vocab)

        def recording_map(source, target):
            maps.append((source, target))
            return column_map(source, target)

        monkeypatch.setattr(vectorize, "_block", recording_block)
        monkeypatch.setattr(vectorize, "_column_map", recording_map)
        spec = SplitSpec(seed=11)
        grid_search(hard_corpus, self.GRID, spec, folds=folds)
        pairs = split_folds(hard_corpus, spec, folds)
        term_lists = sum(
            len(set(lists))
            for matrices in self._distinct_matrices(self.GRID, hard_corpus, pairs)
            for lists in {tuple(terms for terms, _ in matrix) for matrix in matrices}
        )
        assert term_lists < sum(len(c.vectorizers) for c in self.GRID) * folds  # some shared
        assert len(built) == 2 * term_lists
        assert sum(fitted for _, fitted in built) == term_lists
        training_sides = list(dict.fromkeys(space for space, fitted in built if fitted))
        assert len(training_sides) == folds
        assert [source for source, _ in maps] == training_sides  # one map per split
        assert {target for _, target in maps} == {space for space, fitted in built if not fitted}

    @pytest.mark.parametrize("folds", [1, 3])
    def test_classifiers_of_a_vectorizer_group_share_one_gram(
        self, hard_corpus, folds, monkeypatch
    ):
        shapes = []
        gram = models.row_gram

        def recording_gram(X):
            shapes.append(X.shape)
            return gram(X)

        # the grid's own builds and any the trainer would make itself
        monkeypatch.setattr(evaluation, "row_gram", recording_gram)
        monkeypatch.setattr(models, "row_gram", recording_gram)
        spec = SplitSpec(seed=11)
        grid_search(hard_corpus, self.GRID, spec, folds=folds)
        groups = {config.vectorizers for config in self.GRID}
        kinds = {vectorizers: {c.model_kind for c in self.GRID if c.vectorizers == vectorizers}
                 for vectorizers in groups}
        assert set(ModelKind) in kinds.values()
        # one Gram per distinct matrix: groups whose terms are equal share it too
        pairs = split_folds(hard_corpus, spec, folds)
        matrices = self._distinct_matrices(self.GRID, hard_corpus, pairs)
        assert len(shapes) == sum(map(len, matrices)) < len(groups) * folds

    # Both caps are above the term count, so each (range, min_df) keeps one
    # term list under two caps.
    SATURATING = default_grid(
        ranges=(NgramRange(1, 2), NgramRange(1, 3)), min_dfs=(1, 2), max_features=(10**5, 10**6)
    )

    @staticmethod
    def _builds_per_split(monkeypatch, corpus, grid, folds):
        """Per split, what the grid search built, by kind: the arguments
        that tell each build apart."""
        events = []

        def record(name, function, event):
            def recording(*args, **kwargs):
                events.append((name, event(*args, **kwargs)))
                return function(*args, **kwargs)
            return recording

        def matrix(X):
            return X.shape, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes()

        def block(counts, vc):
            return vc.range, vc.min_df, vc.max_features

        monkeypatch.setattr(NgramCounts, "__init__",
                            record("counts", NgramCounts.__init__, lambda *a: None))
        monkeypatch.setattr(evaluation, "selected_columns",
                            record("select", vectorize.selected_columns, block))
        monkeypatch.setattr(evaluation, "fit_vocabulary", record("fit", fit_vocabulary, block))
        monkeypatch.setattr(vectorize, "_block", record(
            "block", vectorize._block, lambda counts, vocab: tuple(vocab.terms())))
        gram = record("gram", models.row_gram, matrix)
        monkeypatch.setattr(evaluation, "row_gram", gram)
        monkeypatch.setattr(models, "row_gram", gram)
        monkeypatch.setattr(evaluation, "train", record(
            "train", models.train, lambda X, y, config, **kw: (matrix(X), config.loss)))
        grid_search(corpus, grid, SplitSpec(seed=11), folds=folds)

        starts = [i for i, (name, _) in enumerate(events) if name == "counts"][::2]
        assert len(starts) == folds
        splits = []
        for start, end in zip(starts, starts[1:] + [len(events)]):
            splits.append({})
            for name, event in events[start:end]:
                splits[-1].setdefault(name, []).append(event)
            assert len(splits[-1]["counts"]) == 2  # one NgramCounts per side
        return splits

    @pytest.mark.parametrize("folds", [1, 3])
    def test_builds_per_split_on_a_grid_whose_caps_saturate(
        self, hard_corpus, folds, monkeypatch
    ):
        assert len(self.SATURATING) == 32
        for split in self._builds_per_split(monkeypatch, hard_corpus, self.SATURATING, folds):
            # one selection per (range, min_df, max_features); 4 term lists
            # of 8 selections, each fitted once
            assert len(split["select"]) == len(set(split["select"])) == 8
            assert len(split["fit"]) == len(set(split["fit"])) == 4
            assert len(split["block"]) == 2 * len(set(split["block"])) == 2 * 4
            # one Gram per (weighting, term list); one model per (matrix, classifier)
            assert len(split["gram"]) == len(set(split["gram"])) == 2 * 4
            assert len(split["train"]) == len(set(split["train"])) == 2 * 2 * 4

    @pytest.mark.parametrize("folds", [1, 3])
    def test_classifiers_of_one_term_list_share_its_matrices(
        self, hard_corpus, folds, monkeypatch
    ):
        """Two configurations that keep one term list under different
        classifiers: one count matrix per side and one Gram per split."""
        pairs = split_folds(hard_corpus, SplitSpec(seed=11), folds)
        assert all(
            len(matrices) == 1
            for matrices in self._distinct_matrices(SHARED_TERMS, hard_corpus, pairs)
        )
        for split in self._builds_per_split(monkeypatch, hard_corpus, SHARED_TERMS, folds):
            assert len(split["select"]) == 2
            assert len(split["fit"]) == 1
            assert len(split["block"]) == 2  # one per side
            assert len(split["gram"]) == 1
            assert len(split["train"]) == len(set(split["train"])) == 2

    @pytest.mark.parametrize("folds", [1, 3])
    def test_every_matrix_equals_its_configuration_transformed_alone(
        self, hard_corpus, folds, monkeypatch
    ):
        """Bit for bit: the synthetic grids' scores cannot show a drifted
        matrix."""
        sides, trained = [], []

        class RecordingCounts(NgramCounts):
            def __init__(self, streams, max_n):
                super().__init__(streams, max_n)
                sides.append(tuple(stream.author_id for stream in streams))

        fit, values = evaluation._fit, evaluation.decision_values

        def recording_fit(vocabularies, X, labels, config, *args):
            trained.append([tuple(sides[-2:]), config, X])
            return fit(vocabularies, X, labels, config, *args)

        def recording_values(model, X_test):
            trained[-1].append(X_test)
            return values(model, X_test)

        monkeypatch.setattr(evaluation, "NgramCounts", RecordingCounts)
        monkeypatch.setattr(evaluation, "_fit", recording_fit)
        monkeypatch.setattr(evaluation, "decision_values", recording_values)
        grid_search(hard_corpus, self.GRID, SplitSpec(seed=11), folds=folds)

        streams = {s.author_id: s for s in
                   preprocess_corpus(hard_corpus, load_stopwords(hard_corpus.language))}

        def signature(X):
            return (X.shape, X.data.dtype, X.indices.dtype, X.data.tobytes(), X.indices.tobytes(),
                    X.indptr.tobytes())

        def alone(split, config):
            train_side, test_side = ([streams[a] for a in side] for side in split)
            vocabs = tuple(fit_vocabulary(train_side, vc) for vc in config.vectorizers)
            return signature(union_transform(train_side, vocabs)), signature(
                union_transform(test_side, vocabs))

        built = {}
        for split, config, X, X_test in trained:
            assert alone(split, config) == (signature(X), signature(X_test))
            built.setdefault(split, set()).add((signature(X), signature(X_test)))
        assert len(built) == folds
        for split, matrices in built.items():
            assert {alone(split, config) for config in self.GRID} == matrices

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


class TestCountedLengths:
    """Every ``NgramCounts`` counts each length up to the longest of its
    caller's configurations, and no further."""

    @pytest.fixture
    def counted(self, monkeypatch):
        lengths = []
        init = NgramCounts.__init__

        def recording_init(self, streams, max_n):
            init(self, streams, max_n)
            lengths.append(len(self.key_space.keys))

        monkeypatch.setattr(NgramCounts, "__init__", recording_init)
        return lengths

    def test_stock_es_fit_and_evaluate_count_to_seven(self, counted, tmp_path):
        generate_corpus_dir(tmp_path / "es", authors_per_class=6, tweets_per_author=10, seed=7,
                            language="es")
        with pytest.warns(UserWarning):
            train_part, test_part = split_corpus(load_corpus(tmp_path / "es", "es"), SplitSpec())
        model = fit_pipeline(train_part, FINAL_ES_CONFIG)
        assert counted == [7]
        evaluate_model(model, test_part)
        assert counted == [7, 7]

    @pytest.mark.parametrize("folds", [1, 3])
    def test_golden_grid_counts_to_four_per_side(self, counted, folds, tmp_path, capsys):
        from test_golden_grid import GRID_FLAGS

        generate_corpus_dir(tmp_path / "en", authors_per_class=10, tweets_per_author=2, seed=3,
                            language="en")
        assert cli.run(["gridsearch", "--input", str(tmp_path / "en"), "--lang", "en",
                        "--seed", "3", "--folds", str(folds), *GRID_FLAGS]) == 0
        capsys.readouterr()
        assert counted == [4] * (2 * folds)


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
