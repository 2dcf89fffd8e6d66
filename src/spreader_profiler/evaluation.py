"""Model evaluation and hyperparameter search.

Confusion-matrix metrics over a declared positive class, a train/test
driver that fits vocabularies strictly on the training corpus, and a
deterministic grid-search runner over the vectorizer/model space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, Label, Language, SplitSpec, split_folds
from .errors import ConvergenceWarning, EmptyGrid, EmptyMatrix, LengthMismatch, UnlabeledCorpus
from .models import (
    LOSS_FOR_KIND,
    LinearModel,
    ModelKind,
    TrainConfig,
    decision_values,
    label_of,
    row_gram,
    train,
)
from .preprocess import StopwordList, load_stopwords, preprocess_corpus
from .vectorize import (
    Analyzer,
    NgramCounts,
    NgramRange,
    VectorizerConfig,
    Weighting,
    fit_vocabulary,
    union_transform,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int
    positive_class: Label = Label.FAKE_NEWS_SPREADER

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def reoriented(self, positive_class: Label) -> "ConfusionMatrix":
        """The same predictions counted with the other class as positive:
        tp and tn swap, fp and fn swap."""
        if positive_class == self.positive_class:
            return self
        return ConfusionMatrix(
            tp=self.tn, tn=self.tp, fp=self.fn, fn=self.fp, positive_class=positive_class
        )


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float
    degenerate: bool = False


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    precision: float
    recall: float
    f1: float
    accuracy: float
    degenerate: bool
    predictions: tuple[tuple[str, Label, Label], ...]  # (author_id, predicted, actual)
    ties: int = 0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to go from a corpus to a trained model: one or
    more vectorizer blocks (feature union) plus the classifier."""

    vectorizers: tuple[VectorizerConfig, ...]
    model_kind: ModelKind
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if not self.vectorizers:
            raise ValueError("pipeline needs at least one vectorizer block")

    def key(self) -> str:
        """Canonical description; doubles as the deterministic sort key."""
        blocks = "+".join(v.key() for v in self.vectorizers)
        return f"{self.model_kind.value}|{blocks}"


@dataclass(frozen=True)
class GridResult:
    config: PipelineConfig
    mean_accuracy: float
    reports: tuple[EvalReport, ...]


def confusion(
    preds: list[Label],
    truth: list[Label],
    positive_class: Label = Label.FAKE_NEWS_SPREADER,
) -> ConfusionMatrix:
    if len(preds) != len(truth):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truth)} labels")
    if not preds:
        raise EmptyMatrix("cannot build a confusion matrix from zero predictions")
    tp = tn = fp = fn = 0
    for predicted, actual in zip(preds, truth):
        if predicted == positive_class:
            if actual == positive_class:
                tp += 1
            else:
                fp += 1
        else:
            if actual == positive_class:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn, positive_class=positive_class)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Precision, recall, F1 and accuracy from a confusion matrix.

    Undefined ratios (zero denominators) come back as 0.0 with the
    ``degenerate`` flag raised rather than as an error.
    """
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix is empty")
    degenerate = False
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision, degenerate = 0.0, True
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    accuracy = (cm.tp + cm.tn) / cm.total
    return Metrics(
        precision=precision, recall=recall, f1=f1, accuracy=accuracy, degenerate=degenerate
    )


def _features(counts: NgramCounts, vectorizers: tuple[VectorizerConfig, ...]):
    """Fit every vectorizer block on the counts and transform them: the
    vocabularies and the training matrix."""
    vocabularies = tuple(fit_vocabulary(counts, vc) for vc in vectorizers)
    return vocabularies, union_transform(counts, vocabularies)


def _fit(
    vocabularies, X, labels: list[Label], config: PipelineConfig, language, gram=None
) -> LinearModel:
    """Train the configured classifier on a fitted training matrix
    (``gram`` is ``row_gram(X)``, when the caller has it)."""
    loss = LOSS_FOR_KIND[config.model_kind]
    return train(X, labels, replace(config.train, loss=loss), feature_spec=vocabularies,
                 language=language, gram=gram)


def fit_pipeline(
    train_corpus: Corpus,
    config: PipelineConfig,
    stopwords: StopwordList | None = None,
) -> LinearModel:
    """Preprocess the training corpus, fit every vectorizer block on it,
    and train the classifier. Nothing outside ``train_corpus`` is seen.
    The blocks share one ``NgramCounts``, so each n-gram length is
    counted once for fit and transform together."""
    if not train_corpus.is_labeled:
        raise UnlabeledCorpus("training needs labels")
    if stopwords is None:
        stopwords = load_stopwords(train_corpus.language)
    counts = NgramCounts(preprocess_corpus(train_corpus, stopwords))
    vocabularies, X = _features(counts, config.vectorizers)
    labels = [author.label for author in train_corpus]
    return _fit(vocabularies, X, labels, config, train_corpus.language)


def _report(corpus: Corpus, values: np.ndarray, positive_class: Label) -> EvalReport:
    """Label each author of a labeled corpus from its decision value and
    count the outcome."""
    values = values.tolist()
    predictions = [
        (author.author_id, label_of(value), author.label)
        for author, value in zip(corpus, values)
    ]
    cm = confusion([p for _, p, _ in predictions], [a for _, _, a in predictions], positive_class)
    m = metrics(cm)
    return EvalReport(
        confusion=cm,
        precision=m.precision,
        recall=m.recall,
        f1=m.f1,
        accuracy=m.accuracy,
        degenerate=m.degenerate,
        predictions=tuple(predictions),
        ties=values.count(0.0),
    )


def evaluate_model(
    model: LinearModel,
    test_corpus: Corpus,
    positive_class: Label = Label.FAKE_NEWS_SPREADER,
    stopwords: StopwordList | None = None,
) -> EvalReport:
    """Score a labeled corpus with a trained model."""
    if not test_corpus.is_labeled:
        raise UnlabeledCorpus("evaluation needs labels")
    if stopwords is None:
        stopwords = load_stopwords(model.language)
    values = decision_values(model, preprocess_corpus(test_corpus, stopwords))
    return _report(test_corpus, values, positive_class)


def evaluate_pipeline(
    train_corpus: Corpus,
    test_corpus: Corpus,
    config: PipelineConfig,
    positive_class: Label = Label.FAKE_NEWS_SPREADER,
) -> EvalReport:
    """Fit on the training corpus only, then score the test corpus."""
    stopwords = load_stopwords(train_corpus.language)
    model = fit_pipeline(train_corpus, config, stopwords=stopwords)
    return evaluate_model(model, test_corpus, positive_class, stopwords=stopwords)


def grid_search(
    corpus: Corpus,
    grid: list[PipelineConfig],
    spec: SplitSpec = SplitSpec(),
    positive_class: Label = Label.FAKE_NEWS_SPREADER,
    folds: int = 1,
) -> list[GridResult]:
    """Evaluate every configuration and rank by mean accuracy.

    By default each configuration is scored on the single seeded
    train/test split given by ``spec``; pass ``folds > 1`` for
    stratified cross-validation instead. Ties in accuracy break on the
    lexicographic order of the configuration key. A warning raised while
    training, such as a ``ConvergenceWarning``, is raised again with the
    configuration key and the split index in its message, so that each
    unconverged model gets its own line.
    """
    if not grid:
        raise EmptyGrid("grid search needs at least one configuration")
    if not corpus.is_labeled:
        raise UnlabeledCorpus("grid search needs labels")
    pairs = split_folds(corpus, spec, folds)

    # Work that does not depend on the configuration is done once: the
    # corpus is preprocessed once, each split side is counted once, and
    # each distinct tuple of vectorizer blocks is fitted, both sides
    # transformed and the Gram matrix built, once per split for all the
    # classifiers that share it.
    stopwords = load_stopwords(corpus.language)
    stream_of = dict(zip(corpus.author_ids(), preprocess_corpus(corpus, stopwords)))
    groups: dict[tuple[VectorizerConfig, ...], list[int]] = {}
    for position, config in enumerate(grid):
        groups.setdefault(config.vectorizers, []).append(position)
    blocks = [vc for vectorizers in groups for vc in vectorizers]
    reports: list[list[EvalReport]] = [[] for _ in grid]
    for split, (train_part, test_part) in enumerate(pairs):
        sides = []
        for part in (train_part, test_part):
            counts = NgramCounts([stream_of[author_id] for author_id in part.author_ids()])
            counts.settle(blocks)  # frees its counting scratch before the next side's is made
            sides.append(counts)
        train_counts, test_counts = sides
        labels = [author.label for author in train_part]
        for vectorizers, positions in groups.items():
            vocabularies, X = _features(train_counts, vectorizers)
            X_test = union_transform(test_counts, vocabularies)
            gram = row_gram(X)
            for position in positions:
                config = grid[position]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ConvergenceWarning)
                    model = _fit(vocabularies, X, labels, config, corpus.language, gram)
                for warning in caught:  # said again with the configuration and split
                    warnings.warn(
                        f"{config.key()} split {split}: {warning.message}",
                        warning.category,
                        stacklevel=2,
                    )
                values = decision_values(model, X_test)
                reports[position].append(_report(test_part, values, positive_class))
            del X, X_test, gram  # before the next group's matrices are built

    results = [
        GridResult(
            config=config,
            mean_accuracy=sum(r.accuracy for r in split_reports) / len(split_reports),
            reports=tuple(split_reports),
        )
        for config, split_reports in zip(grid, reports)
    ]
    results.sort(key=lambda r: (-r.mean_accuracy, r.config.key()))
    return results


# ----------------------------------------------------------------------
# Stock configurations.

FINAL_EN_CONFIG = PipelineConfig(
    vectorizers=(
        VectorizerConfig(
            analyzer=Analyzer.CHAR,
            range=NgramRange(1, 3),
            max_features=3000,
            min_df=1,
            weighting=Weighting.TFIDF,
        ),
    ),
    model_kind=ModelKind.SVM,
)

FINAL_ES_CONFIG = PipelineConfig(
    vectorizers=(
        VectorizerConfig(
            analyzer=Analyzer.CHAR,
            range=NgramRange(1, 3),
            max_features=5000,
            min_df=1,
            weighting=Weighting.TFIDF,
        ),
        VectorizerConfig(
            analyzer=Analyzer.CHAR,
            range=NgramRange(3, 7),
            max_features=50000,
            min_df=1,
            weighting=Weighting.COUNT,
        ),
    ),
    model_kind=ModelKind.LOGREG,
)


def final_config(language: Language) -> PipelineConfig:
    """The submitted per-language system configuration."""
    return FINAL_EN_CONFIG if language is Language.EN else FINAL_ES_CONFIG


GRID_NGRAM_RANGES = (NgramRange(1, 3), NgramRange(2, 7), NgramRange(3, 7))
GRID_MIN_DF = (1, 2, 3)
GRID_MAX_FEATURES = (1000, 3000, 5000, 10000, 50000)
GRID_WEIGHTINGS = (Weighting.TFIDF, Weighting.COUNT)
GRID_MODELS = (ModelKind.SVM, ModelKind.LOGREG)


def default_grid(
    ranges=GRID_NGRAM_RANGES,
    min_dfs=GRID_MIN_DF,
    max_features=GRID_MAX_FEATURES,
    weightings=GRID_WEIGHTINGS,
    models=GRID_MODELS,
) -> list[PipelineConfig]:
    """The full sweep over the documented hyperparameter ranges:
    n-gram range x min_df x max_features x weighting x model."""
    grid = []
    for weighting in weightings:
        for ngram_range in ranges:
            for cap in max_features:
                for min_df in min_dfs:
                    for model_kind in models:
                        grid.append(
                            PipelineConfig(
                                vectorizers=(
                                    VectorizerConfig(
                                        analyzer=Analyzer.CHAR,
                                        range=ngram_range,
                                        max_features=cap,
                                        min_df=min_df,
                                        weighting=weighting,
                                    ),
                                ),
                                model_kind=model_kind,
                            )
                        )
    grid.sort(key=lambda c: c.key())
    return grid


# ----------------------------------------------------------------------
# Deterministic plain-text rendering (no timestamps anywhere).


def render_report(report: EvalReport, heading: str = "") -> str:
    cm = report.confusion
    lines = []
    if heading:
        lines.append(heading)
    lines.append(f"positive class: {cm.positive_class.value} ({cm.positive_class.name.lower()})")
    lines.append("TP\tTN\tFP\tFN\tP\tR\tF1\tAcc")
    lines.append(
        f"{cm.tp}\t{cm.tn}\t{cm.fp}\t{cm.fn}\t"
        f"{report.precision:.4f}\t{report.recall:.4f}\t{report.f1:.4f}\t{report.accuracy:.4f}"
    )
    if report.degenerate:
        lines.append("note: one or more metrics had a zero denominator and report 0.0")
    if report.ties:
        lines.append(f"ties at the decision boundary: {report.ties}")
    return "\n".join(lines) + "\n"


def render_grid_tsv(results: list[GridResult]) -> str:
    """One tab-separated row per configuration, best first."""
    lines = ["rank\tmean_accuracy\tmodel\tfeatures\tsplits"]
    for rank, result in enumerate(results, start=1):
        blocks = "+".join(v.key() for v in result.config.vectorizers)
        lines.append(
            f"{rank}\t{result.mean_accuracy:.4f}\t{result.config.model_kind.value}\t"
            f"{blocks}\t{len(result.reports)}"
        )
    return "\n".join(lines) + "\n"


def render_grid_report(results: list[GridResult]) -> str:
    """Structured per-configuration blocks with full metrics."""
    sections = []
    for rank, result in enumerate(results, start=1):
        section = [f"config {rank}", f"key: {result.config.key()}",
                   f"mean_accuracy: {result.mean_accuracy:.4f}"]
        for position, report in enumerate(result.reports):
            cm = report.confusion
            section.append(
                f"split {position}: tp={cm.tp} tn={cm.tn} fp={cm.fp} fn={cm.fn} "
                f"p={report.precision:.4f} r={report.recall:.4f} "
                f"f1={report.f1:.4f} acc={report.accuracy:.4f}"
            )
        sections.append("\n".join(section))
    return "\n\n".join(sections) + "\n"
