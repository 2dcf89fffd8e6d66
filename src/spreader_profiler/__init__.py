"""Fake-news-spreader author profiling from character n-grams.

Each public name is imported from its module when it is first read, so
``import spreader_profiler.<module>`` loads that module and what it
imports, and nothing else: ``synth`` and the ``analyze`` command never
load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "AuthorDocument",
        "Corpus",
        "Label",
        "Language",
        "SplitSpec",
        "load_corpus",
        "parse_author_xml",
        "parse_truth_file",
        "render_author_xml",
        "split_corpus",
    ),
    "preprocess": (
        "StopwordList",
        "TokenStream",
        "load_stopwords",
        "preprocess_author",
        "preprocess_corpus",
    ),
    "vectorize": (
        "Analyzer",
        "NgramCounts",
        "NgramRange",
        "SparseVector",
        "VectorizerConfig",
        "Vocabulary",
        "Weighting",
        "extract_char_ngrams",
        "fit_vocabulary",
        "transform",
        "union_transform",
    ),
    "models": (
        "LinearModel",
        "LossKind",
        "ModelKind",
        "TrainConfig",
        "decision_value",
        "decision_values",
        "load_model",
        "predict",
        "save_model",
        "train",
        "train_logreg",
        "train_svm",
    ),
    "evaluation": (
        "ConfusionMatrix",
        "EvalReport",
        "GridResult",
        "PipelineConfig",
        "confusion",
        "default_grid",
        "evaluate_model",
        "evaluate_pipeline",
        "final_config",
        "fit_pipeline",
        "grid_search",
        "metrics",
        "score_corpus",
    ),
    "analysis": ("ClassStats", "CorpusStats", "corpus_stats", "render_stats_table"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
