"""Command-line interface.

One executable, five subcommands: ``analyze`` (corpus statistics),
``train`` (fit the per-language stock system on a seeded split),
``evaluate`` (score a labeled corpus with a saved model), ``predict``
(write truth-file-style predictions for an unlabeled corpus), and
``gridsearch`` (sweep the documented hyperparameter ranges).

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.
A warning that the process's filters let through goes to stderr as one
``warning: <category>: <message>`` line. All primary outputs are
deterministic: the same flags on the same inputs produce byte-identical
files and stdout.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Label, Language, SplitSpec, load_corpus, split_corpus, split_folds
from .errors import DataError, ModelError, UsageError

# The pipeline's modules import numpy, so each command imports the names
# it calls when it runs, and the parser is built without them.
if TYPE_CHECKING:
    from .evaluation import PipelineConfig
    from .vectorize import NgramRange


def _parse_range(text: str) -> NgramRange:
    from .vectorize import NgramRange

    low, _, high = text.partition(":")
    try:
        low, high = int(low), int(high)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from exc
    try:
        return NgramRange(low, high)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad fraction {text!r}") from exc


def _comma_list(parse_one):
    def parse(text: str):
        values = []
        for piece in filter(None, map(str.strip, text.split(","))):
            try:  # the piece is named, where argparse would name this function
                values.append(parse_one(piece))
            except ValueError as exc:
                message = f"invalid {parse_one.__name__} value: {piece!r}"
                raise argparse.ArgumentTypeError(message) from exc
        return tuple(values)

    return parse


def _enum(module: str, name: str):
    """A converter to the enum ``name`` of ``module``, imported when the
    converter is called; the converter has the enum's name, which
    argparse's messages use."""

    def parse(text: str):
        return getattr(import_module(f".{module}", __package__), name)(text)

    parse.__name__ = name
    return parse


def _positive_label(text: str) -> Label:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("positive class must be 0 or 1")
    return Label(int(text))


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser of each subcommand, that raises
    a bad command line as a ``UsageError`` instead of printing its usage
    and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spreader-profiler",
        description="Profile Twitter authors as fake-news spreaders from character n-grams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="corpus directory (author XMLs + truth.txt)")
        p.add_argument(
            "--config",
            help="plain-text key=value file; entries override the corresponding flags",
        )

    p_analyze = sub.add_parser("analyze", help="print per-class corpus statistics")
    add_common(p_analyze)
    p_analyze.add_argument("--lang", required=True, choices=["en", "es"])
    p_analyze.add_argument("--out", help="write the table here instead of stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_train = sub.add_parser("train", help="fit the stock per-language system on a 70/30 split")
    add_common(p_train)
    p_train.add_argument("--lang", required=True, choices=["en", "es"])
    p_train.add_argument("--seed", type=int, default=0, help="split seed (default 0)")
    p_train.add_argument(
        "--fraction", type=_parse_fraction, default=Fraction(7, 10),
        help="train fraction as an exact fraction or decimal (default 7/10)",
    )
    p_train.add_argument("--out", help="write the trained model file here")
    p_train.add_argument("--positive-class", type=_positive_label, default=Label.FAKE_NEWS_SPREADER)
    p_train.add_argument("--model", choices=["svm", "logreg"], help="override the classifier")
    p_train.add_argument("--range", type=_parse_range, help="override the n-gram range (MIN:MAX)")
    p_train.add_argument("--max-features", type=int, help="override the vocabulary cap")
    p_train.add_argument("--min-df", type=int, help="override the document-frequency floor")
    p_train.add_argument("--weighting", choices=["tfidf", "count"], help="override the weighting")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a labeled corpus with a saved model")
    add_common(p_eval)
    p_eval.add_argument("--model", required=True, help="model file from `train`")
    p_eval.add_argument(
        "--split", choices=["all", "train", "test"], default="all",
        help="evaluate the whole corpus or one side of the seeded split",
    )
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--fraction", type=_parse_fraction, default=Fraction(7, 10))
    p_eval.add_argument("--positive-class", type=_positive_label, default=Label.FAKE_NEWS_SPREADER)
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="write author_id:::label lines for a corpus")
    add_common(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", help="prediction file (stdout when omitted)")
    p_pred.set_defaults(func=cmd_predict)

    p_grid = sub.add_parser("gridsearch", help="sweep the documented hyperparameter grid")
    add_common(p_grid)
    p_grid.add_argument("--lang", required=True, choices=["en", "es"])
    p_grid.add_argument("--seed", type=int, default=0)
    p_grid.add_argument("--fraction", type=_parse_fraction, default=Fraction(7, 10))
    p_grid.add_argument("--folds", type=int, default=1, help="stratified folds (default: one split)")
    p_grid.add_argument("--positive-class", type=_positive_label, default=Label.FAKE_NEWS_SPREADER)
    p_grid.add_argument(
        "--ranges", type=_comma_list(_parse_range),
        help="comma-separated n-gram ranges, e.g. 1:3,2:7",
    )
    p_grid.add_argument("--min-df", type=_comma_list(int))
    p_grid.add_argument("--max-features", type=_comma_list(int))
    p_grid.add_argument(
        "--weighting", type=_comma_list(_enum("vectorize", "Weighting")),
        help="comma-separated subset of tfidf,count",
    )
    p_grid.add_argument(
        "--models", type=_comma_list(_enum("models", "ModelKind")),
        help="comma-separated subset of svm,logreg",
    )
    p_grid.add_argument("--out", help="TSV results file; a .report.txt sibling is also written")
    p_grid.set_defaults(func=cmd_gridsearch)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _pipeline_config(args, language: Language) -> PipelineConfig:
    from .evaluation import PipelineConfig, final_config
    from .models import ModelKind
    from .vectorize import VectorizerConfig, Weighting

    config = final_config(language)
    overrides = (args.model, args.range, args.max_features, args.min_df, args.weighting)
    if all(value is None for value in overrides):
        return config
    base = config.vectorizers[0]
    block = VectorizerConfig(
        analyzer=base.analyzer,
        range=args.range if args.range is not None else base.range,
        max_features=args.max_features if args.max_features is not None else base.max_features,
        min_df=args.min_df if args.min_df is not None else base.min_df,
        weighting=Weighting(args.weighting) if args.weighting is not None else base.weighting,
    )
    kind = ModelKind(args.model) if args.model is not None else config.model_kind
    return PipelineConfig(vectorizers=(block,), model_kind=kind, train=config.train)


@contextmanager
def _usage_errors():
    """Configuration objects validate their fields with ``ValueError``;
    built from flags, those are usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_analyze(args) -> int:
    from .analysis import corpus_stats, render_stats_table

    corpus = load_corpus(args.input, args.lang)
    _emit(render_stats_table(corpus_stats(corpus)), args.out)
    return 0


def _split_header(spec: SplitSpec, train_corpus, test_corpus) -> str:
    def sides(corpus):
        counts = corpus.class_counts()
        return f"{len(corpus)} ({counts[Label.TRUE_NEWS_SPREADER]}/{counts[Label.FAKE_NEWS_SPREADER]})"

    return (
        f"split: seed={spec.seed} fraction={spec.train_fraction} "
        f"train={sides(train_corpus)} test={sides(test_corpus)}"
    )


def cmd_train(args) -> int:
    from .evaluation import evaluate_model, fit_pipeline, render_report
    from .models import save_model

    language = Language.parse(args.lang)
    with _usage_errors():
        spec = SplitSpec(train_fraction=args.fraction, seed=args.seed)
        config = _pipeline_config(args, language)
    corpus = load_corpus(args.input, language)
    ((train_part, test_part),) = split_folds(corpus, spec, 1)
    model = fit_pipeline(train_part, config)
    report = evaluate_model(model, test_part, args.positive_class)
    heading = "\n".join(
        [
            _split_header(spec, train_part, test_part),
            f"model: {model.kind.value}  language: {language.value}",
            f"features: {'+'.join(v.key() for v in config.vectorizers)}",
        ]
    )
    if args.out:  # before the report, so that a failed write leaves stdout empty
        save_model(model, args.out)
    sys.stdout.write(render_report(report, heading))
    if args.out:
        sys.stdout.write(f"model written to {args.out}\n")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate_model, render_report
    from .models import load_model

    if args.split != "all":
        with _usage_errors():
            spec = SplitSpec(train_fraction=args.fraction, seed=args.seed)
    model = load_model(args.model)
    corpus = load_corpus(args.input, model.language)
    if args.split != "all":
        train_part, test_part = split_corpus(corpus, spec)
        corpus = train_part if args.split == "train" else test_part
    report = evaluate_model(model, corpus, args.positive_class)
    heading = (
        f"model: {model.kind.value}  language: {model.language.value}  "
        f"authors: {len(corpus)}  split: {args.split}"
    )
    sys.stdout.write(render_report(report, heading))
    return 0


def cmd_predict(args) -> int:
    from .evaluation import score_corpus
    from .models import label_of, load_model

    model = load_model(args.model)
    corpus = load_corpus(args.input, model.language)
    lines = [
        f"{author.author_id}:::{int(label_of(value))}"
        for author, value in zip(corpus, score_corpus(model, corpus).tolist())
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# Each grid flag and the keyword of default_grid that it sets.
_GRID_FLAGS = {
    "ranges": "ranges",
    "min_df": "min_dfs",
    "max_features": "max_features",
    "weighting": "weightings",
    "models": "models",
}


def cmd_gridsearch(args) -> int:
    from .evaluation import default_grid, grid_search, render_grid_report, render_grid_tsv

    language = Language.parse(args.lang)
    given = {}  # a flag not given keeps default_grid's documented values
    for flag, keyword in _GRID_FLAGS.items():
        values = getattr(args, flag)
        if values is None:
            continue
        if not values:
            raise UsageError(f"--{flag.replace('_', '-')} needs at least one value")
        given[keyword] = values
    with _usage_errors():
        spec = SplitSpec(train_fraction=args.fraction, seed=args.seed)
        grid = default_grid(**given)
    if args.folds < 1:
        raise UsageError(f"--folds must be >= 1, got {args.folds}")
    corpus = load_corpus(args.input, language)
    results = grid_search(corpus, grid, spec, args.positive_class, folds=args.folds)
    _emit(render_grid_tsv(results), args.out)
    if args.out:
        Path(args.out).with_suffix(Path(args.out).suffix + ".report.txt").write_text(
            render_grid_report(results), encoding="utf-8"
        )
    return 0


def _read_config_overrides(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except IsADirectoryError as exc:
        raise DataError(f"{path} is a directory, not a config file") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    extra: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if "\0" in line:  # argv cannot hold one, and no path may
            raise DataError(f"{path}:{lineno}: a config line may not hold a NUL, got {line!r}")
        extra.extend([f"--{key.strip()}", value.strip()])
    return extra


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def run(argv: list[str]) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(list(argv) + _read_config_overrides(args.config))
        return args.func(args)
    except SystemExit as exc:  # -h, once the help is printed
        return 0 if exc.code in (0, None) else 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a path that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
