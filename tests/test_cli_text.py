"""The parser's text, pinned: the SHA-256 of every ``--help`` page and the
exact stderr of every usage error that ``test_cli.py`` provokes.

The parser converts flag values through functions that import the
pipeline only when called, and leaves the grid flags' defaults to
``default_grid``; these pins show that no help page or message moved.
argparse lays out and words its text differently from one Python
version to the next, so the pins hold for the version they were
recorded under, at a terminal width of 80 columns.
"""

import hashlib
import sys

import pytest

from spreader_profiler import cli

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse text recorded under Python 3.11"
)

HELP_SHA256 = [
    ([], "68314d530049bc958ac75c2f9e6605e8178223a6b09424b35f13dc9a6c38a193"),
    (["analyze"], "c9698e768fb3f41a4f15a56a64a92cf0479dc958f7f31231a9bb37235eede84e"),
    (["train"], "d8a08b50c63910bca81e54a3f97c066ddbfd2712e5407f9ff2755f75e3cf90c5"),
    (["evaluate"], "e5a207dec1d9dc36f6c56bc8acd99aa8391f26e1284f4dfa303f7d07a8f07dcb"),
    (["predict"], "f9a63321bb452ad5e88ac3e3bd997ca79a74fcdd66efe2c448fdb6514da4e0a9"),
    (["gridsearch"], "438b7b5cdf4f2f9a8476d797803360a8e786e6bd543e7018cb858c030a9f5d18"),
]

CHOICES = "(choose from 'analyze', 'train', 'evaluate', 'predict', 'gridsearch')"

# (argv before --input, stderr after "usage error: ")
USAGE_ERRORS = [
    (["train"], "the following arguments are required: --lang"),
    (["train", "--lang", "en", "--max-features", "0"], "max_features out of [1; 10000000]: 0"),
    (["train", "--lang", "en", "--min-df", "0"], "min_df must be >= 1, got 0"),
    (["train", "--lang", "en", "--fraction", "3/2"], "train_fraction must lie in (0, 1), got 3/2"),
    (["train", "--lang", "en", "--range", "2:1"],
     "argument --range: max_n must be >= min_n, got [2;1]"),
    (["train", "--lang", "en", "--range", "2-3"], "argument --range: expected MIN:MAX, got '2-3'"),
    (["train", "--lang", "xx"], "argument --lang: invalid choice: 'xx' (choose from 'en', 'es')"),
    (["evaluate", "--model", "unused.model", "--split", "test", "--seed", "-1"],
     "seed must be a 64-bit unsigned integer"),
    (["gridsearch", "--lang", "en", "--min-df", "0"], "min_df must be >= 1, got 0"),
    (["gridsearch", "--lang", "en", "--max-features", "100,0"],
     "max_features out of [1; 10000000]: 0"),
    (["gridsearch", "--lang", "en", "--folds", "0"], "--folds must be >= 1, got 0"),
    (["gridsearch", "--lang", "en", "--folds", "abc"], "argument --folds: invalid int value: 'abc'"),
    (["gridsearch", "--lang", "en", "--models", ""], "--models needs at least one value"),
    (["gridsearch", "--lang", "en", "--models", ","], "--models needs at least one value"),
    (["gridsearch", "--lang", "en", "--ranges", ""], "--ranges needs at least one value"),
    (["gridsearch", "--lang", "en", "--min-df", ""], "--min-df needs at least one value"),
    (["gridsearch", "--lang", "en", "--max-features", ""],
     "--max-features needs at least one value"),
    (["gridsearch", "--lang", "en", "--weighting", ""], "--weighting needs at least one value"),
    (["gridsearch", "--lang", "en", "--models", "svm,foo"],
     "argument --models: invalid ModelKind value: 'foo'"),
    (["gridsearch", "--lang", "en", "--weighting", "count, idf"],
     "argument --weighting: invalid Weighting value: 'idf'"),
    (["gridsearch", "--lang", "en", "--min-df", "1,2.5,x"],
     "argument --min-df: invalid int value: '2.5'"),
]

# (subcommand argv, config file text, stderr after "usage error: ")
CONFIG_ERRORS = [
    (["train", "--lang", "en"], "seed=abc\n", "argument --seed: invalid int value: 'abc'"),
    (["gridsearch", "--lang", "en"], "ranges=1:3,3:1\n",
     "argument --ranges: max_n must be >= min_n, got [3;1]"),
    (["train", "--lang", "en"], "frobnicate=yes\n", "unrecognized arguments: --frobnicate yes"),
]


@pytest.mark.parametrize("argv, digest", HELP_SHA256)
def test_help_page_is_unchanged(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run([*argv, "--help"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["no-such-command"], f"argument subcommand: invalid choice: 'no-such-command' {CHOICES}"),
        ([], "the following arguments are required: subcommand"),
    ],
)
def test_subcommand_error_is_unchanged(argv, message, capsys):
    assert cli.run(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_is_unchanged(argv, message, tmp_path, capsys):
    assert cli.run([*argv, "--input", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, config, message", CONFIG_ERRORS)
def test_config_usage_error_is_unchanged(argv, config, message, tmp_path, capsys):
    (tmp_path / "run.conf").write_text(config)
    argv = [*argv, "--input", str(tmp_path), "--config", str(tmp_path / "run.conf")]
    assert cli.run(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
