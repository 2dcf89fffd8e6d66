"""A small EN grid search must write these exact TSV and report files.

The grid covers two n-gram ranges, both weightings and both classifiers
(8 configurations) on a small fixed synthetic corpus, once on the single
seeded split and once with stratified folds. Any change in how the grid
preprocesses, counts, fits, trains, scores or ranks shows up as a
different digest. A change that means to alter the grid output
re-records the digests and says why.
"""

import hashlib

import pytest

from spreader_profiler import cli
from spreader_profiler.synth import generate_corpus_dir

GRID_FLAGS = [
    "--ranges", "1:3,2:4", "--weighting", "tfidf,count", "--models", "svm,logreg",
    "--max-features", "400", "--min-df", "2",
]

GOLDEN_SHA256 = {
    1: (
        "a1af26d10cff525c6522c56182ec2e8624b1b780679ef5897efa21ad447748aa",
        "678f138da6e12fd5034fde22b4fe6eff7cc646e5b48404978d20724a4238dc34",
    ),
    3: (
        "e08304ebec455a17191ef55555dfea29ae14e75921e15a5e5d39525588bb4e83",
        "9013e1fff50a66ecf31e060525a07c7d3d3b762e60b1a22f8be1bf4da62b65d3",
    ),
}


@pytest.mark.parametrize("folds", sorted(GOLDEN_SHA256))
def test_grid_outputs_are_byte_identical(folds, tmp_path, capsys):
    corpus = tmp_path / "en"
    generate_corpus_dir(corpus, authors_per_class=10, tweets_per_author=2, seed=3, language="en")
    out = tmp_path / "grid.tsv"
    rc = cli.run(["gridsearch", "--input", str(corpus), "--lang", "en", "--seed", "3",
                  "--folds", str(folds), *GRID_FLAGS, "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 8
    report = tmp_path / "grid.tsv.report.txt"
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, report))
    assert digests == GOLDEN_SHA256[folds]
