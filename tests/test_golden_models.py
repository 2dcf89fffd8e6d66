"""The stock EN and ES systems, trained on a small fixed synthetic
corpus, must write these exact model files.

Model files carry hex-encoded floats and a checksum, so any change in
vocabulary selection, weighting, normalization order or the optimizer
shows up as a different digest. A change that means to alter the model
bytes re-records the digests and says why.
"""

import hashlib

import pytest

from spreader_profiler import cli
from spreader_profiler.synth import generate_corpus_dir

GOLDEN_SHA256 = {
    "en": "1d84936b69c7fa78add95d89fa033d089b9557b87db63719fe8fd3fe7cee261b",
    "es": "b89f2b34c2aac9fef2d61a0be83aff1a83e247ab0ea91578e679f0b4e4bcd440",
}


@pytest.mark.parametrize("lang", sorted(GOLDEN_SHA256))
def test_stock_model_file_is_byte_identical(lang, tmp_path, capsys):
    corpus = tmp_path / lang
    generate_corpus_dir(corpus, authors_per_class=6, tweets_per_author=10, seed=3, language=lang)
    model = tmp_path / "model.txt"
    rc = cli.run(["train", "--input", str(corpus), "--lang", lang, "--seed", "3",
                  "--out", str(model)])
    capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_SHA256[lang]
