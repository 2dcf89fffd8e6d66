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
    "en": "f0714882d909857ad4cea2ea0b0063e7868a79f04c86c00092e39ad0bc32fa85",
    "es": "af8feb2d280ef75416a3b0aebd42b2f8573205cf35c24b8168c678bd302baf45",
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
