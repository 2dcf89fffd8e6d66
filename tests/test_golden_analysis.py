"""The `analyze` table of the stock EN and ES synthetic corpora must be
these exact bytes.

The corpora are `generate_corpus_dir`'s defaults (60 authors per class,
100 tweets each, seed 7). Any change in how the corpus is read or how a
class's statistics are tallied or rendered shows up as a different
digest. A change that means to alter the table re-records the digests
and says why.
"""

import hashlib

import pytest

from spreader_profiler import cli
from spreader_profiler.synth import generate_corpus_dir

GOLDEN_SHA256 = {
    "en": "6fd9e3404237ebe13fbb8dd918054a304299283d9f502c177eeb6822907844e5",
    "es": "ffb38c7b16bb8ec3dbba8ab185e0522ee08b116354a7ecb48df58270c0556b6d",
}


@pytest.mark.parametrize("lang", sorted(GOLDEN_SHA256))
def test_analyze_table_is_byte_identical(lang, tmp_path, capsys):
    corpus = generate_corpus_dir(tmp_path / lang, language=lang)
    out = tmp_path / "table.txt"
    rc = cli.run(["analyze", "--input", str(corpus), "--lang", lang, "--out", str(out)])
    assert capsys.readouterr() == ("", "")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[lang]
