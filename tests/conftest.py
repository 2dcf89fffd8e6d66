import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st

from spreader_profiler.corpus import AuthorDocument, Corpus, Label, Language
from spreader_profiler.preprocess import load_stopwords
from spreader_profiler.synth import generate_corpus_dir

# The same examples on every run and machine, whatever earlier runs found,
# so that a run's verdict does not depend on the runs before it.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SRC = Path(__file__).resolve().parent.parent / "src" / "spreader_profiler"


def pytest_report_header(config):
    """The BLAS numpy was built with and the OpenBLAS core it runs,
    which the golden model digests depend on: each kernel orders the
    training sums differently (read from numpy's bundled library, else
    "unknown"). Then the package's size: the lines of every module under
    ``src/``, as ``wc -l`` counts them, and their total. Last, the
    package modules that a bare ``import spreader_profiler.cli`` loads in
    a fresh interpreter, and whether numpy is among them, so that a
    start-up regression shows in every log."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    core = "unknown"
    for library in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    name, version = blas.get("name", "unknown"), blas.get("version", "")
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    sizes = ", ".join(f"{module} {count:,}" for module, count in lines.items())
    return [
        f"numpy BLAS: {name} {version}, OpenBLAS core: {core}",
        f"src lines: {sum(lines.values()):,} ({sizes})",
        f"import spreader_profiler.cli loads: {_startup_footprint()}",
    ]


_FOOTPRINT = """
import sys
import spreader_profiler.cli
names = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("spreader_profiler."))
print(", ".join(names), "and", "numpy" if "numpy" in sys.modules else "no numpy")
"""


def _startup_footprint() -> str:
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    return done.stdout.strip() if done.returncode == 0 else f"failed ({done.stderr.strip()[-200:]})"


def pytest_terminal_summary(terminalreporter, config):
    """Under ``-q`` pytest prints no header, so its lines end the log.
    After the ``src lines`` line comes the memory that loading the bench
    ES model took, and then the memory that writing it again took, as the
    load- and write-memory tests recorded them (when they ran), so that a
    regression shows in every log; the lines report, and judge nothing."""
    lines = pytest_report_header(config) if config.get_verbosity() < 0 else []
    recorded = {
        name: value for reports in terminalreporter.stats.values() for report in reports
        for name, value in getattr(report, "user_properties", ())
    }
    memory = []
    if "load_memory" in recorded:
        retained, peak, size = recorded["load_memory"]
        memory.append(
            f"load_model of the bench ES model: peak {peak / 1e6:.2f} MB, retained "
            f"{retained / 1e6:.2f} MB, file {size / 1e6:.2f} MB (peak {peak / size:.2f}x file)"
        )
    if "write_memory" in recorded:
        peak, size = recorded["write_memory"]
        memory.append(
            f"writing the loaded bench ES model: peak {peak / 1e6:.2f} MB, file "
            f"{size / 1e6:.2f} MB (peak {peak / size:.2f}x file)"
        )
    at = 2 if lines else 0
    lines[at:at] = memory
    for line in lines:
        terminalreporter.write_line(line)


def pan_data_dir():
    """Directory holding the real shared-task corpora (en/ and es/
    subdirectories), taken from $SPREADER_PAN_DATA. Tests needing the
    real data skip when it is unset or missing."""
    root = os.environ.get("SPREADER_PAN_DATA")
    if not root:
        return None
    path = Path(root)
    return path if path.is_dir() else None


@pytest.fixture(scope="session")
def en_stopwords():
    return load_stopwords(Language.EN)


@pytest.fixture(scope="session")
def es_stopwords():
    return load_stopwords(Language.ES)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """The desk-scale corpus: 60 authors per class, 100 tweets each."""
    path = tmp_path_factory.mktemp("synth") / "en"
    generate_corpus_dir(path, authors_per_class=60, tweets_per_author=100, seed=7, language="en")
    return path


@pytest.fixture(scope="session")
def small_synth_dir(tmp_path_factory):
    """A quick corpus for CLI plumbing tests: 12 per class, 20 tweets."""
    path = tmp_path_factory.mktemp("synth-small") / "en"
    generate_corpus_dir(path, authors_per_class=12, tweets_per_author=20, seed=3, language="en")
    return path


def scipy_csc(matrix) -> sp.csc_matrix:
    """A ``CscMatrix`` of the package as a scipy matrix over the same
    arrays, for the scipy methods a test reads it with."""
    return sp.csc_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


@st.composite
def csc_matrices(draw, n_rows=None, min_rows=0, max_columns=8):
    """A canonical float64 scipy CSC matrix: empty rows, empty columns, no
    entries and one column among them, with values over many magnitudes,
    so that the order of a sum shows in its bits."""
    if n_rows is None:
        n_rows = draw(st.integers(min_rows, 6))
    n_columns = draw(st.integers(0, max_columns))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_rows, n_columns)
    dense = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    return sp.csc_matrix(dense * (rng.random(shape) < density))


def make_author(author_id: str, tweets, label=None) -> AuthorDocument:
    return AuthorDocument(author_id=author_id, tweets=tuple(tweets), label=label)


def make_corpus(pairs, language=Language.EN, labeled=True) -> Corpus:
    """pairs: iterable of (author_id, tweets, label_int_or_None)."""
    authors = []
    for author_id, tweets, label in pairs:
        authors.append(
            make_author(author_id, tweets, Label(label) if labeled and label is not None else None)
        )
    return Corpus(language=language, authors=tuple(authors))
