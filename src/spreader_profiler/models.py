"""Linear classifiers over sparse author vectors.

Both final systems are L2-regularized linear models trained on the
primal objective

    J(w, b) = 0.5 * ||w||^2 + C * sum_i loss(y_i * (w . x_i + b))

with squared hinge loss for the SVM and log loss for logistic
regression (labels mapped to +/-1, the intercept unpenalized). The
minimizer is a deterministic batch L-BFGS with Armijo backtracking:
weights start at zero, there is no randomness, and the line search
guarantees the objective never increases between outer iterations.
Training stops when the L2 norm of the gradient drops to the
configured tolerance.

The loop runs in one of two bases, with the same code. Since the
penalty is on w alone and w starts at zero, every iterate, gradient and
L-BFGS pair lies in the span of the training rows (plus the intercept).
When the Gram matrix K = X X^T has no more entries than X has stored
values (``n_samples**2 <= nnz``; authors are far fewer than n-gram
features), the loop works on the n_samples (+1) coordinates ``a`` of
``w = X^T a`` with the inner product ``<u, v> = u . (K (+) 1) v``, so
that its vectors are sized by authors, not by features, and the margins
of a line-search candidate need no product with X. Otherwise it works on
``(w, b)`` directly with the Euclidean inner product. Both take the same
steps in exact arithmetic; they differ by rounding.
"""

from __future__ import annotations

import enum
import hashlib
import math
import warnings
from codecs import decode as codecs_decode
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .corpus import Label, Language
from .errors import (
    ConvergenceWarning,
    CorruptModelFile,
    DimensionMismatch,
    SingleClassInput,
    UnsupportedVersion,
    WrongModelKind,
)
from .preprocess import TokenStream
from .vectorize import (
    Analyzer,
    NgramCounts,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    smooth_idf,
    union_transform,
)

MODEL_FILE_MAGIC = "spreader-profiler-model"
MODEL_FILE_VERSION = 1

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-20


class ModelKind(enum.Enum):
    SVM = "svm"
    LOGREG = "logreg"


class LossKind(enum.Enum):
    SQUARED_HINGE = "squared_hinge"
    LOGISTIC = "logistic"


_KIND_FOR_LOSS = {
    LossKind.SQUARED_HINGE: ModelKind.SVM,
    LossKind.LOGISTIC: ModelKind.LOGREG,
}


@dataclass(frozen=True)
class TrainConfig:
    """Defaults reproduce the stock configuration of both classifiers."""

    C: float = 1.0
    tolerance: float = 1e-4
    max_iterations: int = 1000
    loss: LossKind = LossKind.SQUARED_HINGE
    fit_intercept: bool = True

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")


@dataclass(eq=False)
class LinearModel:
    """A trained linear classifier plus the vectorization state
    (``feature_spec``) needed to score unseen authors.

    ``feature_spec`` may be empty for purely mathematical models built
    in tests; when present, its total dimension must match the weight
    vector. The diagnostic fields (``converged``, ``n_iterations``,
    ``objective_history``) describe the training run and are not
    persisted.
    """

    kind: ModelKind
    weights: np.ndarray
    bias: float
    feature_spec: tuple[Vocabulary, ...]
    language: Language
    train_config: TrainConfig = field(default_factory=TrainConfig)
    converged: bool | None = None
    n_iterations: int | None = None
    objective_history: list[float] | None = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise DimensionMismatch("weights must be a one-dimensional vector")
        if not np.all(np.isfinite(self.weights)) or not math.isfinite(self.bias):
            raise ValueError("model weights and bias must be finite")
        if self.feature_spec:
            total = sum(v.dimension for v in self.feature_spec)
            if total != self.weights.shape[0]:
                raise DimensionMismatch(
                    f"feature_spec dimension {total} != weights length {self.weights.shape[0]}"
                )

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[0])


def _to_csr(vectors: list[SparseVector]) -> sp.csr_matrix:
    dims = {v.dimension for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"vectors disagree on dimension: {sorted(dims)}")
    dim = dims.pop()
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for vector in vectors:
        for index, value in vector.entries:
            indices.append(index)
            data.append(value)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), indptr),
        shape=(len(vectors), dim),
    )


def _data_term(t, C, loss):
    """``C * sum_i loss(t_i)`` at the signed margins ``t``."""
    if loss is LossKind.SQUARED_HINGE:
        z = np.maximum(0.0, 1.0 - t)
        return C * float(z @ z)
    return C * float(np.logaddexp(0.0, -t).sum())


def _data_slope(t, y_pm, C, loss):
    """The derivative of the data term with respect to each decision value."""
    if loss is LossKind.SQUARED_HINGE:
        return -2.0 * C * y_pm * np.maximum(0.0, 1.0 - t)
    return -C * y_pm * expit(-t)


class _FeatureBasis:
    """Coordinates ``theta = (w, b)`` with the Euclidean inner product:
    a vector is its own image."""

    def __init__(self, X: sp.csr_matrix, fit_intercept: bool):
        self.X, self.XT = X, X.T
        self.fit_intercept = fit_intercept
        self.size = X.shape[1] + fit_intercept

    @staticmethod
    def split(v: np.ndarray):
        return v, v

    @staticmethod
    def with_image(coordinates: np.ndarray) -> np.ndarray:
        return coordinates

    def weights(self, theta: np.ndarray):
        if self.fit_intercept:
            return theta[:-1], float(theta[-1])
        return theta, 0.0

    def decisions(self, theta: np.ndarray):
        """``w . w`` and the decision values ``X w + b``."""
        w, b = self.weights(theta)
        return float(w @ w), self.X @ w + b

    def gradient(self, theta: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """The gradient at ``theta`` from the data term's ``slopes``."""
        w, _ = self.weights(theta)
        grad_w = self.XT @ slopes + w
        if self.fit_intercept:
            return np.concatenate([grad_w, [float(slopes.sum())]])
        return grad_w


# Dense blocks of columns for the Gram matrix: at most this many bytes,
# and at most 1/_GRAM_MIN_BLOCKS of X as a dense array, so that building
# it holds little more than X itself.
_GRAM_BLOCK_BYTES = 1 << 22
_GRAM_MIN_BLOCKS = 16


def _gram(X: sp.csr_matrix) -> np.ndarray:
    """``X X^T`` as a dense array, summed over dense blocks of columns."""
    n_rows, n_columns = X.shape
    width = max(1, min(_GRAM_BLOCK_BYTES // (8 * n_rows), -(-n_columns // _GRAM_MIN_BLOCKS)))
    gram = np.zeros((n_rows, n_rows))
    for start in range(0, n_columns, width):
        block = X[:, start : start + width].toarray()
        gram += block @ block.T
    return gram


class _RowBasis:
    """Coordinates ``theta = (a, b)`` with ``w = X^T a`` and the inner
    product ``<u, v> = u . M v`` for ``M = X X^T (+) 1``.

    A vector is stored as its coordinates followed by its image under
    ``M``. Sums and multiples carry their images along, so only a
    gradient and a search direction take a product with the Gram
    matrix; the decision values at ``theta`` are ``X X^T a + b``, read
    off its image.
    """

    def __init__(self, X: sp.csr_matrix, fit_intercept: bool):
        self.X = X
        self.gram = _gram(X)
        self.n_samples = X.shape[0]
        self.fit_intercept = fit_intercept
        self.half = self.n_samples + fit_intercept
        self.size = 2 * self.half

    def split(self, v: np.ndarray):
        """The coordinates and the image of ``v``."""
        return v[: self.half], v[self.half :]

    def with_image(self, coordinates: np.ndarray) -> np.ndarray:
        n, half = self.n_samples, self.half
        v = np.empty(self.size)
        v[:half] = coordinates
        np.matmul(self.gram, coordinates[:n], out=v[half : half + n])
        if self.fit_intercept:
            v[half + n] = coordinates[n]
        return v

    def weights(self, theta: np.ndarray):
        w = self.X.T @ theta[: self.n_samples]
        return w, float(theta[self.n_samples]) if self.fit_intercept else 0.0

    def decisions(self, theta: np.ndarray):
        n, half = self.n_samples, self.half
        gram_a = theta[half : half + n]
        b = float(theta[n]) if self.fit_intercept else 0.0
        return float(theta[:n] @ gram_a), gram_a + b

    def gradient(self, theta: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        n = self.n_samples
        coordinates = np.empty(self.half)
        np.add(slopes, theta[:n], out=coordinates[:n])
        if self.fit_intercept:
            coordinates[n] = float(slopes.sum())
        return self.with_image(coordinates)


def _basis(X: sp.csr_matrix, fit_intercept: bool):
    """The row basis when its Gram matrix is no larger than the data."""
    if X.shape[0] ** 2 <= X.nnz:
        return _RowBasis(X, fit_intercept)
    return _FeatureBasis(X, fit_intercept)


def _objective_and_grad(theta, X, y_pm, C, loss, fit_intercept):
    """The objective and its gradient at ``theta = (w, b)``."""
    basis = _FeatureBasis(X, fit_intercept)
    ww, decisions = basis.decisions(theta)
    t = y_pm * decisions
    return 0.5 * ww + _data_term(t, C, loss), basis.gradient(theta, _data_slope(t, y_pm, C, loss))


def _norm(v: np.ndarray, image: np.ndarray) -> float:
    # with a singular Gram matrix, rounding can leave u . M u a little
    # below zero for u near its null space
    return math.sqrt(max(float(v @ image), 0.0))


def _lbfgs_direction(grad, pairs):
    """The coordinates of ``-H grad`` by the two-loop recursion; each
    pair holds the coordinates and the image of ``s`` and of ``y``."""
    q = grad.copy()
    alphas = []
    for s, s_image, y, _, rho in reversed(pairs):
        alpha = rho * float(s_image @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, _, y, y_image, _ = pairs[-1]
        q *= float(s @ y_image) / float(y @ y_image)
    for (s, _, y, y_image, rho), alpha in zip(pairs, reversed(alphas)):
        beta = rho * float(y_image @ q)
        q += (alpha - beta) * s
    return -q


def _minimize(X, y_pm, C, loss, fit_intercept, tolerance, max_iterations):
    """L-BFGS with Armijo backtracking from zero; returns the weights,
    the bias, the objective history, the convergence flag and the
    iteration count."""
    basis = _basis(X, fit_intercept)

    def evaluate(theta):
        ww, decisions = basis.decisions(theta)
        t = y_pm * decisions
        return 0.5 * ww + _data_term(t, C, loss), t

    theta = np.zeros(basis.size, dtype=np.float64)
    value, t = evaluate(theta)
    grad = basis.gradient(theta, _data_slope(t, y_pm, C, loss))
    history = [value]
    pairs: deque[tuple] = deque(maxlen=_LBFGS_MEMORY)

    g, g_image = basis.split(grad)
    n_iter = 0
    while _norm(g, g_image) > tolerance and n_iter < max_iterations:
        direction = basis.with_image(_lbfgs_direction(g, pairs))
        slope = float(g @ basis.split(direction)[1])
        if slope >= 0.0:
            direction = -grad
            slope = -float(g @ g_image)

        step = 1.0
        while step >= _MIN_STEP:
            candidate = theta + step * direction
            new_value, t = evaluate(candidate)
            if new_value <= value + _ARMIJO_C1 * step * slope:
                break
            step *= _BACKTRACK_FACTOR
        else:
            break  # line search stalled at machine precision

        # the accepted candidate's margins give its gradient
        new_grad = basis.gradient(candidate, _data_slope(t, y_pm, C, loss))
        s, s_image = basis.split(candidate - theta)
        y, y_image = basis.split(new_grad - grad)
        sy = float(s @ y_image)
        if sy > 1e-12 * _norm(s, s_image) * _norm(y, y_image):
            pairs.append((s, s_image, y, y_image, 1.0 / sy))
        theta, value, grad = candidate, new_value, new_grad
        g, g_image = basis.split(grad)
        history.append(value)
        n_iter += 1

    converged = _norm(g, g_image) <= tolerance
    w, b = basis.weights(theta)
    return w, b, history, converged, n_iter


def _validate_training_inputs(n_samples: int, y: list[Label]):
    if n_samples != len(y):
        raise DimensionMismatch(f"{n_samples} vectors but {len(y)} labels")
    if n_samples < 2:
        raise ValueError("training needs at least two samples")
    classes = set(y)
    if len(classes) < 2:
        raise SingleClassInput(f"only one class present: {classes.pop().name}")


def train(
    X: sp.spmatrix | list[SparseVector],
    y: list[Label],
    config: TrainConfig = TrainConfig(),
    feature_spec: tuple[Vocabulary, ...] = (),
    language: Language = Language.EN,
) -> LinearModel:
    """Train a linear model on the rows of ``X`` (a sparse matrix or a
    list of vectors); the loss in ``config`` picks the kind."""
    X_csr = sp.csr_matrix(X, dtype=np.float64) if sp.issparse(X) else _to_csr(X)
    _validate_training_inputs(X_csr.shape[0], y)
    y_pm = np.asarray(
        [1.0 if label == Label.FAKE_NEWS_SPREADER else -1.0 for label in y],
        dtype=np.float64,
    )
    w, b, history, converged, n_iter = _minimize(
        X_csr,
        y_pm,
        config.C,
        config.loss,
        config.fit_intercept,
        config.tolerance,
        config.max_iterations,
    )
    if not converged:
        warnings.warn(
            f"optimizer hit max_iterations={config.max_iterations} before reaching "
            f"tolerance {config.tolerance}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return LinearModel(
        kind=_KIND_FOR_LOSS[config.loss],
        weights=np.array(w, dtype=np.float64),
        bias=b,
        feature_spec=feature_spec,
        language=language,
        train_config=config,
        converged=converged,
        n_iterations=n_iter,
        objective_history=history,
    )


def train_svm(X, y, config: TrainConfig = TrainConfig(), **kwargs) -> LinearModel:
    """Linear SVM with squared hinge loss (the EN final system)."""
    return train(X, y, replace(config, loss=LossKind.SQUARED_HINGE), **kwargs)


def train_logreg(X, y, config: TrainConfig = TrainConfig(), **kwargs) -> LinearModel:
    """L2-regularized logistic regression (the ES final system)."""
    return train(X, y, replace(config, loss=LossKind.LOGISTIC), **kwargs)


def decision_value(model: LinearModel, x: SparseVector) -> float:
    if x.dimension != model.dimension:
        raise DimensionMismatch(
            f"vector dimension {x.dimension} != model dimension {model.dimension}"
        )
    w = model.weights
    return float(sum(w[i] * v for i, v in x.entries) + model.bias)


def decision_values(
    model: LinearModel, features: Sequence[TokenStream] | NgramCounts | sp.spmatrix
) -> np.ndarray:
    """``X @ w + b``: one decision value per row of ``features``, either a
    matrix already built with the model's vocabularies or streams (or
    their counts) to vectorize with them."""
    if not sp.issparse(features):
        if not model.feature_spec:
            raise WrongModelKind("model carries no feature_spec to vectorize with")
        features = union_transform(features, model.feature_spec)
    return features @ model.weights + model.bias


def label_of(value: float) -> Label:
    """The class of a decision value; an exact zero goes to the
    true-news class (callers count those ties in their diagnostics)."""
    return Label.FAKE_NEWS_SPREADER if value > 0.0 else Label.TRUE_NEWS_SPREADER


def predict(model: LinearModel, x: SparseVector) -> Label:
    """Classify one vector (see ``label_of`` for the tie rule)."""
    return label_of(decision_value(model, x))


def predict_proba(model: LinearModel, x: SparseVector) -> float:
    """Probability that ``x`` belongs to the fake-news-spreader class."""
    if model.kind is not ModelKind.LOGREG:
        raise WrongModelKind("probabilities are only defined for logistic regression")
    z = decision_value(model, x)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# ----------------------------------------------------------------------
# Persistence: a versioned UTF-8 text format. Header lines, one
# vocabulary section per feature block (term, index, document
# frequency, idf), a dense weights section in hex-float encoding, and
# a trailing SHA-256 checksum over everything above it.


def _escape(term: str) -> str:
    # the codec leaves printable ASCII other than the backslash as it is
    if term.isascii() and term.isprintable() and "\\" not in term:
        return term
    return term.encode("unicode_escape").decode("ascii")


def _unescape(text: str) -> str:
    # decoding is the identity on ASCII with no backslash; any other
    # non-ASCII text fails the encode, as a raw field should
    if text.isascii() and "\\" not in text:
        return text
    return codecs_decode(text.encode("ascii"), "unicode_escape")


def _render_model(model: LinearModel) -> str:
    cfg = model.train_config
    lines = [
        f"{MODEL_FILE_MAGIC} {MODEL_FILE_VERSION}",
        f"kind\t{model.kind.value}",
        f"language\t{model.language.value}",
        f"c\t{float(cfg.C).hex()}",
        f"tolerance\t{float(cfg.tolerance).hex()}",
        f"max_iterations\t{cfg.max_iterations}",
        f"loss\t{cfg.loss.value}",
        f"fit_intercept\t{int(cfg.fit_intercept)}",
        f"bias\t{float(model.bias).hex()}",
        f"blocks\t{len(model.feature_spec)}",
    ]
    for position, vocab in enumerate(model.feature_spec):
        vc = vocab.config
        cap = "none" if vc.max_features is None else str(vc.max_features)
        lines.extend(
            [
                f"block\t{position}",
                f"analyzer\t{vc.analyzer.value}",
                f"weighting\t{vc.weighting.value}",
                f"min_n\t{vc.range.min_n}",
                f"max_n\t{vc.range.max_n}",
                f"max_features\t{cap}",
                f"min_df\t{vc.min_df}",
                f"corpus_size\t{vocab.corpus_size}",
                f"terms\t{len(vocab)}",
            ]
        )
        terms = vocab.terms()
        if vocab.idf is None:
            idfs = repeat("-", len(terms))
        else:
            idfs = [float(vocab.idf[term]).hex() for term in terms]
        lines.extend(
            map(
                "{}\t{}\t{}\t{}".format,
                map(_escape, terms),
                range(len(terms)),
                map(vocab.document_frequency.__getitem__, terms),
                idfs,
            )
        )
    lines.append(f"weights\t{model.dimension}")
    lines.extend(map("{}:{}".format, range(model.dimension), map(float.hex, model.weights)))
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"checksum\tsha256:{digest}\n"


def save_model(model: LinearModel, path: str | Path) -> None:
    Path(path).write_text(_render_model(model), encoding="utf-8")


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def section(self, count: int) -> list[str]:
        """The next ``count`` lines."""
        end = self.pos + count
        if count < 0 or end > len(self.lines):
            raise CorruptModelFile("model file truncated")
        lines = self.lines[self.pos : end]
        self.pos = end
        return lines

    def next_field(self, key: str) -> str:
        (line,) = self.section(1)
        head, sep, tail = line.partition("\t")
        if not sep or head != key:
            raise CorruptModelFile(f"expected '{key}' line, got {line!r}")
        return tail


def _read_vocabulary(
    lines: list[str], config: VectorizerConfig, corpus_size: int
) -> Vocabulary:
    """One block's vocabulary lines, checked as they are read: each index
    is its line's position, terms strictly ascend, ``1 <= df <=
    corpus_size``, and a TF-IDF idf is exactly the smooth IDF of its df."""
    term_to_index: dict[str, int] = {}
    document_frequency: dict[str, int] = {}
    idf: dict[str, float] | None = {} if config.weighting is Weighting.TFIDF else None
    idf_of_df: dict[int, float] = {}
    term = ""
    for position, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorruptModelFile("malformed vocabulary line")
        previous, term = term, _unescape(fields[0])
        if int(fields[1]) != position:
            raise CorruptModelFile(f"vocabulary line {position} has index {fields[1]}")
        if position and term <= previous:
            raise CorruptModelFile(f"vocabulary term {position} is out of order")
        df = int(fields[2])
        if not 1 <= df <= corpus_size:
            raise CorruptModelFile(f"document frequency {df} outside [1; {corpus_size}]")
        if idf is not None:
            value = float.fromhex(fields[3])
            if df not in idf_of_df:
                idf_of_df[df] = smooth_idf(corpus_size, df)
            if value != idf_of_df[df]:
                raise CorruptModelFile(f"idf of vocabulary term {position} does not match its df")
            idf[term] = value
        term_to_index[term] = position
        document_frequency[term] = df
    return Vocabulary(
        config=config,
        term_to_index=term_to_index,
        document_frequency=document_frequency,
        corpus_size=corpus_size,
        idf=idf,
    )


def _read_weights(lines: list[str]) -> np.ndarray:
    """The weight lines, numbered 0, 1, ... in order."""
    weights = np.empty(len(lines), dtype=np.float64)
    for position, line in enumerate(lines):
        index_text, sep, value_text = line.partition(":")
        if not sep:
            raise CorruptModelFile("malformed weight line")
        if int(index_text) != position:
            raise CorruptModelFile(f"weight line {position} has index {index_text}")
        weights[position] = float.fromhex(value_text)
    return weights


def load_model(path: str | Path) -> LinearModel:
    """Read a model file back; the checksum guards against truncation
    and corruption, unknown format versions are refused, and a
    vocabulary or weight section that contradicts itself is rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CorruptModelFile(f"{path}: no such model file") from exc
    except IsADirectoryError as exc:
        raise CorruptModelFile(f"{path} is a directory, not a model file") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModelFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    newline = text.rfind("\n", 0, len(text) - 1)
    last_line = text[newline + 1 :].strip()
    if not last_line.startswith("checksum\tsha256:"):
        raise CorruptModelFile("missing checksum line")
    body = text[: newline + 1]
    expected = last_line.split("sha256:", 1)[1]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()

    lines = body.splitlines()
    reader = _LineReader(lines)
    (header,) = reader.section(1)
    parts = header.split(" ")
    if len(parts) != 2 or parts[0] != MODEL_FILE_MAGIC:
        raise CorruptModelFile(f"not a model file (header {header!r})")
    if parts[1] != str(MODEL_FILE_VERSION):
        raise UnsupportedVersion(f"model format version {parts[1]} is not supported")
    if actual != expected:
        raise CorruptModelFile("checksum mismatch: file is corrupt or truncated")

    try:
        kind = ModelKind(reader.next_field("kind"))
        language = Language(reader.next_field("language"))
        c = float.fromhex(reader.next_field("c"))
        tolerance = float.fromhex(reader.next_field("tolerance"))
        max_iterations = int(reader.next_field("max_iterations"))
        loss = LossKind(reader.next_field("loss"))
        fit_intercept_text = reader.next_field("fit_intercept")
        if fit_intercept_text not in ("0", "1"):
            raise CorruptModelFile(f"fit_intercept must be 0 or 1, got {fit_intercept_text!r}")
        fit_intercept = fit_intercept_text == "1"
        bias = float.fromhex(reader.next_field("bias"))
        n_blocks = int(reader.next_field("blocks"))

        blocks = []
        for position in range(n_blocks):
            if int(reader.next_field("block")) != position:
                raise CorruptModelFile("block sections out of order")
            analyzer = Analyzer(reader.next_field("analyzer"))
            weighting = Weighting(reader.next_field("weighting"))
            min_n = int(reader.next_field("min_n"))
            max_n = int(reader.next_field("max_n"))
            cap_text = reader.next_field("max_features")
            max_features = None if cap_text == "none" else int(cap_text)
            min_df = int(reader.next_field("min_df"))
            corpus_size = int(reader.next_field("corpus_size"))
            n_terms = int(reader.next_field("terms"))
            config = VectorizerConfig(
                analyzer=analyzer,
                range=NgramRange(min_n, max_n),
                max_features=max_features,
                min_df=min_df,
                weighting=weighting,
            )
            blocks.append(_read_vocabulary(reader.section(n_terms), config, corpus_size))

        weights = _read_weights(reader.section(int(reader.next_field("weights"))))
        if reader.pos != len(lines):
            raise CorruptModelFile("lines after the weights section")
        return LinearModel(
            kind=kind,
            weights=weights,
            bias=bias,
            feature_spec=tuple(blocks),
            language=language,
            train_config=TrainConfig(
                C=c,
                tolerance=tolerance,
                max_iterations=max_iterations,
                loss=loss,
                fit_intercept=fit_intercept,
            ),
        )
    except (ValueError, KeyError, IndexError) as exc:
        raise CorruptModelFile(f"cannot parse model file: {exc}") from exc
