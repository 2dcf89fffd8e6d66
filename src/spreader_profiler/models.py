"""Linear classifiers over sparse author vectors.

Both final systems are L2-regularized linear models trained on the
primal objective

    J(w, b) = 0.5 * ||w||^2 + C * sum_i loss(y_i * (w . x_i + b))

with squared hinge loss for the SVM and log loss for logistic
regression (labels mapped to +/-1, the intercept unpenalized). The
minimizer is a deterministic batch descent with Armijo backtracking:
weights start at zero, there is no randomness, and the line search
guarantees the objective never increases between outer iterations.
Training stops when the L2 norm of the gradient drops to the
configured tolerance.

The loop runs in one of two bases. Since the penalty is on w alone and
w starts at zero, every iterate, gradient and step lies in the span of
the training rows (plus the intercept). When the Gram matrix
K = X X^T has no more entries than X has stored values
(``n_samples**2 <= nnz``; authors are far fewer than n-gram features),
the loop works on the n_samples (+1) coordinates ``a`` of ``w = X^T a``
with the inner product ``<u, v> = u . (K (+) 1) v``, so that its
vectors are sized by authors, not by features, and the margins of a
line-search candidate need no product with X. Otherwise it works on
``(w, b)`` directly with the Euclidean inner product.

Which step the loop takes depends on the loss and the basis:

* squared hinge in the row basis: the generalized Newton step of the
  finite Newton method (Keerthi & DeCoste 2005, "A Modified Finite
  Newton Method for Fast Solution of Large Scale Linear SVMs"). The
  loss is piecewise quadratic, so the step is exact on the current set
  of active margins (``t < 1``) and the loop stops after a few steps,
  where L-BFGS needs hundreds on ill-conditioned count-weighted data.
  Inactive rows take the gradient's coordinate; only the active rows
  need a linear solve, so a step costs O(|active|^3) on top of the
  O(n_samples^2) products with K.
* logistic loss in the row basis, and both losses in the feature
  basis: L-BFGS. In the feature basis a Newton system would be sized
  by the features. The logistic problems converge in tens of L-BFGS
  steps, and their models are kept exactly as they were.

The two bases take the same L-BFGS steps in exact arithmetic; they
differ by rounding.
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


# The loss each model kind is trained on, and the kind a loss trains.
LOSS_FOR_KIND = {ModelKind.SVM: LossKind.SQUARED_HINGE, ModelKind.LOGREG: LossKind.LOGISTIC}
_KIND_FOR_LOSS = {loss: kind for kind, loss in LOSS_FOR_KIND.items()}


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

    def __init__(self, X: sp.csr_matrix, gram: np.ndarray, fit_intercept: bool):
        self.X = X
        self.gram = gram
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

    def newton_direction(self, g: np.ndarray, t: np.ndarray, C: float) -> np.ndarray:
        """The coordinates ``d = (da, db)`` of the generalized Newton step
        of the squared hinge at the margins ``t``, from the gradient's
        coordinates ``g = (ga, gb)``: the solution of

            [I + D K, D 1; 1^T D K, 1^T D 1] d = -(ga, gb)

        with ``D = 2C`` on the active rows (``t < 1``) and 0 elsewhere
        (without the last row and column when there is no intercept).

        An inactive row's equation is ``da_i = -ga_i``. Divided by 2C,
        the active rows' equations read ``(K_AA + I / 2C) da_A + db =
        -ga_A / 2C - K_AI da_I``, and the intercept's equation minus
        their sum reads ``sum(da_A) = gb - sum(ga_A)``. So only the
        active rows take a solve, and its matrix is nonsingular even
        when K is not. With no active row, ``gb = 0`` and ``db = 0``.
        """
        n = self.n_samples
        d = np.zeros(self.half)
        np.negative(g[:n], out=d[:n])
        active = np.flatnonzero(t < 1.0)
        m = active.size
        if not m:
            return d
        d[active] = 0.0
        gram_active = self.gram[active]
        size = m + self.fit_intercept
        system = np.zeros((size, size))
        system[:m, :m] = gram_active[:, active]
        diagonal = np.arange(m)
        system[diagonal, diagonal] += 0.5 / C
        rhs = np.empty(size)
        np.subtract(g[active] * (-0.5 / C), gram_active @ d[:n], out=rhs[:m])
        if self.fit_intercept:
            system[:m, m] = 1.0
            system[m, :m] = 1.0
            rhs[m] = g[n] - g[active].sum()
        solution = np.linalg.solve(system, rhs)
        d[active] = solution[:m]
        if self.fit_intercept:
            d[n] = solution[m]
        return d


def row_gram(X: sp.csr_matrix) -> np.ndarray | None:
    """``X X^T`` when training on ``X`` runs in the basis of its rows
    (its Gram matrix is no larger than the data), else None. ``train``
    takes it, so that the models fitted to one matrix share it."""
    return _gram(X) if X.shape[0] ** 2 <= X.nnz else None


def _basis(X: sp.csr_matrix, fit_intercept: bool, gram: np.ndarray | None = None):
    """The row basis when its Gram matrix is no larger than the data;
    ``gram`` is ``row_gram(X)`` when the caller has it already."""
    if gram is None:
        gram = row_gram(X)
    if gram is None:
        return _FeatureBasis(X, fit_intercept)
    return _RowBasis(X, gram, fit_intercept)


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


def _minimize(X, y_pm, C, loss, fit_intercept, tolerance, max_iterations, gram=None):
    """Descent with Armijo backtracking from zero, by Newton steps for
    the squared hinge in the row basis and by L-BFGS otherwise (see the
    module docstring); returns the weights, the bias, the objective
    history, the convergence flag and the iteration count."""
    basis = _basis(X, fit_intercept, gram)
    newton = loss is LossKind.SQUARED_HINGE and isinstance(basis, _RowBasis)

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
        if newton:
            direction = basis.with_image(basis.newton_direction(g, t, C))
        else:
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
        if not newton:
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
    gram: np.ndarray | None = None,
) -> LinearModel:
    """Train a linear model on the rows of ``X`` (a sparse matrix or a
    list of vectors); the loss in ``config`` picks the kind. ``gram`` is
    ``row_gram(X)``, for a caller that trains several models on ``X``."""
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
        gram,
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
    if features.shape[1] != model.dimension:
        raise DimensionMismatch(
            f"matrix width {features.shape[1]} != model dimension {model.dimension}"
        )
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


def _escape_column(terms: list[str]) -> list[str]:
    """``_escape`` of every term, by one encode of the joined column when
    it splits back into one piece per term: the separator encodes as
    backslash-n, so a term whose escape holds that text (a newline, or a
    backslash before an n) sends the column through ``_escape`` a term
    at a time."""
    escaped = "\n".join(terms).encode("unicode_escape").decode("ascii").split("\\n")
    return escaped if len(escaped) == len(terms) else list(map(_escape, terms))


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
        terms, df, idf = vocab.columns
        # each line ends in "df<tab>idf", formatted once per distinct pair
        if idf is None:
            keys, tails = df, {d: f"{d}\t-" for d in set(df)}
        else:
            keys = list(zip(df, idf.tolist()))
            tails = {(d, i): f"{d}\t{i.hex()}" for d, i in set(keys)}
        lines.extend(
            map(
                "{}\t{}\t{}".format,
                _escape_column(terms),
                range(len(terms)),
                map(tails.__getitem__, keys),
            )
        )
    lines.append(f"weights\t{model.dimension}")
    weights = map(float.hex, model.weights.tolist())
    lines.extend(map("{}:{}".format, range(model.dimension), weights))
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + f"checksum\tsha256:{digest}\n"


def save_model(model: LinearModel, path: str | Path) -> None:
    Path(path).write_text(_render_model(model), encoding="utf-8")


# Sections are read this many lines at a time, so that the split fields
# of a whole section never exist at once.
_CHUNK_LINES = 4096

# The bytes a model file may hold once its line ends are "\n": printable
# ASCII, tab and newline. The writer escapes every other character.
_FILE_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"


class _LineReader:
    """The lines of a model file's body, handed out as byte blocks of
    whole lines; no object is made per line."""

    def __init__(self, body: bytes):
        self.body = body
        # the end of each line, just past its newline
        self.ends = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == 0x0A) + 1
        self.line = 0

    def at_end(self) -> bool:
        return self.line == len(self.ends)

    def take(self, count: int) -> bytes:
        """The next ``count`` lines, each ending in a newline."""
        if not 0 <= count <= len(self.ends) - self.line:
            raise CorruptModelFile("model file truncated")
        start = int(self.ends[self.line - 1]) if self.line else 0
        self.line += count
        return self.body[start : int(self.ends[self.line - 1])] if count else b""

    def chunks(self, count: int):
        """The next ``count`` lines, as (position, block) pairs of at most
        ``_CHUNK_LINES`` lines each. A count past the last line is refused
        here, before any block is read."""
        if not 0 <= count <= len(self.ends) - self.line:
            raise CorruptModelFile("model file truncated")
        return (
            (lo, self.take(min(_CHUNK_LINES, count - lo))) for lo in range(0, count, _CHUNK_LINES)
        )

    def next_field(self, key: str) -> str:
        line = self.take(1)[:-1].decode("utf-8")
        head, sep, tail = line.partition("\t")
        if not sep or head != key:
            raise CorruptModelFile(f"expected '{key}' line, got {line!r}")
        return tail


def _columns(block: bytes, sep: str, width: int, what: str) -> list[list[str]]:
    """The fields of a block of whole lines as ``width`` columns, by one
    split; every line must hold exactly ``width - 1`` separators."""
    shape = (sep * (width - 1) + "\n").encode("ascii")
    marks = block.translate(None, bytes(set(range(256)).difference(shape)))
    count = marks.count(b"\n")
    if marks != shape * count:
        raise CorruptModelFile(f"malformed {what} line")
    fields = block.decode("ascii").replace("\n", sep).split(sep)
    end = width * count
    return [fields[column:end:width] for column in range(width)]


def _check_positions(column: list[str], lo: int, what: str) -> None:
    """Each index field is its line's position, written as ``str`` writes it."""
    expected = list(map(str, range(lo, lo + len(column))))
    if column != expected:
        position = next(p for p, (a, b) in enumerate(zip(column, expected)) if a != b)
        raise CorruptModelFile(f"{what} line {lo + position} has index {column[position]!r}")


def _unescape_column(fields: list[str]) -> list[str]:
    """``_unescape`` of every field, by one decode of the joined column
    when it splits back into one piece per field. A decoded newline
    splits wrongly, and a field ending in a backslash would join the
    separator into a line continuation (where ``_unescape`` refuses the
    field); such columns are decoded one field at a time. Each field must
    be ``_escape`` of its term, so a column with a backslash is re-escaped."""
    joined = "\n".join(fields)
    if "\\" not in joined:
        return fields
    terms = []
    if "\\\n" not in joined and not joined.endswith("\\"):
        terms = codecs_decode(joined.encode("ascii"), "unicode_escape").split("\n")
    if len(terms) != len(fields):
        terms = list(map(_unescape, fields))
    if _escape_column(terms) != fields:
        field = next(f for f, t in zip(fields, terms) if _escape(t) != f)
        raise CorruptModelFile(f"term field {field!r} is not the escaped form of its term")
    return terms


def _read_vocabulary(
    reader: _LineReader, count: int, config: VectorizerConfig, corpus_size: int
) -> Vocabulary:
    """One block's ``count`` vocabulary lines, checked a column at a time:
    each index is its line's position, terms strictly ascend, each df is
    a decimal in ``[1; corpus_size]``, and a TF-IDF idf is exactly the
    smooth IDF of its df (a count block's idf field is ``-``). Each
    distinct df, and each distinct (df, idf) pair, is checked once."""
    tfidf = config.weighting is Weighting.TFIDF
    terms: list[str] = []
    dfs: list[int] = []
    idfs: list[float] = []
    df_of: dict[str, int] = {}
    idf_of: dict[str, float] = {}
    checked: set[tuple[str, str]] = set()
    for lo, block in reader.chunks(count):
        fields, index_column, df_column, idf_column = _columns(block, "\t", 4, "vocabulary")
        _check_positions(index_column, lo, "vocabulary")
        chunk = _unescape_column(fields)
        ordered = terms[-1:] + chunk
        if not all(map(str.__lt__, ordered, ordered[1:])):
            p = next(p for p in range(1, len(ordered)) if not ordered[p - 1] < ordered[p])
            position = lo + len(chunk) - len(ordered) + p
            raise CorruptModelFile(f"vocabulary term {position} is out of order")
        for text in set(df_column).difference(df_of):
            df = int(text)
            if str(df) != text or not 1 <= df <= corpus_size:
                raise CorruptModelFile(
                    f"document frequency {text!r} is not a decimal in [1; {corpus_size}]"
                )
            df_of[text] = df
            idf_of[text] = smooth_idf(corpus_size, df)
        dfs.extend(map(df_of.__getitem__, df_column))
        if tfidf:
            pairs = set(zip(df_column, idf_column))
            for df_text, idf_text in pairs.difference(checked):
                if float.fromhex(idf_text) != idf_of[df_text]:
                    raise CorruptModelFile(f"idf {idf_text} does not match its df {df_text}")
            checked |= pairs
            idfs.extend(map(idf_of.__getitem__, df_column))
        elif set(idf_column) != {"-"}:
            raise CorruptModelFile("the idf field of a count block's term is not '-'")
        terms.extend(chunk)
    return Vocabulary.from_columns(config, terms, dfs, corpus_size, idfs if tfidf else None)


def _read_weights(reader: _LineReader, count: int) -> np.ndarray:
    """The ``count`` weight lines, numbered 0, 1, ... in order."""
    chunks = reader.chunks(count)  # refuses a count past the end before allocating
    weights = np.empty(count, dtype=np.float64)
    for lo, block in chunks:
        index_column, values = _columns(block, ":", 2, "weight")
        _check_positions(index_column, lo, "weight")
        weights[lo : lo + len(values)] = np.fromiter(
            map(float.fromhex, values), dtype=np.float64, count=len(values)
        )
    return weights


def load_model(path: str | Path) -> LinearModel:
    """Read a model file back; the checksum guards against truncation
    and corruption, unknown format versions are refused, and a
    vocabulary or weight section that contradicts itself is rejected."""
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode("utf-8")
    except FileNotFoundError as exc:
        raise CorruptModelFile(f"{path}: no such model file") from exc
    except IsADirectoryError as exc:
        raise CorruptModelFile(f"{path} is a directory, not a model file") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModelFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if b"\r" in data:
        # the line ends a text-mode read sees: "\r\n" and "\r" are "\n"
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    newline = data.rfind(b"\n", 0, len(data) - 1)
    last_line = data[newline + 1 :].decode("utf-8").strip()
    if not last_line.startswith("checksum\tsha256:"):
        raise CorruptModelFile("missing checksum line")
    body = data[: newline + 1]
    del data
    expected = last_line.split("sha256:", 1)[1]
    actual = hashlib.sha256(body).hexdigest()

    reader = _LineReader(body)
    # the header as a text-mode read splits it, so that another line break
    # on it is refused with the rest of the body, not as a version
    header = reader.take(1).decode("utf-8").splitlines()[0]
    parts = header.split(" ")
    if len(parts) != 2 or parts[0] != MODEL_FILE_MAGIC:
        raise CorruptModelFile(f"not a model file (header {header!r})")
    if parts[1] != str(MODEL_FILE_VERSION):
        raise UnsupportedVersion(f"model format version {parts[1]} is not supported")
    if actual != expected:
        raise CorruptModelFile("checksum mismatch: file is corrupt or truncated")
    if body.translate(None, _FILE_BYTES):
        raise CorruptModelFile(
            "model file holds a character other than printable ASCII, tab or newline"
        )

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
            blocks.append(_read_vocabulary(reader, n_terms, config, corpus_size))

        weights = _read_weights(reader, int(reader.next_field("weights")))
        if not reader.at_end():
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
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        # float.fromhex raises OverflowError for a finite-looking hex float
        # beyond the double range
        raise CorruptModelFile(f"cannot parse model file: {exc}") from exc
