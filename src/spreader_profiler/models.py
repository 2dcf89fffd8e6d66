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

Since the penalty is on w alone and w starts at zero, every iterate,
gradient and step lies in the span of the training rows (plus the
intercept; Chapelle 2007, "Training a Support Vector Machine in the
Primal"). So the loop works on the n_samples (+1) coordinates ``a`` of
``w = X^T a`` with the inner product ``<u, v> = u . (K (+) 1) v`` for
the Gram matrix K = X X^T: its vectors are sized by authors, not by
n-gram features, and the margins of a line-search candidate need no
product with X.

Which step the loop takes depends on the loss:

* squared hinge: the generalized Newton step of the finite Newton
  method (Keerthi & DeCoste 2005, "A Modified Finite Newton Method for
  Fast Solution of Large Scale Linear SVMs"). The loss is piecewise
  quadratic, so the step is exact on the current set of active margins
  (``t < 1``) and the loop stops after a few steps, where L-BFGS needs
  hundreds on ill-conditioned count-weighted data. Inactive rows take
  the gradient's coordinate; only the active rows need a linear solve,
  so a step costs O(|active|^3) on top of the O(n_samples^2) products
  with K.
* logistic loss: L-BFGS. These problems converge in tens of steps.

The matrices are the vectorizer's ``CscMatrix`` arrays. ``X @ w`` and
``X.T @ a`` add each entry's product in stored order (``np.add.at`` and
``np.bincount``, over slices of columns) as scipy's kernels do, so they
give scipy's bits without its import. A scipy matrix from a caller is
taken through its ``tocsc``.
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
from itertools import zip_longest
from pathlib import Path

import numpy as np

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
    CscMatrix,
    NgramCounts,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Vocabulary,
    Weighting,
    smooth_idf,
    spelled_chunks,
    spelled_key_space,
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
        if not (self.C > 0 and math.isfinite(self.C)):
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
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


def _as_csc(X) -> CscMatrix:
    """``X`` as float64 CSC, sharing its arrays where it can: ``X`` is a
    ``CscMatrix``, a matrix with a ``tocsc`` method (a scipy sparse
    matrix, say) or a sequence of vectors."""
    if not isinstance(X, CscMatrix):
        X = X.tocsc() if hasattr(X, "tocsc") else _vectors_csc(X)
    return CscMatrix(X.data.astype(np.float64, copy=False), X.indices, X.indptr, X.shape)


def _vectors_csc(vectors: Sequence[SparseVector]) -> CscMatrix:
    dims = {v.dimension for v in vectors}
    if len(dims) != 1:
        raise DimensionMismatch(f"vectors disagree on dimension: {sorted(dims)}")
    dimension = dims.pop()
    rows = np.repeat(np.arange(len(vectors)), [len(vector.entries) for vector in vectors])
    columns = np.fromiter((i for vector in vectors for i, _ in vector.entries), dtype=np.int64)
    data = np.fromiter((v for vector in vectors for _, v in vector.entries), dtype=np.float64)
    order = np.argsort(columns, kind="stable")  # each column's rows stay ascending
    indptr = np.searchsorted(columns[order], np.arange(dimension + 1))
    return CscMatrix(data[order], rows[order], indptr, (len(vectors), dimension))


# Entries a product takes at a time, so that no temporary is the matrix's size.
_PRODUCT_SLICE = 1 << 16


def _column_slices(X: CscMatrix, width: int):
    """The first column and the matrix of each slice of ``width`` columns
    of ``X``, in order."""
    for start in range(0, X.shape[1], width):
        stop = min(start + width, X.shape[1])
        low, high = X.indptr[start], X.indptr[stop]
        yield start, CscMatrix(X.data[low:high], X.indices[low:high],
                               X.indptr[start : stop + 1] - low, (X.shape[0], stop - start))


def _product_slices(X: CscMatrix):
    """The column slices of ``X`` that hold about ``_PRODUCT_SLICE``
    entries each."""
    return _column_slices(X, max(1, X.shape[1] * _PRODUCT_SLICE // max(X.nnz, 1)))


def _product(X: CscMatrix, w: np.ndarray) -> np.ndarray:
    """``X @ w``, each row's products added one at a time in stored order,
    as scipy's ``csc_matvec`` adds them."""
    out = np.zeros(X.shape[0])
    for start, part in _product_slices(X):
        terms = np.repeat(w[start : start + part.shape[1]], np.diff(part.indptr))
        terms *= part.data
        np.add.at(out, part.indices, terms)
    return out


def _transposed_product(X: CscMatrix, a: np.ndarray) -> np.ndarray:
    """``X.T @ a``, each column's products added in stored order from
    zero, as scipy's ``csr_matvec`` adds them."""
    out = np.empty(X.shape[1])
    for start, part in _product_slices(X):
        columns = np.repeat(np.arange(part.shape[1]), np.diff(part.indptr))
        out[start : start + part.shape[1]] = np.bincount(
            columns, weights=part.data * a[part.indices], minlength=part.shape[1]
        )
    return out


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
    return -C * y_pm * _expit(-t)


def _expit(values: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-v))`` of each value, computed as scipy's ``expit``
    computes it and so bit for bit the same; 0.0 where ``exp`` overflows.
    A loop, since ``np.exp`` rounds otherwise in its vector kernels; the
    vectors it takes have one entry per author."""
    out = np.zeros(len(values))
    for i, v in enumerate(values.tolist()):
        try:
            out[i] = 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            pass
    return out


# Dense blocks of columns for the Gram matrix: at most this many bytes,
# and at most 1/_GRAM_MIN_BLOCKS of X as a dense array, so that building
# it holds little more than X itself.
_GRAM_BLOCK_BYTES = 1 << 22
_GRAM_MIN_BLOCKS = 16


def row_gram(X) -> np.ndarray:
    """``X X^T`` as a dense array, summed over dense blocks of contiguous
    columns. ``train`` takes it, so that the models fitted to X share it."""
    X = _as_csc(X)
    n_rows, n_columns = X.shape
    width = max(1, min(_GRAM_BLOCK_BYTES // (8 * n_rows), -(-n_columns // _GRAM_MIN_BLOCKS)))
    gram = np.zeros((n_rows, n_rows))
    for _, part in _column_slices(X, width):
        block = part.toarray()
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

    def __init__(self, X: CscMatrix, gram: np.ndarray, fit_intercept: bool):
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
        w = _transposed_product(self.X, theta[: self.n_samples])
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


def _objective_and_grad(theta, X, y_pm, C, loss, fit_intercept):
    """The objective and its gradient at ``theta = (w, b)``, in the
    coordinates of the features."""
    X = _as_csc(X)
    w, b = (theta[:-1], float(theta[-1])) if fit_intercept else (theta, 0.0)
    t = y_pm * (_product(X, w) + b)
    slopes = _data_slope(t, y_pm, C, loss)
    grad = _transposed_product(X, slopes) + w
    if fit_intercept:
        grad = np.append(grad, slopes.sum())
    return 0.5 * float(w @ w) + _data_term(t, C, loss), grad


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


def _minimize(X, y_pm, config: TrainConfig, gram=None):
    """Descent with Armijo backtracking from zero in the basis of the
    rows of ``X``, by Newton steps for the squared hinge and by L-BFGS
    for the logistic loss (see the module docstring); ``gram`` is
    ``row_gram(X)``, when the caller has it. Returns the weights, the
    bias, the objective history, the convergence flag and the iteration
    count."""
    C, loss = config.C, config.loss
    basis = _RowBasis(X, row_gram(X) if gram is None else gram, config.fit_intercept)
    newton = loss is LossKind.SQUARED_HINGE

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
    while _norm(g, g_image) > config.tolerance and n_iter < config.max_iterations:
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

    converged = _norm(g, g_image) <= config.tolerance
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
    X: CscMatrix | Sequence[SparseVector],
    y: list[Label],
    config: TrainConfig = TrainConfig(),
    feature_spec: tuple[Vocabulary, ...] = (),
    language: Language = Language.EN,
    gram: np.ndarray | None = None,
) -> LinearModel:
    """Train a linear model on the rows of ``X`` (a sparse matrix or a
    list of vectors); the loss in ``config`` picks the kind. ``gram`` is
    ``row_gram(X)``, for a caller that trains several models on ``X``.
    Float64 CSC is used as it is; other input is converted to it once,
    a scipy sparse matrix included."""
    X = _as_csc(X)
    _validate_training_inputs(X.shape[0], y)
    y_pm = np.where([label == Label.FAKE_NEWS_SPREADER for label in y], 1.0, -1.0)
    w, b, history, converged, n_iter = _minimize(X, y_pm, config, gram)
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
    """The decision value of one vector, scored as a one-row matrix."""
    return float(decision_values(model, _vectors_csc([x]))[0])


def decision_values(
    model: LinearModel, features: Sequence[TokenStream] | NgramCounts | CscMatrix
) -> np.ndarray:
    """``X @ w + b``: one decision value per row of ``features``, either a
    matrix already built with the model's vocabularies (a ``CscMatrix``,
    or one with a ``tocsc`` method) or streams (or their counts) to
    vectorize with them."""
    if isinstance(features, CscMatrix) or hasattr(features, "tocsc"):
        X = _as_csc(features)
    elif not model.feature_spec:
        raise WrongModelKind("model carries no feature_spec to vectorize with")
    else:
        X = union_transform(features, model.feature_spec)
    if X.shape[1] != model.dimension:
        raise DimensionMismatch(f"matrix width {X.shape[1]} != model dimension {model.dimension}")
    return _product(X, model.weights) + model.bias


def label_of(value: float) -> Label:
    """The class of a decision value; an exact zero goes to the
    true-news class (callers count those ties in their diagnostics)."""
    return Label.FAKE_NEWS_SPREADER if value > 0.0 else Label.TRUE_NEWS_SPREADER


def predict(model: LinearModel, x: SparseVector) -> Label:
    """Classify one vector (see ``label_of`` for the tie rule)."""
    return label_of(decision_value(model, x))


# ----------------------------------------------------------------------
# Persistence: a versioned UTF-8 text format. Header lines, one
# vocabulary section per feature block (term, index, document
# frequency, idf), a dense weights section in hex-float encoding, and
# a trailing SHA-256 checksum over everything above it.


# Tables for the weights section; 0 is a pad byte, deleted at the end.
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
# the two lowercase hex digits of each byte value, as one uint16 each
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode("ascii"), dtype=np.uint16)
# "p" and the exponent written for each biased exponent, 0 (subnormals,
# p-1022) to 2046, padded to 6 bytes after the "p"
_EXPONENTS = np.frombuffer(
    ("p%+5d" * 2047 % (-1022, *range(-1022, 1024))).replace(" ", "\0").encode("ascii"),
    dtype=np.uint8,
).reshape(2047, 6)


def _index_columns(first: int, count: int) -> np.ndarray:
    """The decimal digits of ``first``, ..., ``first + count - 1`` as ASCII
    rows, right-aligned, with pad bytes before the leading digit."""
    width = len(str(first + count - 1))
    columns = np.empty((count, width), dtype=np.uint8)
    for k in range(width):
        place = 10 ** (width - 1 - k)
        # i // place runs through consecutive quotients, each for up to `place` rows
        quotients = np.arange(first // place, (first + count - 1) // place + 1)
        runs = np.full(len(quotients), place)
        runs[0] -= first % place
        runs[-1] += count - runs.sum()
        columns[:, k] = np.repeat(_DIGITS[quotients % 10], runs)
        if place > 1:
            columns[: max(place - first, 0), k] = 0
    return columns


def _weight_lines(weights: np.ndarray, first: int = 0) -> bytes:
    """The lines ``f"{i}:{float.hex(w)}\\n"`` of finite ``weights``,
    numbered from ``first``, made in one pass over the IEEE-754 bits.
    Each line is a row of fixed columns: index, ``:``, sign, ``0x1.`` or
    ``0x0.`` lead, 13 hex digits, ``p`` and the exponent. A field written
    shorter (a positive sign, the 12 digits a zero does not write,
    leading zeros) is padded."""
    count = len(weights)
    if not count:
        return b""
    bits = np.ascontiguousarray(weights, dtype=np.float64).view(np.uint64)
    biased = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.intp)
    fraction = bits & np.uint64((1 << 52) - 1)
    small = biased == 0
    zeros = np.flatnonzero(small & (fraction == 0))
    index = _index_columns(first, count)
    rows = np.empty((count, index.shape[1] + 26), dtype=np.uint8)
    rows[:, : index.shape[1]] = index
    value = rows[:, index.shape[1] :]
    value[:, :6] = np.frombuffer(b":-0x1.", dtype=np.uint8)
    value[:, 1] *= (bits >> np.uint64(63)).astype(np.uint8)
    value[small, 4] = ord("0")
    # the 52 fraction bits, shifted to fill 7 bytes, are 14 hex digits; the last is 0
    fraction_bytes = (fraction << np.uint64(4)).astype(">u8").view(np.uint8).reshape(count, 8)
    value[:, 6:19] = np.take(_HEX_PAIRS, fraction_bytes[:, 1:]).view(np.uint8)[:, :13]
    value[:, 19:25] = _EXPONENTS[biased]
    # a zero is written 0x0.0p+0
    value[zeros, 7:19] = 0
    value[zeros, 19:25] = _EXPONENTS[1023]
    value[:, 25] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _field_lines(*fields) -> str:
    """One ``key<tab>value`` line per (key, value) pair."""
    return "".join(f"{key}\t{value}\n" for key, value in fields)


def _model_header(
    kind: ModelKind, language: Language, cfg: TrainConfig, bias: float, blocks: int
) -> str:
    return f"{MODEL_FILE_MAGIC} {MODEL_FILE_VERSION}\n" + _field_lines(
        ("kind", kind.value),
        ("language", language.value),
        ("c", float(cfg.C).hex()),
        ("tolerance", float(cfg.tolerance).hex()),
        ("max_iterations", cfg.max_iterations),
        ("loss", cfg.loss.value),
        ("fit_intercept", int(cfg.fit_intercept)),
        ("bias", float(bias).hex()),
        ("blocks", blocks),
    )


def _block_header(position: int, config: VectorizerConfig, corpus_size: int, terms: int) -> str:
    return _field_lines(
        ("block", position),
        ("analyzer", config.analyzer.value),
        ("weighting", config.weighting.value),
        ("min_n", config.range.min_n),
        ("max_n", config.range.max_n),
        ("max_features", "none" if config.max_features is None else config.max_features),
        ("min_df", config.min_df),
        ("corpus_size", corpus_size),
        ("terms", terms),
    )


def escaped_terms(terms: list[str]) -> list[str]:
    """The backslash escape (``unicode_escape``) of every term, as a model
    file writes its term fields, by one encode of the joined column when
    it splits back into one piece per term: the separator encodes as
    backslash-n, so a term whose escape holds that text (a newline, or a
    backslash before an n) sends the column through the encoder a term at
    a time."""
    escaped = "\n".join(terms).encode("unicode_escape").decode("ascii").split("\\n")
    if len(escaped) != len(terms):
        escaped = [term.encode("unicode_escape").decode("ascii") for term in terms]
    return escaped


def unescaped_terms(column: bytes) -> list[str]:
    """The terms that an escaped term column stands for: the fields of
    ``escaped_terms``, joined by newlines. One decode of the column, when
    it splits back into one piece per field (a decoded newline splits it
    wrongly), else a field at a time."""
    text = codecs_decode(column, "unicode_escape") if b"\\" in column else column.decode("ascii")
    terms = text.split("\n")
    if len(terms) != column.count(b"\n") + 1:
        terms = [codecs_decode(field, "unicode_escape") for field in column.split(b"\n")]
    return terms


def _vocabulary_lines(
    fields: list[str], df: list[int], idf: list[float] | None, first: int = 0
) -> str:
    """The vocabulary lines of the terms escaped as ``fields``, numbered
    from ``first``, from one ``%`` template over the columns, interleaved
    by slice assignment. Each line ends in ``df<tab>idf`` (the idf ``-``
    for a count block), formatted once per distinct pair."""
    if idf is None:
        keys, tails = df, {d: f"{d}\t-" for d in set(df)}
    else:
        keys = list(zip(df, idf))
        tails = {(d, i): f"{d}\t{i.hex()}" for d, i in set(keys)}
    columns = [None] * (3 * len(fields))
    columns[0::3] = fields
    columns[1::3] = range(first, first + len(fields))
    columns[2::3] = map(tails.__getitem__, keys)
    return "%s\t%d\t%s\n" * len(fields) % tuple(columns)


def _checksum_line(digest: str) -> str:
    return f"checksum\tsha256:{digest}\n"


def _render_model(model: LinearModel) -> str:
    """The model file's text, joined from the section renderers that
    ``load_model`` checks the file's sections with. The vocabulary and
    weight sections are written ``_CHUNK_LINES`` lines at a time, as the
    reader reads them, so that no line's temporaries exist for a whole
    section at once. Each block's terms are spelled from their keys,
    decoded once per block, and the vocabulary keeps none of them."""
    sections = [
        _model_header(
            model.kind, model.language, model.train_config, model.bias, len(model.feature_spec)
        )
    ]
    for position, vocab in enumerate(model.feature_spec):
        sections.append(_block_header(position, vocab.config, vocab.corpus_size, len(vocab)))
        hi = 0
        for terms in spelled_chunks(vocab.key_space, vocab.fitted_columns, _CHUNK_LINES):
            lo, hi = hi, hi + len(terms)
            idf = None if vocab.idf_column is None else vocab.idf_column[lo:hi].tolist()
            sections.append(
                _vocabulary_lines(escaped_terms(terms), vocab.df[lo:hi].tolist(), idf, lo)
            )
    sections.append(_field_lines(("weights", model.dimension)))
    for lo in range(0, model.dimension, _CHUNK_LINES):
        sections.append(_weight_lines(model.weights[lo : lo + _CHUNK_LINES], lo).decode("ascii"))
    digest = hashlib.sha256()
    for section in sections:
        digest.update(section.encode("utf-8"))
    sections.append(_checksum_line(digest.hexdigest()))
    return "".join(sections)


def save_model(model: LinearModel, path: str | Path) -> None:
    Path(path).write_text(_render_model(model), encoding="utf-8")


# Sections are read and written this many lines at a time, so that the
# fields of a whole section never exist at once.
_CHUNK_LINES = 4096

# The bytes a model file may hold once its line ends are "\n": printable
# ASCII, tab and newline. The writer escapes every other character.
_FILE_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n"


class _LineReader:
    """The lines of a model file's body (a view of its bytes), handed out
    as byte blocks of whole lines; no object is made per line."""

    def __init__(self, body: memoryview):
        self.body = body
        # the end of each line, just past its newline, in the narrowest type
        ends = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == 0x0A)
        self.ends = ends.astype(np.min_scalar_type(len(body)))
        self.ends += 1
        self.line = 0

    def at_end(self) -> bool:
        return self.line == len(self.ends)

    def take(self, count: int) -> bytes:
        """The next ``count`` lines, each ending in a newline."""
        if not 0 <= count <= len(self.ends) - self.line:
            raise CorruptModelFile("model file truncated")
        start = int(self.ends[self.line - 1]) if self.line else 0
        self.line += count
        return bytes(self.body[start : int(self.ends[self.line - 1])]) if count else b""

    def chunks(self, count: int):
        """The next ``count`` lines, as (position, block) pairs of at most
        ``_CHUNK_LINES`` lines each. A count past the last line is refused
        here, before any block is read."""
        if not 0 <= count <= len(self.ends) - self.line:
            raise CorruptModelFile("model file truncated")
        return (
            (lo, self.take(min(_CHUNK_LINES, count - lo))) for lo in range(0, count, _CHUNK_LINES)
        )


def _values(block: bytes) -> list[str]:
    """What follows the first tab on each line of ``block``."""
    return [line.partition("\t")[2] for line in block.decode("ascii").splitlines()]


def _columns(block: bytes, sep: str, width: int) -> list[list[str]]:
    """The fields of a block of lines, split at ``sep`` and at line ends
    by one split, dealt in turn into ``width`` columns of equal length.
    A line with another number of fields leaves the rest misaligned,
    which its section's rendering then shows."""
    fields = block.decode("ascii").replace("\n", sep).split(sep)
    end = len(fields) // width * width
    return [fields[column:end:width] for column in range(width)]


def _refuse_unless(written: bytes, block: bytes, chunk: str = "", first: int = 0) -> None:
    """Refuse ``block`` unless it is ``written``, the writer's bytes for
    the values read from it. The message names the first line that
    differs: by its key, or as line ``first + n`` of a ``"vocabulary"``
    or ``"weight"`` chunk."""
    if block == written:
        return
    pairs = zip_longest(block.splitlines(True), written.splitlines(True), fillvalue=b"")
    n, (line, ours) = next((n, pair) for n, pair in enumerate(pairs) if pair[0] != pair[1])
    end = -1 if line.endswith(b"\n") and ours.endswith(b"\n") else None
    line, ours = line[:end].decode("utf-8"), ours[:end].decode("utf-8")
    field, key = line.partition("\t")[0], ours.partition("\t")[0]
    if chunk == "vocabulary" and field != key:
        raise CorruptModelFile(f"term field {field!r} is not the escaped form of its term")
    name, prefix = {
        "": (key, key + "\t"),
        "vocabulary": (f"vocabulary line {first + n}", ""),
        "weight": (f"weight {first + n}", f"{first + n}:"),
    }[chunk]
    raise CorruptModelFile(
        f"{name} {line.removeprefix(prefix)!r} is not written as {ours.removeprefix(prefix)!r}"
    )


# The separators of a vocabulary line: three tabs, then its newline.
_LINE_SEPARATORS = np.frombuffer(b"\t\t\t\n", dtype=np.uint8)
# The length of the backslash escape of each code point below 256; a
# wider point is escaped as \uhhhh or \Uhhhhhhhh.
_ESCAPED_WIDTHS = np.array([len(chr(p).encode("unicode_escape")) for p in range(256)],
                           dtype=np.uint8)


def _right_aligned(data: np.ndarray, ends: np.ndarray, widths: np.ndarray, width: int):
    """The fields of ``data`` that end at ``ends`` and are ``widths`` bytes
    long, none longer than ``width``, as rows of ``width`` bytes with 0
    before each field."""
    rows = np.take(data, ends[:, None] + np.arange(-width, 0), mode="clip")
    rows[np.arange(width) < width - widths[:, None]] = 0
    return rows


def _array_chunk(block: bytes, lo: int, corpus_size: int, tfidf: bool) -> tuple | None:
    """A chunk of vocabulary lines numbered from ``lo``, read by comparing
    whole arrays of its bytes, or ``None`` unless every check passes: each
    line has three tabs and then its newline; its index is ``lo`` on; its
    df is a canonical decimal in ``[1; corpus_size]``; its idf is ``-``, or
    for TF-IDF the hex of the smooth idf of its df; and one decode of the
    term column gives one term per line, each of which escapes back to its
    field, at its field's width. What passes is what the writer writes, so
    the line reader accepts it, with the same values. A chunk read is its
    dfs and (for TF-IDF) idfs, and the code points of each term followed
    by a newline, with their ``lengths`` (see ``spelled_key_space``); no
    term is made."""
    data = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero(data < 0x20)  # the file's only such bytes are tab and newline
    lines = len(seps) // 4
    if len(seps) != 4 * lines or not (data[seps].reshape(lines, 4) == _LINE_SEPARATORS).all():
        return None
    tab1, tab2, tab3, ends = seps.reshape(lines, 4).T
    index = _index_columns(lo, lines)
    widths = tab2 - tab1 - 1
    if not (widths == np.count_nonzero(index, axis=1)).all() or not (
        _right_aligned(data, tab2, widths, index.shape[1]) == index
    ).all():
        return None
    width = len(str(corpus_size))
    widths = tab3 - tab2 - 1
    if width > 18 or not ((widths >= 1) & (widths <= width)).all():  # 18 digits fit an int64
        return None
    digits = _right_aligned(data, tab3, widths, width)
    if (digits[np.arange(lines), width - widths] == ord("0")).any():
        return None
    digits[digits == 0] = ord("0")
    digits -= ord("0")
    df = digits @ 10 ** np.arange(width - 1, -1, -1)
    if (digits > 9).any() or (df > corpus_size).any():
        return None
    widths = ends - tab3 - 1
    idf = None
    if not tfidf:
        if not (widths == 1).all() or not (data[tab3 + 1] == ord("-")).all():
            return None
    else:
        distinct, at = np.unique(df, return_inverse=True)
        values = [smooth_idf(corpus_size, d) for d in distinct.tolist()]
        written = [value.hex() for value in values]
        width = max(map(len, written))
        table = np.frombuffer("".join(text.rjust(width, "\0") for text in written).encode("ascii"),
                              dtype=np.uint8).reshape(len(written), width)
        if not (widths == np.fromiter(map(len, written), dtype=np.int64)[at]).all() or not (
            _right_aligned(data, ends, widths, width) == table[at]
        ).all():
            return None
        idf = np.array(values)[at]
    # each term field and a newline: the bytes from each line's start to
    # its first tab, gathered by offsets, the tab then made a newline
    widths = tab1 - np.append(0, ends[:-1] + 1)
    stops = np.cumsum(widths + 1)
    spelled = data[np.repeat(tab1 + 1 - stops, widths + 1) + np.arange(stops[-1])]
    spelled[stops - 1] = ord("\n")
    column = spelled.tobytes()
    if b"\\" not in column:  # printable ASCII, each term as it is written
        points, lengths = spelled, widths
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # an invalid escape
                text = codecs_decode(column, "unicode_escape")
        except UnicodeDecodeError:
            return None
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        newlines = np.flatnonzero(points == ord("\n"))
        if len(newlines) != lines or newlines[-1] != len(points) - 1:
            return None
        escaped = _ESCAPED_WIDTHS.take(points, mode="clip")  # 4 for a wide point, as for 0xff
        wide = np.flatnonzero(points > 0xFF)
        escaped[wide] = np.where(points[wide] > 0xFFFF, 10, 6)
        # each term's escape and its newline's, two bytes, at the term's field and newline
        escaped = np.add.reduceat(escaped, np.append(0, newlines[:-1] + 1), dtype=np.int64)
        if not (escaped == widths + 2).all():
            return None
        if text.encode("unicode_escape") != column.replace(b"\n", b"\\n"):
            return None
        lengths = np.diff(newlines, prepend=-1) - 1
        if not len(wide):
            points = points.astype(np.uint8)
    return df, idf, points, lengths


def _line_chunk(block: bytes, lo: int, corpus_size: int, tfidf: bool) -> tuple:
    """A chunk of vocabulary lines numbered from ``lo``, split into
    columns and checked by writing it again from the values read; a fault
    is named as the first line that differs, or a df out of range. Each
    distinct df text is parsed once. A chunk read is as ``_array_chunk``
    reads one."""
    fields, _, df_column, _ = _columns(block, "\t", 4)
    column = "\n".join(fields).encode("ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # an invalid escape, refused later
        terms = unescaped_terms(column) if fields else []
    df_of: dict[str, int] = {}
    for text in set(df_column):
        df = int(text)
        if not 1 <= df <= corpus_size:
            raise CorruptModelFile(f"document frequency {df} is not in [1; {corpus_size}]")
        df_of[text] = df
    idf_of = {df: smooth_idf(corpus_size, df) for df in df_of.values()} if tfidf else None
    df = list(map(df_of.__getitem__, df_column))
    idf = list(map(idf_of.__getitem__, df)) if tfidf else None
    written = _vocabulary_lines(escaped_terms(terms), df, idf, lo).encode("ascii")
    _refuse_unless(written, block, "vocabulary", lo)
    return (
        np.array(df, dtype=np.int64), None if idf is None else np.array(idf),
        np.frombuffer("\n".join([*terms, ""]).encode("utf-32-le", "surrogatepass"), dtype="<u4"),
        np.fromiter(map(len, terms), dtype=np.int64, count=len(terms)),
    )


def _read_vocabulary(
    reader: _LineReader, count: int, config: VectorizerConfig, corpus_size: int
) -> Vocabulary:
    """One block's ``count`` vocabulary lines, a chunk at a time. Each
    chunk is read by array comparisons (``_array_chunk``), and one they
    refuse by the line reader (``_line_chunk``), which names the fault:
    each df must lie in ``[1; corpus_size]``, never empty (a fit sees a
    document), and the chunk must be what the writer writes for its
    terms, dfs and the smooth IDF of each df. Once every chunk is read,
    the terms are keyed from their code points, which checks that they
    strictly ascend. The vocabulary holds those keys and the dfs and idfs
    as read; its terms are spelled from the keys only when something
    reads them (see ``Vocabulary``)."""
    if corpus_size < 1:
        raise CorruptModelFile(f"corpus_size {corpus_size} is below 1")
    tfidf = config.weighting is Weighting.TFIDF
    # each column's chunks, after an empty one of its type
    df, idf, points, lengths = (
        [np.zeros(0, dtype=t)] for t in (np.int64, np.float64, np.uint8, np.int64)
    )
    for lo, block in reader.chunks(count):
        chunk = _array_chunk(block, lo, corpus_size, tfidf) or _line_chunk(
            block, lo, corpus_size, tfidf
        )
        for column, part in zip((df, idf, points, lengths), chunk):
            if part is not None:
                column.append(part)
    df, idf, points, lengths = map(np.concatenate, (df, idf, points, lengths))
    try:
        keys = spelled_key_space(points, lengths)
    except ValueError as error:  # "vocabulary term N is out of order"
        raise CorruptModelFile(str(error)) from None
    return Vocabulary.from_columns(config, None, df, corpus_size, idf if tfidf else None, keys)


def _read_weights(reader: _LineReader, count: int) -> np.ndarray:
    """The ``count`` weight lines, a chunk at a time: each value must be a
    finite double (``_weight_lines`` writes no other), and the chunk what
    the writer writes for those values."""
    chunks = reader.chunks(count)  # refuses a count past the end before allocating
    weights = np.empty(count, dtype=np.float64)
    for lo, block in chunks:
        values = _columns(block, ":", 2)[1]  # the index column is dropped at once
        chunk = np.fromiter(map(float.fromhex, values), dtype=np.float64, count=len(values))
        finite = np.isfinite(chunk)
        if not finite.all():
            p = int(finite.argmin())
            raise CorruptModelFile(f"weight {lo + p} {values[p]!r} is not a finite double")
        _refuse_unless(_weight_lines(chunk, lo), block, "weight", lo)
        weights[lo : lo + len(chunk)] = chunk
    return weights


def load_model(path: str | Path) -> LinearModel:
    """Read a model file back. Unknown format versions are refused, and
    the checksum guards against truncation and corruption. Every other
    line is parsed leniently and must be what the writer writes for the
    values read from it, so a loaded model saves to the file it came
    from; a vocabulary or weight section that contradicts itself is
    rejected. Vocabulary chunks are read by array comparisons, and any
    they refuse by the line reader, which names the fault (see
    ``_read_vocabulary``). Each block's terms are keyed at load, so
    scoring never keys them, and kept as those keys alone: no term is
    made until something reads one, and saving the model spells them
    from the keys again."""
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode("utf-8")
    except FileNotFoundError as exc:
        raise CorruptModelFile(f"{path}: no such model file") from exc
    except IsADirectoryError as exc:
        raise CorruptModelFile(f"{path} is a directory, not a model file") from exc
    except OSError as exc:  # a symlink loop, a name too long, no permission, ...
        raise CorruptModelFile(f"{path}: cannot read model file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModelFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if b"\r" in data:
        # the line ends a text-mode read sees: "\r\n" and "\r" are "\n"
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    newline = data.rfind(b"\n", 0, len(data) - 1)
    # the body is read through a view of the file's bytes, not a copy
    body, last = memoryview(data)[: newline + 1], data[newline + 1 :]

    # the first line as a text-mode read splits it, so that another line
    # break on it is refused with the rest of the body, not as a version
    first = data[: data.find(b"\n") + 1 or None].decode("utf-8")
    header = first.splitlines()[0] if first else ""
    parts = header.split(" ")
    if len(parts) != 2 or parts[0] != MODEL_FILE_MAGIC:
        raise CorruptModelFile(f"not a model file (header {header!r})")
    if parts[1] != str(MODEL_FILE_VERSION):
        raise UnsupportedVersion(f"model format version {parts[1]} is not supported")
    digest = hashlib.sha256(body).hexdigest()
    if last.decode("utf-8").partition("sha256:")[2].strip() != digest:
        raise CorruptModelFile("checksum mismatch: file is corrupt or truncated")
    _refuse_unless(_checksum_line(digest).encode("ascii"), last)
    if data.translate(None, _FILE_BYTES):  # the last line is the one just compared
        raise CorruptModelFile(
            "model file holds a character other than printable ASCII, tab or newline"
        )

    reader = _LineReader(body)
    try:
        block = reader.take(10)
        kind, language, c, tolerance, max_iterations, loss, fit_intercept, bias, n_blocks = (
            _values(block)[1:]
        )
        # a negative count reads as no blocks, which the header check refuses
        kind, language, bias, n_blocks = (
            ModelKind(kind), Language(language), float.fromhex(bias), max(int(n_blocks), 0)
        )
        train_config = TrainConfig(
            C=float.fromhex(c),
            tolerance=float.fromhex(tolerance),
            max_iterations=int(max_iterations),
            loss=LossKind(loss),
            fit_intercept=bool(int(fit_intercept)),
        )
        header = _model_header(kind, language, train_config, bias, n_blocks)
        _refuse_unless(header.encode("ascii"), block)

        blocks = []
        for position in range(n_blocks):
            block = reader.take(9)
            _, analyzer, weighting, min_n, max_n, cap, min_df, corpus_size, n_terms = (
                _values(block)
            )
            config = VectorizerConfig(
                analyzer=Analyzer(analyzer),
                range=NgramRange(int(min_n), int(max_n)),
                max_features=None if cap == "none" else int(cap),
                min_df=int(min_df),
                weighting=Weighting(weighting),
            )
            corpus_size, n_terms = int(corpus_size), int(n_terms)
            header = _block_header(position, config, corpus_size, n_terms)
            _refuse_unless(header.encode("ascii"), block)
            blocks.append(_read_vocabulary(reader, n_terms, config, corpus_size))

        block = reader.take(1)
        (n_weights,) = map(int, _values(block))
        _refuse_unless(_field_lines(("weights", n_weights)).encode("ascii"), block)
        weights = _read_weights(reader, n_weights)
        if not reader.at_end():
            raise CorruptModelFile("lines after the weights section")
        return LinearModel(
            kind=kind,
            weights=weights,
            bias=bias,
            feature_spec=tuple(blocks),
            language=language,
            train_config=train_config,
        )
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        # float.fromhex raises OverflowError for a finite-looking hex float
        # beyond the double range
        raise CorruptModelFile(f"cannot parse model file: {exc}") from exc
