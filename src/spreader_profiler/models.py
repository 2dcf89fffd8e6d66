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
"""

from __future__ import annotations

import enum
import hashlib
import math
import warnings
from codecs import decode as codecs_decode
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
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.tolerance <= 0:
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


def _split_theta(theta: np.ndarray, n_features: int, fit_intercept: bool):
    if fit_intercept:
        return theta[:n_features], float(theta[n_features])
    return theta, 0.0


def _margins(theta, X, y_pm, fit_intercept):
    """The weights and the signed margins ``y * (X w + b)`` at ``theta``."""
    w, b = _split_theta(theta, X.shape[1], fit_intercept)
    return w, y_pm * (X @ w + b)


def _value(w, t, C, loss):
    if loss is LossKind.SQUARED_HINGE:
        z = np.maximum(0.0, 1.0 - t)
        data_term = C * float(z @ z)
    else:
        data_term = C * float(np.logaddexp(0.0, -t).sum())
    return 0.5 * float(w @ w) + data_term


def _grad(w, t, XT, y_pm, C, loss, fit_intercept):
    if loss is LossKind.SQUARED_HINGE:
        dloss_df = -2.0 * C * y_pm * np.maximum(0.0, 1.0 - t)
    else:
        dloss_df = -C * y_pm * expit(-t)
    grad_w = XT @ dloss_df + w
    if fit_intercept:
        return np.concatenate([grad_w, [float(dloss_df.sum())]])
    return grad_w


def _objective_and_grad(theta, X, y_pm, C, loss, fit_intercept):
    w, t = _margins(theta, X, y_pm, fit_intercept)
    return _value(w, t, C, loss), _grad(w, t, X.T, y_pm, C, loss, fit_intercept)


def _lbfgs_direction(grad, s_hist, y_hist, rho_hist):
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if y_hist:
        y_last = y_hist[-1]
        q *= float(s_hist[-1] @ y_last) / float(y_last @ y_last)
    for (s, y, rho), alpha in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return -q


def _minimize(X, y_pm, C, loss, fit_intercept, tolerance, max_iterations):
    XT = X.T
    theta = np.zeros(X.shape[1] + (1 if fit_intercept else 0), dtype=np.float64)
    w, t = _margins(theta, X, y_pm, fit_intercept)
    value = _value(w, t, C, loss)
    grad = _grad(w, t, XT, y_pm, C, loss, fit_intercept)
    history = [value]
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    n_iter = 0
    while float(np.linalg.norm(grad)) > tolerance and n_iter < max_iterations:
        direction = _lbfgs_direction(grad, s_hist, y_hist, rho_hist)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)

        step = 1.0
        while step >= _MIN_STEP:
            candidate = theta + step * direction
            w, t = _margins(candidate, X, y_pm, fit_intercept)
            new_value = _value(w, t, C, loss)
            if new_value <= value + _ARMIJO_C1 * step * slope:
                break
            step *= _BACKTRACK_FACTOR
        else:
            break  # line search stalled at machine precision

        # the accepted candidate's margins give its gradient
        new_grad = _grad(w, t, XT, y_pm, C, loss, fit_intercept)
        s = candidate - theta
        y = new_grad - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, value, grad = candidate, new_value, new_grad
        history.append(value)
        n_iter += 1

    converged = float(np.linalg.norm(grad)) <= tolerance
    return theta, history, converged, n_iter


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
    theta, history, converged, n_iter = _minimize(
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
    w, b = _split_theta(theta, X_csr.shape[1], config.fit_intercept)
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
        fit_intercept = bool(int(reader.next_field("fit_intercept")))
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
    except (ValueError, KeyError, IndexError) as exc:
        raise CorruptModelFile(f"cannot parse model file: {exc}") from exc

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
