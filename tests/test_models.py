import hashlib
import math
import random
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from spreader_profiler import models
from spreader_profiler.corpus import Corpus, Label, Language
from spreader_profiler.errors import (
    ConvergenceWarning,
    CorruptModelFile,
    DimensionMismatch,
    SingleClassInput,
    UnsupportedVersion,
    WrongModelKind,
)
from spreader_profiler.models import (
    LinearModel,
    LossKind,
    ModelKind,
    TrainConfig,
    _basis,
    _gram,
    _objective_and_grad,
    _RowBasis,
    decision_value,
    decision_values,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
    train_logreg,
    train_svm,
)
from spreader_profiler.preprocess import TokenStream, load_stopwords, preprocess_corpus
from spreader_profiler.synth import synth_author
from spreader_profiler.vectorize import (
    NgramCounts,
    NgramRange,
    SparseVector,
    VectorizerConfig,
    Weighting,
    fit_vocabulary,
    transform,
    union_transform,
)

from oracles import central_difference_gradient, reference_objective, relative_error

FAKE = Label.FAKE_NEWS_SPREADER
TRUE = Label.TRUE_NEWS_SPREADER


def sparse(values, dim=None):
    dim = dim if dim is not None else len(values)
    entries = tuple((i, float(v)) for i, v in enumerate(values) if v != 0)
    return SparseVector(entries, dim)


def make_blobs(n=40, dim=4, seed=0, separation=4.0):
    """Two spherical blobs with a wide margin; labels alternate."""
    rng = random.Random(seed)
    X, y = [], []
    for i in range(n):
        label = FAKE if i % 2 else TRUE
        sign = 1.0 if label is FAKE else -1.0
        point = [
            sign * separation / math.sqrt(dim) + rng.uniform(-0.8, 0.8) for _ in range(dim)
        ]
        point = [v if abs(v) > 1e-9 else 1e-3 for v in point]
        X.append(sparse(point, dim))
        y.append(label)
    return X, y


class TestSeparablePair:
    X = [sparse([1.0, 0.0]), sparse([-1.0, 0.0])]
    y = [FAKE, TRUE]

    def test_svm_separates(self):
        model = train_svm(self.X, self.y)
        assert predict(model, self.X[0]) is FAKE
        assert predict(model, self.X[1]) is TRUE
        assert model.kind is ModelKind.SVM

    def test_logreg_separates_with_confident_probabilities(self):
        model = train_logreg(self.X, self.y)
        assert predict(model, self.X[0]) is FAKE
        assert predict(model, self.X[1]) is TRUE
        assert predict_proba(model, self.X[0]) > 0.5
        assert predict_proba(model, self.X[1]) < 0.5


class TestTrainingContracts:
    def test_label_flip_negates_weights(self):
        X, y = make_blobs(n=16, seed=3)
        flipped = [FAKE if label is TRUE else TRUE for label in y]
        for trainer in (train_svm, train_logreg):
            a = trainer(X, y)
            b = trainer(X, flipped)
            assert np.allclose(a.weights, -b.weights, atol=1e-6)
            assert a.bias == pytest.approx(-b.bias, abs=1e-6)

    def test_blobs_fully_separated(self):
        X, y = make_blobs(n=40, dim=4, seed=1)
        for trainer in (train_svm, train_logreg):
            model = trainer(X, y)
            assert all(predict(model, x) is label for x, label in zip(X, y))

    def test_objective_non_increasing(self):
        X, y = make_blobs(n=30, dim=6, seed=7, separation=1.5)
        for trainer in (train_svm, train_logreg):
            model = trainer(X, y)
            history = model.objective_history
            assert len(history) >= 2
            assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))

    def test_gradient_norm_below_tolerance_at_optimum(self):
        X, y = make_blobs(n=24, dim=3, seed=5, separation=2.0)
        config = TrainConfig(tolerance=1e-6, max_iterations=5000)
        for loss in (LossKind.SQUARED_HINGE, LossKind.LOGISTIC):
            model = train(X, y, TrainConfig(
                tolerance=config.tolerance, max_iterations=config.max_iterations, loss=loss))
            theta = np.concatenate([model.weights, [model.bias]])
            X_csr = sp.csr_matrix(
                np.array([[dict(x.entries).get(i, 0.0) for i in range(x.dimension)] for x in X])
            )
            y_pm = np.array([1.0 if label is FAKE else -1.0 for label in y])
            _, grad = _objective_and_grad(theta, X_csr, y_pm, 1.0, loss, True)
            assert float(np.linalg.norm(grad)) <= 1e-6

    def test_identical_features_balanced_labels(self):
        X = [sparse([1.0, 1.0]) for _ in range(10)]
        y = [FAKE, TRUE] * 5
        model = train_logreg(X, y)
        assert np.allclose(model.weights, 0.0, atol=1e-4)
        assert predict_proba(model, X[0]) == pytest.approx(0.5, abs=1e-4)

    def test_duplicated_data_with_halved_C_matches(self):
        X, y = make_blobs(n=20, dim=4, seed=9, separation=1.2)
        tight = dict(tolerance=1e-9, max_iterations=20000)
        base = train_svm(X, y, TrainConfig(C=1.0, **tight))
        doubled = train_svm(X + X, y + y, TrainConfig(C=0.5, **tight))
        assert np.allclose(base.weights, doubled.weights, atol=1e-5)
        assert base.bias == pytest.approx(doubled.bias, abs=1e-5)

    def test_determinism_bit_identical(self):
        X, y = make_blobs(n=20, dim=5, seed=11)
        for trainer in (train_svm, train_logreg):
            a = trainer(X, y)
            b = trainer(X, y)
            assert np.array_equal(a.weights, b.weights)
            assert a.bias == b.bias

    def test_single_class_rejected(self):
        X = [sparse([1.0]), sparse([2.0])]
        with pytest.raises(SingleClassInput):
            train_svm(X, [FAKE, FAKE])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            train_svm([sparse([1.0])], [FAKE, TRUE])

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            train_svm([sparse([1.0]), sparse([1.0, 2.0])], [FAKE, TRUE])

    def test_max_iterations_warns(self):
        X, y = make_blobs(n=30, dim=6, seed=2, separation=0.5)
        with pytest.warns(ConvergenceWarning):
            model = train_svm(X, y, TrainConfig(tolerance=1e-14, max_iterations=3))
        assert model.converged is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(C=0.0)
        with pytest.raises(ValueError):
            TrainConfig(tolerance=-1)
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=0)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(424242)
        for trial in range(50):
            m, n = 6, 4
            X_dense = rng.normal(size=(m, n))
            y_pm = rng.choice([-1.0, 1.0], size=m)
            theta = rng.normal(size=n + 1) * 0.8
            C = float(rng.uniform(0.3, 2.5))
            loss_kind = LossKind.SQUARED_HINGE if trial % 2 else LossKind.LOGISTIC
            loss_name = "squared_hinge" if loss_kind is LossKind.SQUARED_HINGE else "logistic"

            def reference(t):
                return reference_objective(t, X_dense.tolist(), y_pm.tolist(), C, loss_name)

            numeric = central_difference_gradient(reference, theta)
            value, analytic = _objective_and_grad(
                theta, sp.csr_matrix(X_dense), y_pm, C, loss_kind, True
            )
            assert value == pytest.approx(reference(theta), rel=1e-10)
            assert relative_error(analytic, numeric) <= 1e-5


def _reference_objective(theta, X, y_pm, C, loss, fit_intercept):
    w, b = (theta[: X.shape[1]], float(theta[X.shape[1]])) if fit_intercept else (theta, 0.0)
    t = y_pm * (X @ w + b)
    if loss is LossKind.SQUARED_HINGE:
        z = np.maximum(0.0, 1.0 - t)
        data_term = C * float(z @ z)
    else:
        data_term = C * float(np.logaddexp(0.0, -t).sum())
    return 0.5 * float(w @ w) + data_term


def _reference_direction(grad, s_hist, y_hist, rho_hist):
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


def _reference_minimize(X, y_pm, C, loss, fit_intercept, tolerance, max_iterations):
    """The L-BFGS loop as first written: the line search evaluates the
    objective alone, and the accepted point is evaluated again with its
    gradient. Returns the backtrack count as well."""
    theta = np.zeros(X.shape[1] + (1 if fit_intercept else 0), dtype=np.float64)
    value, grad = _objective_and_grad(theta, X, y_pm, C, loss, fit_intercept)
    history = [value]
    s_hist, y_hist, rho_hist = [], [], []
    n_iter = backtracks = 0
    while float(np.linalg.norm(grad)) > tolerance and n_iter < max_iterations:
        direction = _reference_direction(grad, s_hist, y_hist, rho_hist)
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = -float(grad @ grad)
        step = 1.0
        while step >= 1e-20:
            candidate = theta + step * direction
            cand_value = _reference_objective(candidate, X, y_pm, C, loss, fit_intercept)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            backtracks += 1
        else:
            break
        new_value, new_grad = _objective_and_grad(candidate, X, y_pm, C, loss, fit_intercept)
        s = candidate - theta
        y = new_grad - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > 10:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, value, grad = candidate, new_value, new_grad
        history.append(value)
        n_iter += 1
    return theta, history, n_iter, backtracks


class TestOptimizerIdentity:
    """``train`` reproduces the reference loop bit for bit."""

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        X = sp.random(48, 150, density=0.08, format="csr", random_state=rng, dtype=np.float64)
        truth = rng.normal(size=150)
        y_pm = np.where(X @ truth + rng.normal(scale=0.5, size=48) > 0, 1.0, -1.0)
        return X, y_pm

    @pytest.mark.parametrize("loss", [LossKind.SQUARED_HINGE, LossKind.LOGISTIC])
    @pytest.mark.parametrize(
        "C, fit_intercept, max_iterations",
        [(1.0, True, 1000), (50.0, True, 1000), (3.0, False, 1000), (20.0, True, 7)],
    )
    def test_train_equals_reference_loop(self, loss, C, fit_intercept, max_iterations, recwarn):
        X, y_pm = self.problem(seed=int(C) * 7 + fit_intercept)
        config = TrainConfig(C=C, tolerance=1e-6, max_iterations=max_iterations, loss=loss,
                             fit_intercept=fit_intercept)
        labels = [FAKE if v > 0 else TRUE for v in y_pm]
        model = train(X, labels, config)
        theta, history, n_iter, _ = _reference_minimize(
            X, y_pm, C, loss, fit_intercept, config.tolerance, max_iterations
        )
        n = X.shape[1]
        assert model.objective_history == history
        assert model.n_iterations == n_iter
        assert model.weights.tolist() == theta[:n].tolist()
        assert model.bias == (float(theta[n]) if fit_intercept else 0.0)

    def test_reference_problems_backtrack(self):
        for loss in (LossKind.SQUARED_HINGE, LossKind.LOGISTIC):
            X, y_pm = self.problem(seed=50 * 7 + 1)
            *_, backtracks = _reference_minimize(X, y_pm, 50.0, loss, True, 1e-6, 1000)
            assert backtracks > 0


class TestRowBasis:
    """Problems whose Gram matrix is no larger than the data run in the
    basis of the training rows; they reach the reference loop's optimum."""

    @staticmethod
    def problem(seed):
        """24 rows over 60 features, with an empty row, a row repeated
        under the same label and a row repeated under the other label,
        so that the Gram matrix is singular."""
        rng = np.random.default_rng(seed)
        X = sp.random(24, 60, density=0.5, format="lil", random_state=rng, dtype=np.float64)
        truth = rng.normal(size=60)
        y_pm = np.where(X @ truth + rng.normal(scale=0.5, size=24) > 0, 1.0, -1.0)
        X[3, :] = 0.0
        X[5, :] = X[4, :]
        y_pm[5] = y_pm[4]
        X[7, :] = X[6, :]
        y_pm[7] = -y_pm[6]
        return X.tocsr(), y_pm

    def train_both(self, loss, C, fit_intercept, max_iterations, seed):
        X, y_pm = self.problem(seed)
        assert isinstance(_basis(X, fit_intercept), _RowBasis)
        config = TrainConfig(C=C, tolerance=1e-6, max_iterations=max_iterations, loss=loss,
                             fit_intercept=fit_intercept)
        labels = [FAKE if v > 0 else TRUE for v in y_pm]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = train(X, labels, config)
        theta, history, n_iter, _ = _reference_minimize(
            X, y_pm, C, loss, fit_intercept, config.tolerance, max_iterations
        )
        gradient = _objective_and_grad(theta, X, y_pm, C, loss, fit_intercept)[1]
        reference_converged = float(np.linalg.norm(gradient)) <= config.tolerance
        return model, theta, history, reference_converged, X.shape[1]

    @pytest.mark.parametrize("loss", [LossKind.SQUARED_HINGE, LossKind.LOGISTIC])
    @pytest.mark.parametrize("C", [1.0, 50.0])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_reaches_the_reference_optimum(self, loss, C, fit_intercept):
        model, theta, history, converged, n = self.train_both(
            loss, C, fit_intercept, 1000, seed=int(C) + fit_intercept
        )
        assert model.converged is converged is True
        assert model.objective_history[-1] == pytest.approx(history[-1], rel=1e-9)
        assert np.max(np.abs(model.weights - theta[:n])) <= 2e-6
        assert abs(model.bias - (float(theta[n]) if fit_intercept else 0.0)) <= 2e-6

    @pytest.mark.parametrize("loss", [LossKind.LOGISTIC])
    def test_capped_run_follows_the_reference_history(self, loss):
        model, _, history, converged, _ = self.train_both(loss, 20.0, True, 7, seed=3)
        assert model.converged is converged is False
        assert model.n_iterations == len(history) - 1 == 7
        assert model.objective_history == pytest.approx(history, rel=1e-12)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_capped_newton_run_never_increases(self, cap):
        """The squared hinge takes Newton steps here, and this problem
        needs 3 of them."""
        X, y_pm = self.problem(seed=1)
        config = TrainConfig(C=20.0, tolerance=1e-6, max_iterations=cap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            model = train(X, [FAKE if v > 0 else TRUE for v in y_pm], config)
        history = model.objective_history
        assert model.n_iterations == cap == len(history) - 1
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        assert model.converged is (_gradient_norm(model, X, y_pm) <= config.tolerance)
        assert model.converged is (cap == 3)


def _gradient_norm(model, X, y_pm):
    """The Euclidean norm of the objective's gradient at the model's
    ``(w, b)``, in the feature basis."""
    cfg = model.train_config
    theta = np.append(model.weights, model.bias) if cfg.fit_intercept else model.weights
    gradient = _objective_and_grad(theta, X, y_pm, cfg.C, cfg.loss, cfg.fit_intercept)[1]
    return float(np.linalg.norm(gradient))


def _count_problem(seed, authors_per_class=14, tweets_per_author=25):
    """Shaped like the SVM of the grid's ``count,[1;3]`` configuration:
    raw character 1- to 3-gram counts of synthetic authors, whose Gram
    matrix has a condition number of about 5e3."""
    rng = random.Random(seed)
    authors = tuple(
        synth_author(rng, label, Language.EN, tweets_per_author)
        for label in (TRUE, FAKE)
        for _ in range(authors_per_class)
    )
    counts = NgramCounts(preprocess_corpus(Corpus(Language.EN, authors),
                                           load_stopwords(Language.EN)))
    config = VectorizerConfig(range=NgramRange(1, 3), max_features=5000, min_df=2,
                              weighting=Weighting.COUNT)
    X = union_transform(counts, (fit_vocabulary(counts, config),))
    return X, np.array([1.0 if author.label is FAKE else -1.0 for author in authors])


class TestNewton:
    """The squared hinge in the row basis takes generalized Newton
    steps. Each run must converge, never increase the objective, end at
    an objective no higher than the reference L-BFGS loop's, and end
    with a gradient within tolerance."""

    @staticmethod
    def check(X, y_pm, C, fit_intercept, reference_cap=1000):
        config = TrainConfig(C=C, tolerance=1e-6, fit_intercept=fit_intercept)
        assert isinstance(_basis(X, fit_intercept), _RowBasis)
        model = train(X, [FAKE if v > 0 else TRUE for v in y_pm], config)
        _, reference, _, _ = _reference_minimize(
            X, y_pm, C, LossKind.SQUARED_HINGE, fit_intercept, config.tolerance, reference_cap
        )
        history = model.objective_history
        assert model.converged is True
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))
        assert history[-1] <= reference[-1] * (1 + 1e-9)
        assert _gradient_norm(model, X, y_pm) <= config.tolerance
        return model, reference

    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("C", [1.0, 50.0])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_singular_gram(self, seed, C, fit_intercept):
        """An empty row, and rows repeated under the same label and
        under the other label."""
        X, y_pm = TestRowBasis.problem(seed)
        assert np.linalg.matrix_rank(_gram(X)) < X.shape[0]
        self.check(X, y_pm, C, fit_intercept)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_ill_conditioned_count_problem(self, fit_intercept):
        """L-BFGS stops at a cap of 200 steps short of the tolerance;
        Newton converges in a few."""
        X, y_pm = _count_problem(seed=0)
        model, reference = self.check(X, y_pm, 1.0, fit_intercept, reference_cap=200)
        assert len(reference) == 201
        assert model.n_iterations <= 5

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_step_from_no_active_margin(self, fit_intercept):
        """With every margin above 1 the data term and its slopes vanish,
        so the step is minus the gradient, to ``w = 0`` with the bias
        kept. (A run from zero starts with every margin at 0, and a full
        Newton step cannot leave every margin above 1, so this state is
        built by hand.)"""
        rng = np.random.default_rng(4)
        y_pm = np.repeat([1.0, -1.0], 12)
        X = sp.csr_matrix(np.hstack([  # one set of features per class
            rng.uniform(0.5, 1.0, size=(24, 30)) * (y_pm[:, None] > 0),
            rng.uniform(0.5, 1.0, size=(24, 30)) * (y_pm[:, None] < 0),
        ]))
        basis = _RowBasis(X, _gram(X), fit_intercept)
        theta = basis.with_image(np.append(y_pm, [0.25] * fit_intercept))
        t = y_pm * basis.decisions(theta)[1]
        assert np.all(t > 1.0)
        slopes = models._data_slope(t, y_pm, 1.0, LossKind.SQUARED_HINGE)
        g = basis.split(basis.gradient(theta, slopes))[0]
        d = basis.newton_direction(g, t, 1.0)
        assert np.array_equal(d, -g)
        assert np.array_equal(d[:24], -y_pm)
        if fit_intercept:
            assert d[24] == 0.0

    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_step_solves_the_full_system(self, fit_intercept, seed):
        """The reduced solve over the active rows equals the solution of
        ``[I + D K, D 1; 1^T D K, 1^T D 1] d = -(ga, gb)``."""
        rng = np.random.default_rng(seed)
        X, y_pm = TestRowBasis.problem(seed)
        C = 3.0
        basis = _RowBasis(X, _gram(X), fit_intercept)
        n = X.shape[0]
        theta = basis.with_image(rng.normal(scale=0.3, size=basis.half))
        t = y_pm * basis.decisions(theta)[1]
        assert 0 < np.count_nonzero(t < 1.0) < n
        slopes = models._data_slope(t, y_pm, C, LossKind.SQUARED_HINGE)
        g = basis.split(basis.gradient(theta, slopes))[0]
        D = np.diag(np.where(t < 1.0, 2.0 * C, 0.0))
        K = _gram(X)
        full = np.eye(n) + D @ K
        if fit_intercept:
            ones = np.ones((n, 1))
            full = np.block([[full, D @ ones], [ones.T @ D @ K, ones.T @ D @ ones]])
        expected = np.linalg.solve(full, -g)
        assert np.allclose(basis.newton_direction(g, t, C), expected, rtol=1e-9, atol=1e-9)


class TestGram:
    """``_gram`` sums dense blocks of columns; integer data makes every
    sum exact, whatever the blocks."""

    @staticmethod
    def matrix(n_columns, seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.integers(0, 4, size=(5, n_columns)).astype(np.float64)
        dense[:, ::3] = 0.0  # empty columns
        dense[2] = 0.0  # an empty row
        return sp.csr_matrix(dense)

    @pytest.mark.parametrize("n_columns", [1, 4, 5, 6, 11])
    def test_blocks_of_the_byte_budget(self, n_columns, monkeypatch):
        monkeypatch.setattr(models, "_GRAM_BLOCK_BYTES", 8 * 5 * 5)  # 5 columns
        monkeypatch.setattr(models, "_GRAM_MIN_BLOCKS", 1)
        X = self.matrix(n_columns)
        assert np.array_equal(_gram(X), (X @ X.T).toarray())

    @pytest.mark.parametrize("n_columns", [1, 15, 16, 17, 100])
    def test_blocks_of_a_share_of_the_columns(self, n_columns):
        X = self.matrix(n_columns, seed=n_columns)
        assert np.array_equal(_gram(X), (X @ X.T).toarray())


class TestPredict:
    def test_positive_halfplane(self):
        model = LinearModel(ModelKind.SVM, np.array([1.0, 0.0]), 0.0, (), Language.EN)
        assert predict(model, sparse([2.0, 0.0])) is FAKE

    def test_negative_bias_zero_vector(self):
        model = LinearModel(ModelKind.SVM, np.array([1.0, 0.0]), -0.5, (), Language.EN)
        assert predict(model, SparseVector((), 2)) is TRUE

    def test_tie_goes_to_true_class(self):
        model = LinearModel(ModelKind.SVM, np.array([0.0, 0.0]), 0.0, (), Language.EN)
        assert decision_value(model, sparse([1.0, 1.0])) == 0.0
        assert predict(model, sparse([1.0, 1.0])) is TRUE

    def test_dimension_mismatch(self):
        model = LinearModel(ModelKind.SVM, np.array([1.0]), 0.0, (), Language.EN)
        with pytest.raises(DimensionMismatch):
            predict(model, sparse([1.0, 2.0]))


class TestPredictProba:
    def test_half_at_zero(self):
        model = LinearModel(ModelKind.LOGREG, np.array([1.0]), 0.0, (), Language.EN)
        assert predict_proba(model, SparseVector((), 1)) == 0.5

    def test_monotone_in_decision_value(self):
        model = LinearModel(ModelKind.LOGREG, np.array([1.0]), 0.0, (), Language.EN)
        values = [predict_proba(model, sparse([z])) for z in (-30.0, -2.0, 0.5, 3.0, 40.0)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_sigma_of_ln3(self):
        model = LinearModel(ModelKind.LOGREG, np.array([math.log(3.0), 0.0]), 0.0, (), Language.EN)
        assert predict_proba(model, sparse([1.0, 0.0], 2)) == pytest.approx(0.75)

    def test_svm_refused(self):
        model = LinearModel(ModelKind.SVM, np.array([1.0]), 0.0, (), Language.EN)
        with pytest.raises(WrongModelKind):
            predict_proba(model, sparse([1.0]))


def _fitted_model(seed=0):
    rng = random.Random(seed)
    texts = ["".join(rng.choice("abcd ") for _ in range(30)) for _ in range(8)]
    streams = [TokenStream(f"a{i}", tuple(t.split())) for i, t in enumerate(texts)]
    vocab = fit_vocabulary(
        streams,
        VectorizerConfig(range=NgramRange(1, 2), max_features=20, weighting=Weighting.TFIDF),
    )
    X = [transform(s, vocab) for s in streams]
    y = [FAKE if i % 2 else TRUE for i in range(len(X))]
    return train_svm(X, y, feature_spec=(vocab,), language=Language.EN)


def test_decision_values_of_streams_equal_those_of_their_matrix():
    model = _fitted_model()
    streams = [TokenStream(f"s{i}", tuple(t.split())) for i, t in enumerate(["ab cd", "", "dd a"])]
    X = union_transform(streams, model.feature_spec)
    assert decision_values(model, X).tolist() == decision_values(model, streams).tolist()


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.weights, loaded.weights)
        assert model.bias == loaded.bias
        assert model.kind == loaded.kind
        assert model.language == loaded.language
        assert model.train_config == loaded.train_config
        assert len(loaded.feature_spec) == 1
        original, restored = model.feature_spec[0], loaded.feature_spec[0]
        assert original.term_to_index == restored.term_to_index
        assert original.document_frequency == restored.document_frequency
        assert original.idf == restored.idf
        assert original.config == restored.config
        assert original.corpus_size == restored.corpus_size

    def test_truncated_file_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_flipped_byte_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        content = bytearray(path.read_bytes())
        middle = len(content) // 2
        content[middle] = (content[middle] + 1) % 128
        path.write_bytes(bytes(content))
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace("spreader-profiler-model 1", "spreader-profiler-model 99", 1),
            encoding="utf-8",
        )
        with pytest.raises(UnsupportedVersion):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.txt"
        path.write_text("hello world\n")
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_terms_with_tabs_newlines_and_emoji_round_trip(self, tmp_path):
        vocab = fit_vocabulary(
            [TokenStream("a0", ("xé😀", "b\\c"))],
            VectorizerConfig(range=NgramRange(1, 2), weighting=Weighting.COUNT),
        )
        model = LinearModel(
            ModelKind.SVM,
            np.arange(vocab.dimension, dtype=np.float64),
            0.25,
            (vocab,),
            Language.ES,
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_spec[0].term_to_index == vocab.term_to_index


def _rewrite(path, edit):
    """Apply ``edit`` to the lines above a model file's checksum, then
    write the file back with a valid checksum over the edited body."""
    lines = path.read_text(encoding="utf-8").splitlines()[:-1]
    edit(lines)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(body + f"checksum\tsha256:{digest}\n", encoding="utf-8")


def _sections(lines):
    """Line numbers of the first vocabulary line and the first weight line."""
    return (
        next(i for i, line in enumerate(lines) if line.startswith("terms\t")) + 1,
        next(i for i, line in enumerate(lines) if line.startswith("weights\t")) + 1,
    )


def _set_field(lines, number, position, value, sep="\t"):
    fields = lines[number].split(sep)
    fields[position] = value
    lines[number] = sep.join(fields)


def _repeat_index(lines):
    vocab, _ = _sections(lines)
    _set_field(lines, vocab + 1, 1, "0")


def _swap_terms(lines):
    vocab, _ = _sections(lines)
    first, second = lines[vocab].split("\t"), lines[vocab + 1].split("\t")
    _set_field(lines, vocab, 0, second[0])
    _set_field(lines, vocab + 1, 0, first[0])


def _repeat_term(lines):
    vocab, _ = _sections(lines)
    _set_field(lines, vocab + 1, 0, lines[vocab].split("\t")[0])


def _set_df(df):
    def edit(lines):
        vocab, _ = _sections(lines)
        _set_field(lines, vocab, 2, str(df))

    return edit


def _nudge_idf(lines):
    vocab, _ = _sections(lines)
    idf = float.fromhex(lines[vocab].split("\t")[3])
    _set_field(lines, vocab, 3, float(np.nextafter(idf, np.inf)).hex())


def _repeat_weight_index(lines):
    _, weights = _sections(lines)
    _set_field(lines, weights + 1, 0, "0", sep=":")


def _swap_weight_lines(lines):
    _, weights = _sections(lines)
    lines[weights], lines[weights + 1] = lines[weights + 1], lines[weights]


def _set_header(key, value):
    def edit(lines):
        number = next(i for i, line in enumerate(lines) if line.startswith(key + "\t"))
        lines[number] = f"{key}\t{value}"

    return edit


def _set_first_weight(value):
    def edit(lines):
        _, weights = _sections(lines)
        _set_field(lines, weights, 1, value, sep=":")

    return edit


def _append_line(lines):
    lines.append("0:0x0.0p+0")


class TestModelFileConsistency:
    """A model file whose checksum is valid but whose sections contradict
    themselves is refused."""

    def test_rewrite_alone_keeps_the_file_loadable(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(_fitted_model(), path)
        original = path.read_bytes()
        _rewrite(path, lambda lines: None)
        assert path.read_bytes() == original
        load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            _repeat_index,
            _swap_terms,
            _repeat_term,
            _set_df(0),
            _set_df(9),  # the model's corpus has 8 documents
            _nudge_idf,
            _repeat_weight_index,
            _swap_weight_lines,
            _set_first_weight("inf"),
            _set_first_weight("nan"),
            _set_header("bias", "inf"),
            _set_header("tolerance", "0x0.0p+0"),
            _set_header("tolerance", "nan"),
            _set_header("max_iterations", "0"),
            _set_header("fit_intercept", "7"),
            _append_line,
        ],
        ids=[
            "index-not-position",
            "terms-descend",
            "term-repeated",
            "df-zero",
            "df-above-corpus-size",
            "idf-not-smooth-idf",
            "weight-index-repeated",
            "weight-lines-out-of-order",
            "weight-infinite",
            "weight-nan",
            "bias-infinite",
            "tolerance-zero",
            "tolerance-nan",
            "max-iterations-zero",
            "fit-intercept-not-0-or-1",
            "line-after-weights",
        ],
    )
    def test_inconsistent_file_rejected(self, edit, tmp_path):
        path = tmp_path / "model.txt"
        model = _fitted_model()
        assert model.feature_spec[0].corpus_size == 8
        save_model(model, path)
        _rewrite(path, edit)
        with pytest.raises(CorruptModelFile):
            load_model(path)

    def test_raw_non_ascii_term_field_rejected(self, tmp_path):
        vocab = fit_vocabulary(
            [TokenStream("a0", ("xé",))],
            VectorizerConfig(range=NgramRange(1, 1), weighting=Weighting.COUNT),
        )
        model = LinearModel(
            ModelKind.SVM, np.ones(vocab.dimension), 0.0, (vocab,), Language.ES
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        escaped = "é".encode("unicode_escape").decode("ascii")

        def unescape_in_place(lines):
            vocab_start, _ = _sections(lines)
            number = next(
                i for i in range(vocab_start, len(lines)) if lines[i].startswith(escaped + "\t")
            )
            lines[number] = "é" + lines[number][len(escaped) :]

        _rewrite(path, unescape_in_place)
        with pytest.raises(CorruptModelFile):
            load_model(path)
