"""Loss encoders, constants, and objective evaluation.

The encoders are checked against the loss formulas written out by hand:
q = x, p = y x, s = y^2 / 2 for regression and q = x / 2, p = (y / 2) x,
s = log 2 for the logistic surrogate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from inputdp import (
    Dataset,
    empirical_objective,
    linear_regression_loss,
    logistic_quadratic_loss,
    make_loss,
    predict,
)


def _random_rows(gen, n, dim, scale=1.0):
    """n rows inside the ball of ``scale``."""
    rows = gen.standard_normal((n, dim))
    rows *= scale * gen.uniform(0, 1, size=(n, 1)) / np.maximum(
        1.0, np.linalg.norm(rows, axis=1, keepdims=True)
    )
    return rows


def _random_dataset(gen, n, dim, classification=False):
    features = _random_rows(gen, n, dim)
    if classification:
        labels = np.where(gen.uniform(size=n) < 0.5, 1.0, -1.0)
    else:
        labels = gen.uniform(-1, 1, size=n)
    return Dataset(features=features, labels=labels)


def _hand_stats(x, y, family):
    """One example's statistics written out from the loss formulas."""
    if family == "linear_regression":
        return x, y * x, y**2 / 2.0
    return x / 2.0, (y / 2.0) * x, math.log(2.0)


def _row_losses(stats, w_rows):
    """(1/2)(q.w)^2 - p.w + s for each row, with row i's model w_rows[i]."""
    q_all, p_all, s_all = stats
    qw = np.einsum("ij,ij->i", q_all, w_rows)
    return 0.5 * qw * qw - np.einsum("ij,ij->i", p_all, w_rows) + s_all


class TestLinearRegressionEncoder:
    def test_concrete_example(self):
        ds = Dataset(features=np.array([[0.6, 0.8]]), labels=np.array([0.5]))
        q_all, p_all, s_all = linear_regression_loss(1.0, 2).encode_dataset(ds)
        assert q_all[0] == pytest.approx([0.6, 0.8])
        assert p_all[0] == pytest.approx([0.3, 0.4])
        assert s_all[0] == pytest.approx(0.125)

    def test_zero_features(self):
        ds = Dataset(features=np.zeros((1, 3)), labels=np.array([1.0]))
        q_all, p_all, s_all = linear_regression_loss(1.0, 3).encode_dataset(ds)
        assert np.array_equal(q_all, np.zeros((1, 3)))
        assert np.array_equal(p_all, np.zeros((1, 3)))
        assert s_all[0] == pytest.approx(0.5)

    def test_faithful_to_squared_error(self):
        gen = np.random.default_rng(10)
        ds = _random_dataset(gen, 100, 4)
        stats = linear_regression_loss(1.0, 4).encode_dataset(ds)
        w_rows = _random_rows(gen, 100, 4)
        x, y = ds.features, ds.labels
        direct = 0.5 * (np.einsum("ij,ij->i", w_rows, x) - y) ** 2
        assert np.allclose(_row_losses(stats, w_rows), direct, rtol=0.0, atol=1e-12)


class TestLogisticEncoder:
    def test_concrete_example(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        q_all, p_all, s_all = logistic_quadratic_loss(1.0, 2).encode_dataset(ds)
        assert q_all[0] == pytest.approx([0.5, 0.0])
        assert p_all[0] == pytest.approx([0.5, 0.0])
        assert s_all[0] == pytest.approx(math.log(2.0))

    def test_rejects_non_sign_labels(self):
        ds = Dataset(features=np.array([[0.1], [0.2]]), labels=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            logistic_quadratic_loss(1.0, 1).encode_dataset(ds)

    def test_matches_exact_logistic_at_zero(self):
        gen = np.random.default_rng(11)
        ds = _random_dataset(gen, 20, 3, classification=True)
        stats = logistic_quadratic_loss(1.0, 3).encode_dataset(ds)
        assert np.all(_row_losses(stats, np.zeros((20, 3))) == math.log(2.0))

    def test_cubic_remainder_bound(self):
        gen = np.random.default_rng(12)
        ds = _random_dataset(gen, 200, 3, classification=True)
        stats = logistic_quadratic_loss(1.0, 3).encode_dataset(ds)
        w_rows = _random_rows(gen, 200, 3, scale=0.5)
        response = np.einsum("ij,ij->i", w_rows, ds.features)
        exact = np.log1p(np.exp(-ds.labels * response))
        surrogate = _row_losses(stats, w_rows)
        assert np.all(np.abs(surrogate - exact) <= np.abs(response) ** 3 / 24.0 + 1e-15)


class TestEmpiricalObjective:
    def test_single_example_zero_model(self):
        ds = Dataset(features=np.array([[0.5, 0.0]]), labels=np.array([0.8]))
        spec = linear_regression_loss(radius=1.0, dim=2)
        assert empirical_objective(ds, spec, np.zeros(2)) == pytest.approx(0.8**2 / 2)

    def test_duplication_invariance(self):
        gen = np.random.default_rng(14)
        ds = Dataset(features=np.array([[0.5, 0.1]]), labels=np.array([0.3]))
        doubled = Dataset(
            features=np.vstack([ds.features, ds.features]),
            labels=np.concatenate([ds.labels, ds.labels]),
        )
        spec = linear_regression_loss(radius=1.0, dim=2)
        for _ in range(10):
            w = gen.standard_normal(2) * 0.4
            assert empirical_objective(doubled, spec, w) == pytest.approx(
                empirical_objective(ds, spec, w), abs=1e-15
            )

    def test_matches_term_by_term_sum(self):
        gen = np.random.default_rng(15)
        ds = _random_dataset(gen, 10, 3)
        spec = linear_regression_loss(radius=1.0, dim=3)
        w = gen.standard_normal(3) * 0.5
        reg = 0.7
        by_hand = (
            sum(0.5 * (w @ x - y) ** 2 for x, y in zip(ds.features, ds.labels)) / 10
            + reg / (2 * 10) * float(w @ w)
        )
        assert empirical_objective(ds, spec, w, reg_coeff=reg) == pytest.approx(
            by_hand, abs=1e-12
        )

    def test_rejects_negative_reg(self):
        ds = Dataset(features=np.zeros((1, 2)), labels=np.zeros(1))
        spec = linear_regression_loss(radius=1.0, dim=2)
        with pytest.raises(ValueError):
            empirical_objective(ds, spec, np.zeros(2), reg_coeff=-0.1)


class TestDeclaredConstants:
    @pytest.mark.parametrize(
        "factory,classification",
        [(linear_regression_loss, False), (logistic_quadratic_loss, True)],
    )
    def test_lipschitz_bound_holds(self, factory, classification):
        spec = factory(radius=1.0, dim=4)
        gen = np.random.default_rng(16)
        q_all, p_all, _ = spec.encode_dataset(_random_dataset(gen, 10_000, 4, classification))
        w_rows = _random_rows(gen, 10_000, 4)
        grads = q_all * np.einsum("ij,ij->i", q_all, w_rows)[:, None] - p_all
        assert float(np.max(np.linalg.norm(grads, axis=1))) <= spec.constants.lipschitz + 1e-9

    @pytest.mark.parametrize(
        "factory,classification",
        [(linear_regression_loss, False), (logistic_quadratic_loss, True)],
    )
    def test_smoothness_bound_holds(self, factory, classification):
        spec = factory(radius=1.0, dim=4)
        gen = np.random.default_rng(17)
        q_all, _, _ = spec.encode_dataset(_random_dataset(gen, 10_000, 4, classification))
        assert float(np.max(np.sum(q_all * q_all, axis=1))) <= spec.constants.smoothness + 1e-9

    def test_linear_regression_constants(self):
        spec = linear_regression_loss(radius=2.0, dim=5)
        assert spec.constants.smoothness == 1.0
        assert spec.constants.lipschitz == 3.0
        assert spec.bound_q == 1.0
        assert spec.bound_p == 1.0

    def test_logistic_constants(self):
        spec = logistic_quadratic_loss(radius=2.0, dim=5)
        assert spec.constants.smoothness == 0.25
        assert spec.constants.lipschitz == 1.0
        assert spec.bound_q == 0.5
        assert spec.bound_p == 0.5

    @pytest.mark.parametrize("factory", [linear_regression_loss, logistic_quadratic_loss])
    @pytest.mark.parametrize("radius", [-1.0, -2.0, -3.0, math.inf, math.nan])
    def test_bad_radius_is_named(self, factory, radius):
        # Both families derive lipschitz from the radius; the error names
        # the radius the caller set, not the derived constant.
        with pytest.raises(ValueError, match=r"^radius must be positive and finite, got "):
            factory(radius=radius, dim=2)


class TestFactoryAndPredict:
    def test_make_loss_round_trip(self):
        spec = make_loss("logistic", radius=1.0, dim=3)
        assert spec.name == "logistic"
        with pytest.raises(ValueError):
            make_loss("hinge", radius=1.0, dim=3)

    def test_regression_prediction_is_linear_response(self):
        spec = linear_regression_loss(radius=1.0, dim=2)
        feats = np.array([[0.5, 0.0], [0.0, 0.25]])
        w = np.array([1.0, -1.0])
        assert predict(spec, feats, w) == pytest.approx([0.5, -0.25])

    def test_classification_sign_with_tie_to_plus_one(self):
        spec = logistic_quadratic_loss(radius=1.0, dim=2)
        feats = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]])
        w = np.array([1.0, 0.0])
        assert predict(spec, feats, w).tolist() == [1.0, -1.0, 1.0]

    def test_encode_dataset_matches_per_example_encoders(self):
        gen = np.random.default_rng(18)
        for family in ("linear_regression", "logistic"):
            ds = _random_dataset(gen, 7, 3, family == "logistic")
            q_all, p_all, s_all = make_loss(family, radius=1.0, dim=3).encode_dataset(ds)
            for i, (x, y) in enumerate(zip(ds.features, ds.labels)):
                q, p, s = _hand_stats(x, float(y), family)
                assert np.array_equal(q_all[i], q)
                assert np.array_equal(p_all[i], p)
                assert s_all[i] == s
