"""Domain types: datasets, ball projection, domain validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inputdp
from inputdp import Dataset, LossConstants, ModelVector, PrivacyBudget


class TestProjectToBall:
    def test_outside_point_lands_on_sphere(self):
        projected = inputdp.project_to_ball(np.array([3.0, 4.0]), 1.0)
        assert projected.w == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_inside_point_unchanged_exactly(self):
        w = np.array([0.1, 0.2])
        projected = inputdp.project_to_ball(w, 1.0)
        assert np.array_equal(projected.w, np.array([0.1, 0.2]))

    def test_norm_scaled_to_radius(self):
        gen = np.random.default_rng(1)
        w = gen.standard_normal(6)
        w *= 7.3 / np.linalg.norm(w)
        projected = inputdp.project_to_ball(w, 2.0)
        assert np.linalg.norm(projected.w) == pytest.approx(2.0, abs=1e-12)

    def test_idempotent(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            w = gen.standard_normal(4) * 3.0
            once = inputdp.project_to_ball(w, 1.5).w
            twice = inputdp.project_to_ball(once, 1.5).w
            assert np.array_equal(once, twice)

    def test_never_increases_norm(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            w = gen.standard_normal(5) * gen.uniform(0, 4)
            projected = inputdp.project_to_ball(w, 1.0)
            assert np.linalg.norm(projected.w) <= min(1.0, np.linalg.norm(w)) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 100.0),
        radius=st.floats(1e-3, 1e3),
    )
    def test_radius_holds_in_every_summation_order(self, dim, seed, scale, radius):
        w = np.random.default_rng(seed).standard_normal(dim)
        w *= scale * radius / np.linalg.norm(w)
        once = inputdp.project_to_ball(w, radius).w
        left_to_right = 0.0
        for value in once.tolist():
            left_to_right += value * value
        assert math.sqrt(left_to_right) <= radius
        assert math.sqrt(math.fsum(v * v for v in once.tolist())) <= radius
        assert float(np.linalg.norm(once)) <= radius
        assert np.array_equal(inputdp.project_to_ball(once, radius).w, once)

    @pytest.mark.parametrize(
        "w, expected",
        [([1e200, 0.0], [1.0, 0.0]), ([3e200, -4e200], [0.6, -0.8]),
         ([1e308, 1e308], [math.sqrt(0.5), math.sqrt(0.5)])],
    )
    def test_overflowing_norm_keeps_direction(self, w, expected):
        # The squares overflow to inf, so dividing by the plain norm would
        # send these points to 0 rather than onto the sphere.
        projected = inputdp.project_to_ball(np.array(w), 1.0).w
        assert projected == pytest.approx(expected, abs=1e-15)
        assert float(np.linalg.norm(projected)) <= 1.0


class TestModelVector:
    def test_projects_at_construction(self):
        mv = ModelVector(w=np.array([2.0, 0.0]), radius=1.0)
        assert mv.w == pytest.approx([1.0, 0.0])

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ModelVector(w=np.array([0.0]), radius=0.0)

    @pytest.mark.parametrize("radius", [1e300, 1e155, 9.49e153, math.inf, math.nan])
    def test_rejects_radius_whose_square_overflows(self, radius):
        # Past about 9.48e153 the squares of a point on the sphere can
        # overflow, and the summation-order check would send [1e200, 0]
        # or [1e160, 1e160] to the zero vector.
        for w in ([1e200, 0.0], [1e160, 1e160]):
            with pytest.raises(ValueError, match="finite"):
                inputdp.project_to_ball(np.array(w), radius)

    @pytest.mark.parametrize("radius", [9.48e153, 1e150])
    def test_largest_radii_keep_the_sphere(self, radius):
        for w in ([1e200, 0.0], [1e160, 1e160], [radius / math.sqrt(3)] * 3):
            once = inputdp.project_to_ball(np.array(w), radius).w
            assert math.sqrt(math.fsum(v * v for v in once.tolist())) <= radius
            assert float(np.linalg.norm(once)) == pytest.approx(radius, rel=1e-12)


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.array([[np.nan, 0.0]]), labels=np.zeros(1))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.zeros((1, 1)), labels=np.array([np.inf]))

    def test_validate_dataset_all_zero_is_clean(self):
        ds = Dataset(features=np.zeros((5, 3)), labels=np.zeros(5))
        assert inputdp.validate_dataset(ds) == []

    def test_validate_dataset_flags_feature_norm(self):
        features = np.zeros((3, 2))
        features[1] = [1.5, 0.0]
        ds = Dataset(features=features, labels=np.zeros(3))
        violations = inputdp.validate_dataset(ds)
        assert len(violations) == 1
        v = violations[0]
        assert (v.index, v.kind) == (1, "feature_norm")
        assert v.value == pytest.approx(1.5)

    def test_validate_dataset_flags_label_bound(self):
        ds = Dataset(features=np.zeros((2, 2)), labels=np.array([0.0, -1.25]))
        violations = inputdp.validate_dataset(ds)
        assert [(v.index, v.kind) for v in violations] == [(1, "label_bound")]

    def test_violations_sorted_by_index_then_kind(self):
        features = np.zeros((4, 2))
        features[3] = [2.0, 0.0]
        features[0] = [1.1, 0.0]
        ds = Dataset(features=features, labels=np.array([0.0, 3.0, 0.0, 2.0]))
        keys = [(v.index, v.kind) for v in inputdp.validate_dataset(ds)]
        assert keys == sorted(keys)

    def test_subset_and_indexing(self):
        features = np.arange(12, dtype=float).reshape(6, 2) / 20.0
        ds = Dataset(features=features, labels=np.linspace(-1, 1, 6))
        sub = ds.subset(np.array([4, 1]))
        assert np.array_equal(sub.features[0], features[4])
        assert len(sub) == 2

    def test_arrays_read_only(self):
        ds = Dataset(features=np.zeros((2, 2)), labels=np.zeros(2))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestScalarTypes:
    def test_budget_accepts_large_epsilon(self):
        PrivacyBudget(epsilon=8.0, delta=0.01)

    def test_budget_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=0.01)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1.0)

    def test_loss_constants_validation(self):
        LossConstants(lipschitz=2.0, smoothness=1.0, radius=1.0, dim=3)
        with pytest.raises(ValueError):
            LossConstants(lipschitz=0.0, smoothness=1.0, radius=1.0, dim=3)
        with pytest.raises(ValueError):
            LossConstants(lipschitz=1.0, smoothness=1.0, radius=1.0, dim=0)
