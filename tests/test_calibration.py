"""Noise calibration: thresholds, brackets, budgets.

Expected values are frozen from independent evaluation of the closed
forms (transcribed separately from the implementation and compared
digit-for-digit before being pinned here).
"""

from __future__ import annotations

import math

import pytest

from inputdp import (
    CalibrationInfeasibleError,
    LossConstants,
    NoiseCalibration,
    PrivacyBudget,
    calibrate,
    explicit_ridge,
    linear_noise_variance,
    local_dp_asymptote,
    local_dp_level,
    min_feasible_n,
    noise_ridge_bounds,
    quad_noise_threshold,
    recommend_reg_cap,
    ridge_floor,
)

CONSTANTS_D14 = LossConstants(lipschitz=1.0, smoothness=1.0, radius=1.0, dim=14)
BUDGET = PrivacyBudget(epsilon=1.0, delta=0.01)


class TestScalars:
    def test_ridge_floor(self):
        assert ridge_floor(1.0, 1.0) == 2.0
        assert ridge_floor(0.25, 0.5) == 1.0

    def test_explicit_ridge_is_cap_minus_floor(self):
        assert explicit_ridge(2.5, 1.0, 1.0) == 0.5
        assert explicit_ridge(1.0, 0.25, 0.5) == 0.0
        with pytest.raises(ValueError, match="below the ridge floor 2"):
            explicit_ridge(1.9, 1.0, 1.0)

    def test_linear_noise_variance_frozen_value(self):
        # zeta^2 (8 log(2/delta') + 4 eps) / eps^2 at eps=1, delta'=0.005, zeta=1
        assert linear_noise_variance(BUDGET, 1.0) == pytest.approx(
            51.931716376863854, rel=1e-15
        )

    def test_linear_noise_variance_quadratic_in_lipschitz(self):
        base = linear_noise_variance(BUDGET, 1.0)
        assert linear_noise_variance(BUDGET, 2.0) == pytest.approx(4 * base, rel=1e-14)

    def test_linear_noise_variance_saturates_instead_of_raising(self):
        # lipschitz**2 overflows past about 1.3e154, and eps**2 underflows
        # to 0 below about 1.5e-162; neither may raise.
        assert linear_noise_variance(PrivacyBudget(0.8, 0.01), 1e300) == math.inf
        assert linear_noise_variance(PrivacyBudget(1e-300, 0.01), 1.0) == math.inf
        # Out of the squares' range, the ratio form keeps finite values.
        tiny = linear_noise_variance(PrivacyBudget(1e-170, 0.01), 1e-160)
        assert tiny == pytest.approx(1e20 * 8.0 * math.log(4.0 / 0.01), rel=1e-14)
        unit_ratio = linear_noise_variance(PrivacyBudget(1e-150, 0.01), 1e-150)
        assert unit_ratio == pytest.approx(8.0 * math.log(4.0 / 0.01), rel=1e-14)

    def test_tail_ratio_example(self):
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        # sqrt(log(2 / 0.005) / 1024) ~ 0.0765
        assert cal.tail_ratio == pytest.approx(0.07649208845877552, rel=1e-15)


class TestThreshold:
    def test_tends_to_sqrt_of_ridge_floor(self):
        # log/n terms vanish: threshold^2 -> 2 * smoothness / epsilon
        thr = quad_noise_threshold(10**14, 0.005, 14, 1.0, 1.0)
        assert thr == pytest.approx(math.sqrt(2.0), rel=1e-5)

    def test_frozen_value_at_1e6(self):
        thr = quad_noise_threshold(10**6, 0.005, 14, 1.0, 1.0)
        assert thr == pytest.approx(1.4309635551158701, rel=1e-15)

    def test_frozen_value_small_epsilon(self):
        thr = quad_noise_threshold(4096, 0.005, 14, 1.0, 0.1)
        assert thr == pytest.approx(4.889902307182175, rel=1e-15)

    def test_infeasible_n_names_the_minimum(self):
        assert min_feasible_n(0.005) == 27
        with pytest.raises(CalibrationInfeasibleError, match="27"):
            quad_noise_threshold(26, 0.005, 14, 1.0, 1.0)
        # boundary: 27 > 4 log(4/0.005) = 26.738... is feasible
        quad_noise_threshold(27, 0.005, 14, 1.0, 1.0)

    def test_root_property_on_grid(self):
        # plugging the threshold into the bracket gives lower = floor
        for n in (30, 100, 1000, 10**5):
            for eps in (0.3, 1.0, 2.0):
                for d in (2, 14):
                    thr = quad_noise_threshold(n, 0.005, d, 1.0, eps)
                    bracket = noise_ridge_bounds(n, 0.005, thr, 1.0, d)
                    floor = 2.0 / eps
                    assert bracket.lower == pytest.approx(floor, abs=1e-9 * floor)


class TestBracket:
    def test_frozen_example(self):
        bracket = noise_ridge_bounds(1000, 0.01, 2.0, 1.0, 5)
        assert bracket.lower == pytest.approx(2.4600406251666618, rel=1e-15)
        assert bracket.upper == pytest.approx(5.587891091210201, rel=1e-15)

    def test_both_bounds_tend_to_the_variance(self):
        for sd in (0.5, 2.0, 7.0):
            bracket = noise_ridge_bounds(10**13, 0.01, sd, 1.0, 5)
            assert bracket.lower == pytest.approx(sd**2, rel=1e-4)
            assert bracket.upper == pytest.approx(sd**2, rel=1e-4)

    def test_width_strictly_decreasing_in_n(self):
        widths = [
            noise_ridge_bounds(n, 0.01, 2.0, 1.0, 5).upper
            - noise_ridge_bounds(n, 0.01, 2.0, 1.0, 5).lower
            for n in (100, 400, 1600, 6400)
        ]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_upper_gap_bounded_by_c_over_sqrt_n(self):
        # |upper - sd^2| <= C / sqrt(n) for a constant fitted at n = 100
        sd = 2.0
        gap_100 = noise_ridge_bounds(100, 0.01, sd, 1.0, 5).upper - sd**2
        c_fit = gap_100 * math.sqrt(100)
        for n in (10**2, 10**4, 10**6, 10**8):
            gap = noise_ridge_bounds(n, 0.01, sd, 1.0, 5).upper - sd**2
            assert abs(gap) <= c_fit / math.sqrt(n) * (1 + 1e-12)


class TestCalibrate:
    def test_frozen_values_at_1024(self):
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        assert cal.fail_prob == 0.005
        assert cal.delta_linear == 0.005
        assert cal.linear_noise_var == pytest.approx(51.931716376863854, rel=1e-15)
        assert cal.quad_noise_var == pytest.approx(4.414470792055215, rel=1e-15)
        assert cal.to_dict()["slack"] == 1.0001

    def test_quad_variance_is_slack_times_threshold_square(self):
        thr = quad_noise_threshold(1024, 0.005, 14, 1.0, 1.0)
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        assert cal.quad_noise_var == pytest.approx(1.0001 * thr**2, rel=1e-15)

    def test_noise_values_cannot_be_chosen(self):
        # The derived fields are not constructor arguments, and there is
        # no slack knob: every calibration is a function of (n, budget,
        # constants) alone.
        for name in ("fail_prob", "delta_linear", "tail_ratio", "linear_noise_var",
                     "quad_noise_var", "slack"):
            with pytest.raises(TypeError):
                NoiseCalibration(n=1024, budget=BUDGET, constants=CONSTANTS_D14, **{name: 0.0})
        with pytest.raises(TypeError):
            calibrate(BUDGET, 1024, CONSTANTS_D14, slack=1.0)

    def test_constructor_is_the_calibration(self):
        assert NoiseCalibration(1024, BUDGET, CONSTANTS_D14) == calibrate(
            BUDGET, 1024, CONSTANTS_D14
        )

    def test_constructor_refuses_infeasible_n(self):
        # min_feasible_n(0.005) = 27: the constructor itself refuses n = 26.
        assert NoiseCalibration(27, BUDGET, CONSTANTS_D14).n == 27
        with pytest.raises(CalibrationInfeasibleError) as err:
            NoiseCalibration(26, BUDGET, CONSTANTS_D14)
        assert err.value.min_n == 27

    def test_infeasible_small_n(self):
        with pytest.raises(CalibrationInfeasibleError) as err:
            calibrate(BUDGET, 8, CONSTANTS_D14)
        assert err.value.min_n == 27

    @pytest.mark.parametrize(
        "epsilon, lipschitz, smoothness",
        [
            (0.8, 1e300, 1.0),  # lipschitz**2 overflows
            (1e-10, 1e150, 1.0),  # the variance passes the float range
            (1e-3, 5e153, 1.0),
            (1e-300, 2.0, 1.0),  # eps**2 underflows to 0
            (1.0, 2.0, 1e200),  # the quadratic threshold's square overflows
        ],
    )
    def test_refuses_a_variance_that_is_not_finite(self, epsilon, lipschitz, smoothness):
        constants = LossConstants(lipschitz=lipschitz, smoothness=smoothness, radius=1.0, dim=3)
        with pytest.raises(ValueError, match=r"noise_var is inf at lipschitz = ") as err:
            calibrate(PrivacyBudget(epsilon, 0.01), 100, constants)
        assert f"epsilon = {epsilon!r}" in str(err.value)
        assert f"lipschitz = {lipschitz!r}" in str(err.value)

    def test_linear_variance_strictly_decreasing_in_epsilon(self):
        variances = [
            calibrate(PrivacyBudget(eps, 0.01), 1024, CONSTANTS_D14).linear_noise_var
            for eps in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(variances, variances[1:]))


class TestLocalPrivacy:
    def test_frozen_level_at_1024(self):
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        level = local_dp_level(cal, bound_q=1.0, bound_p=1.0)
        assert level.epsilon_constants_convention == pytest.approx(
            122.25506379925162, rel=1e-15
        )
        # bounds equal to the constants here, so the conventions coincide
        assert level.epsilon_declared_bounds == pytest.approx(
            level.epsilon_constants_convention, rel=1e-15
        )
        assert level.delta == pytest.approx(0.02)
        assert level.noise_constant == pytest.approx(3.1075114600922396, rel=1e-15)

    def test_to_dict_names_every_field(self):
        level = local_dp_level(calibrate(BUDGET, 1024, CONSTANTS_D14))
        assert level.to_dict() == {
            "epsilon_constants_convention": level.epsilon_constants_convention,
            "epsilon_declared_bounds": None,
            "delta": level.delta,
            "noise_constant": level.noise_constant,
        }

    def test_declared_bounds_absent_when_not_supplied(self):
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        assert local_dp_level(cal).epsilon_declared_bounds is None

    def test_declared_convention_scales_with_bounds(self):
        cal = calibrate(BUDGET, 1024, CONSTANTS_D14)
        one = local_dp_level(cal, bound_q=1.0, bound_p=1.0)
        half = local_dp_level(cal, bound_q=0.5, bound_p=0.5)
        assert half.epsilon_declared_bounds == pytest.approx(
            0.5 * one.epsilon_declared_bounds, rel=1e-12
        )

    def test_level_grows_with_n(self):
        levels = [
            local_dp_level(calibrate(BUDGET, n, CONSTANTS_D14)).epsilon_constants_convention
            for n in (128, 1024, 8192)
        ]
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_asymptote_reached_within_one_percent_by_1e8(self):
        limit = local_dp_asymptote(BUDGET, CONSTANTS_D14)
        assert limit == pytest.approx(5.257119898273765, rel=1e-15)
        level = local_dp_level(calibrate(BUDGET, 10**8, CONSTANTS_D14))
        ratio = level.epsilon_constants_convention / math.sqrt(10**8 * BUDGET.epsilon)
        rel_err = abs(ratio / limit - 1.0)
        assert rel_err == pytest.approx(0.0010231688398678607, rel=1e-9)
        assert rel_err <= 0.01


class TestBudgetHelpers:
    def test_rescaled_budget_scales_local_level_asymptotically(self):
        # the local level behaves like const(eps) * sqrt(n * eps); halving
        # eps multiplies it by sqrt(1/2) * const(eps/2)/const(eps)
        n = 10**9
        full = local_dp_level(calibrate(BUDGET, n, CONSTANTS_D14))
        half_budget = PrivacyBudget(epsilon=BUDGET.epsilon / 2, delta=BUDGET.delta)
        half = local_dp_level(calibrate(half_budget, n, CONSTANTS_D14))
        observed = (
            half.epsilon_constants_convention / full.epsilon_constants_convention
        )
        predicted = 0.6747573589075047  # sqrt(0.5) * limit-constant correction
        assert abs(observed / predicted - 1.0) <= 1e-3

    def test_recommendation_frozen_value(self):
        assert recommend_reg_cap(CONSTANTS_D14, BUDGET) == pytest.approx(
            8.029469634031459, rel=1e-15
        )

    def test_recommendation_clamped_to_floor_multiple(self):
        # a wide model ball makes the balance term small, so the floor
        # multiple binds
        loose = PrivacyBudget(epsilon=8.0, delta=0.01)
        wide = LossConstants(lipschitz=1.0, smoothness=1.0, radius=100.0, dim=14)
        value = recommend_reg_cap(wide, loose)
        assert value == pytest.approx(1.01 * 2.0 / 8.0, rel=1e-15)
