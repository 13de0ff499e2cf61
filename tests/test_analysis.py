"""Risk metrics, concentration checks, and the Gaussian-mechanism verifier.

The verifier is checked against a closed-form deficit and the deficits
of explicit threshold events, computed in tests/_oracles.py from SciPy's
normal CDF, and against mpmath; the exact tail
probabilities against SciPy's incomplete gamma and normal CDF;
Monte-Carlo frequencies are frozen from pinned-seed runs.  The exact-law noise-ridge draws are tied
to the full-matrix reference by their moments and a two-sample KS test.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import ks_2samp

import inputdp
from inputdp import (
    CoverageReport,
    Dataset,
    PrivacyBudget,
    RngStream,
    calibrate,
    dp_verifier_gaussian_1d,
    empirical_objective,
    learn_non_private,
    linear_regression_loss,
    noise_free_gap,
    noise_ridge_coverage,
    perturb_dataset,
    quad_noise_threshold,
    recommend_reg_cap,
    reconstruct_objective_identity,
    ridge_floor,
    run_check_suite,
    sample_noise_ridge,
    tail_check_chi_square,
    tail_check_gaussian,
    worst_case_quad_stats,
)
from inputdp.analysis import (
    _check,
    _gamma_p_q,
    _noise_ridge_samples,
)
from inputdp.harness import clamp_excess_risk
from tests._oracles import (
    chi_square_tails,
    draw_noise_ridge_samples,
    gaussian_delta_closed_form,
    grid_scan_deficit,
    threshold_deficit,
)

BUDGET = PrivacyBudget(epsilon=1.0, delta=0.01)


@pytest.fixture(scope="module")
def small_dataset():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((40, 3))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
    y = np.clip(gen.standard_normal(40) * 0.3, -1, 1)
    return Dataset(features=x, labels=y)


class TestExcessRisk:
    """The harness's excess risk: clamp_excess_risk of the objective
    difference to the in-ball minimizer."""

    def test_zero_at_the_minimizer(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        baseline = learn_non_private(small_dataset, spec)
        best = empirical_objective(small_dataset, spec, baseline)
        assert clamp_excess_risk(best - best) == 0.0
        # Roundoff below zero is clamped; a real deficit is not hidden.
        assert clamp_excess_risk(-1e-12) == 0.0
        assert clamp_excess_risk(-1e-10) == 0.0
        assert clamp_excess_risk(-2e-10) == -2e-10

    def test_equals_explicit_subtraction(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        baseline = learn_non_private(small_dataset, spec)
        gen = np.random.default_rng(1)
        for _ in range(10):
            w = gen.standard_normal(3)
            w /= max(1.0, float(np.linalg.norm(w)))
            expected = empirical_objective(small_dataset, spec, w) - empirical_objective(
                small_dataset, spec, baseline
            )
            value = clamp_excess_risk(expected)
            assert value == expected
            assert value >= 0.0


class TestObjectiveReconstruction:
    def test_zero_noise_reduces_to_clean_objective(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        from inputdp import NoiseRecord

        record = NoiseRecord(quad_noise=np.zeros((40, 3)), linear_noise=np.zeros((40, 3)))
        w = np.array([0.3, -0.2, 0.1])
        lhs, rhs = reconstruct_objective_identity(
            small_dataset, spec, record, w, reg_cap=4.0, epsilon=1.0
        )
        clean = empirical_objective(small_dataset, spec, w, reg_coeff=4.0 - 2.0)
        assert lhs == pytest.approx(clean, rel=1e-12)
        assert rhs == pytest.approx(clean, rel=1e-12)

    def test_zero_model_sees_only_offsets(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 40, spec.constants)
        _, record = perturb_dataset(
            small_dataset, spec, cal, RngStream(8, path=(2,)), record_noise=True
        )
        lhs, rhs = reconstruct_objective_identity(
            small_dataset, spec, record, np.zeros(3), reg_cap=4.0, epsilon=1.0
        )
        expected = float(np.mean(small_dataset.labels**2 / 2.0))
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_identity_on_seeded_instances(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 40, spec.constants)
        gen = np.random.default_rng(77)
        for trial in range(5):
            _, record = perturb_dataset(
                small_dataset, spec, cal, RngStream(9, path=(3, trial)), record_noise=True
            )
            for _ in range(4):
                w = gen.standard_normal(3)
                w *= gen.uniform(0, 1) / float(np.linalg.norm(w))
                lhs, rhs = reconstruct_objective_identity(
                    small_dataset, spec, record, w, reg_cap=8.0, epsilon=1.0
                )
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_cap_below_the_ridge_floor_refused(self, small_dataset):
        # At epsilon = 1 the floor is 2: a cap of 1.9 would evaluate an
        # objective whose total ridge no privacy argument covers.
        spec = linear_regression_loss(dim=3, radius=1.0)
        from inputdp import NoiseRecord

        record = NoiseRecord(quad_noise=np.zeros((40, 3)), linear_noise=np.zeros((40, 3)))
        with pytest.raises(ValueError, match="ridge floor"):
            reconstruct_objective_identity(
                small_dataset, spec, record, np.zeros(3), reg_cap=1.9, epsilon=1.0
            )


class TestWorstCaseQuadStats:
    def test_row_geometry(self):
        direction = np.array([3.0, 4.0])
        stats = worst_case_quad_stats(25, 2, direction, smoothness=1.0)
        assert stats.shape == (25, 2)
        expected_row = np.array([0.6, 0.8]) * math.sqrt(2.0 / 25.0)
        assert np.allclose(stats, expected_row, atol=1e-15)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            worst_case_quad_stats(4, 2, np.zeros(2), 1.0)


class TestSampleNoiseRidge:
    def test_pure_noise_mean(self):
        # Q = 0: the ridge is ||U w||^2 with mean sd^2; 1e4 draws at
        # n=400, d=5, sd=1.5 (target 2.25, se = sd^2 sqrt(2/n) / 100)
        n, d, sd = 400, 5, 1.5
        quad = np.zeros((n, d))
        w = np.zeros(d)
        w[0] = 1.0
        root = RngStream(21, path=(60,))
        values = np.array(
            [sample_noise_ridge(quad, sd, w, root.child(i)) for i in range(10_000)]
        )
        mean = float(values.mean())
        assert mean == pytest.approx(2.2499289723012823, rel=1e-12)
        assert abs(mean - sd**2) <= 3.0 * (sd**2) * math.sqrt(2.0 / n) / 100.0

    def test_zero_sd_is_exactly_zero(self):
        w = np.array([1.0, 0.0])
        assert sample_noise_ridge(np.ones((5, 2)), 0.0, w, RngStream(0)) == 0.0

    def test_reproducible(self):
        w = np.array([0.0, 1.0])
        quad = np.full((6, 2), 0.1)
        a = sample_noise_ridge(quad, 1.0, w, RngStream(4, path=(4,)))
        b = sample_noise_ridge(quad, 1.0, w, RngStream(4, path=(4,)))
        assert a == b

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            sample_noise_ridge(np.zeros((3, 2)), 1.0, np.array([1.0, 1.0]), RngStream(0))


def _suite_instance(sd_factor: float = 1.0):
    """run_check_suite's coverage instance: worst-case statistics at n=1000,
    d=14, with the threshold noise sd (times ``sd_factor``)."""
    n, dim, fail_prob = 1000, 14, 0.005
    probe = np.zeros(dim)
    probe[0] = 1.0
    stats = worst_case_quad_stats(n, dim, probe, 1.0)
    sd = sd_factor * quad_noise_threshold(n, fail_prob, dim, 1.0, 1.0)
    return stats, sd, probe, fail_prob


class TestExactLawNoiseRidge:
    """R = s^2 X - ||c||^2 with X ~ noncentral chi-square(n, ||c||^2 / s^2),
    s^2 = sd^2 / n and c = Q w.  Its cumulants are k_j = s^(2j) 2^(j-1)
    (j-1)! (n + j ||c||^2 / s^2) (minus ||c||^2 for j = 1), so the mean is
    sd^2 and the variance 2 n s^4 + 4 s^2 ||c||^2."""

    @pytest.mark.parametrize("clean_scale, offset", [(1.0, 14.0), (0.0, 0.0)])
    def test_moments_within_four_standard_errors(self, clean_scale, offset):
        stats, sd, probe, _ = _suite_instance()
        stats = clean_scale * stats
        assert float(np.sum((stats @ probe) ** 2)) == pytest.approx(offset)
        n = stats.shape[0]
        trials = 10**6
        samples = _noise_ridge_samples(stats, sd, probe, trials, RngStream(5, path=(65,)))
        s2 = sd**2 / n
        nonc = offset / s2
        k2 = 2.0 * n * s2**2 + 4.0 * s2 * offset
        k4 = 48.0 * s2**4 * (n + 4.0 * nonc)
        mean_se = math.sqrt(k2 / trials)
        var_se = math.sqrt((k4 + 2.0 * k2**2) / trials)
        assert abs(float(samples.mean()) - sd**2) <= 4.0 * mean_se
        assert abs(float(samples.var()) - k2) <= 4.0 * var_se

    def test_same_law_as_full_matrix_draws(self):
        # Small n and d, with a cross term comparable to the pure-noise
        # term so a law that drops either one shows.
        n, d, sd = 12, 3, 0.8
        w = np.array([0.6, 0.0, 0.8])
        stats = worst_case_quad_stats(n, d, w, 1.0)
        fast = _noise_ridge_samples(stats, sd, w, 20_000, RngStream(6, path=(66,)))
        root = RngStream(6, path=(67,))
        full = np.array(
            [sample_noise_ridge(stats, sd, w, root.child(i)) for i in range(4_000)]
        )
        oracle = draw_noise_ridge_samples(stats, sd, w, 4_000, np.random.default_rng(68))
        assert ks_2samp(fast, full).pvalue > 0.01
        assert ks_2samp(fast, oracle).pvalue > 0.01

    def test_zero_sd_is_exactly_zero(self):
        stats, _, probe, _ = _suite_instance()
        samples = _noise_ridge_samples(stats, 0.0, probe, 50, RngStream(0))
        assert samples.shape == (50,)
        assert np.all(samples == 0.0)

    def test_reproducible_per_stream(self):
        stats, sd, probe, _ = _suite_instance()
        a = _noise_ridge_samples(stats, sd, probe, 1_000, RngStream(4, path=(4,)))
        b = _noise_ridge_samples(stats, sd, probe, 1_000, RngStream(4, path=(4,)))
        c = _noise_ridge_samples(stats, sd, probe, 1_000, RngStream(4, path=(5,)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_floor_check_flags_undernoised_scale(self):
        """Negative control for the suite's floor check: at 0.8 x the
        threshold sd the ridge misses the floor about 2% of the time,
        far above fail_prob = 0.005, and the check must fail.  (At 0.9 x
        the miss rate is about 3e-4, too small to see at this size.)"""
        trials = 100_000
        floor = ridge_floor(1.0, 1.0)
        frequencies = []
        for factor in (1.0, 0.8):
            stats, sd, probe, fail_prob = _suite_instance(factor)
            samples = _noise_ridge_samples(
                stats, sd, probe, trials, RngStream(31, path=(64,))
            )
            frequencies.append(
                CoverageReport.from_hits(
                    hits=int(np.count_nonzero(samples >= floor)),
                    trials=trials,
                    target=1.0 - fail_prob,
                )
            )
        calibrated, undernoised = frequencies
        assert calibrated.frequency == 1.0
        assert calibrated.passes
        assert undernoised.frequency == pytest.approx(0.98, abs=1e-12)
        assert undernoised.frequency < undernoised.target - 3.0 * undernoised.stderr
        assert not undernoised.passes


class TestScipyFree:
    def test_import_does_not_load_scipy(self):
        env = {**os.environ, "PYTHONPATH": str(Path(inputdp.__file__).parents[1])}
        code = (
            "import sys\n"
            "import inputdp, inputdp.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert result.stdout.strip() == "[]"


class TestNoiseRidgeCoverage:
    def test_worst_case_high_confidence(self):
        n, d = 1000, 5
        w = np.zeros(d)
        w[0] = 1.0
        stats = worst_case_quad_stats(n, d, w, 1.0)
        report = noise_ridge_coverage(
            stats, 2.0, w, 0.01, 10_000, RngStream(23, path=(61,)), 1.0
        )
        assert report.trials == 10_000
        assert report.frequency == 1.0
        assert report.passes

    def test_loose_fail_prob(self):
        n, d = 1000, 5
        w = np.zeros(d)
        w[0] = 1.0
        stats = worst_case_quad_stats(n, d, w, 1.0)
        report = noise_ridge_coverage(
            stats, 2.0, w, 0.5, 2_000, RngStream(23, path=(62,)), 1.0
        )
        assert report.frequency == pytest.approx(0.9885, abs=1e-12)
        assert report.frequency >= report.target - 3.0 * report.stderr

    def test_degenerate_zero_noise(self):
        n, d = 1000, 5
        w = np.zeros(d)
        w[0] = 1.0
        stats = worst_case_quad_stats(n, d, w, 1.0)
        report = noise_ridge_coverage(
            stats, 0.0, w, 0.01, 100, RngStream(23, path=(63,)), 1.0
        )
        assert report.frequency == 1.0


# The suite's (dof, t) pairs, and the degrees of freedom the exact tails
# are held to SciPy's at.
SUITE_CHI_SQUARE = [(100, 3.0), (1, 0.1), (50, 10.0)]
ORACLE_DOFS = [1, 2, 3, 14, 50, 100, 1001, 10**5]


def _chi_square_spread(dof: int) -> list[float]:
    """Points from deep in the lower tail to deep in the upper tail."""
    sd = math.sqrt(2.0 * dof)
    around_mean = [dof + z * sd for z in (-6, -3, -1, -0.1, 0, 0.1, 1, 3, 6, 10)]
    scaled = [dof * f for f in (1e-3, 0.1, 0.5, 0.9, 1.1, 2.0, 5.0)]
    return sorted(x for x in around_mean + scaled + [dof / 2.0 + 1e-9, dof + 2.0] if x > 0)


class TestTailChecks:
    def test_chi_square_frozen_suite_points(self):
        # The (dof, t) pairs run_check_suite reports, exact and below e^-t.
        expected = {
            (100, 3.0): (0.004627475738580627, 0.0028936185849778467),
            (1, 0.1): (0.17583778543119877, 0.4556542047108415),
            (50, 10.0): (5.364421128882494e-07, 1.7648193430410458e-16),
        }
        for dof, t in SUITE_CHI_SQUARE:
            upper, lower = tail_check_chi_square(dof, t)
            assert (upper, lower) == pytest.approx(expected[dof, t], rel=1e-13)
            spread = 2.0 * math.sqrt(dof * t)
            assert upper == pytest.approx(
                chi_square_tails(dof, dof + spread + 2.0 * t)[1], rel=1e-12
            )
            assert lower == pytest.approx(chi_square_tails(dof, dof - spread)[0], rel=1e-12)
            assert max(upper, lower) <= math.exp(-t)

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_chi_square_tails_match_oracle(self, dof):
        for x in _chi_square_spread(dof):
            lower, upper = _gamma_p_q(dof / 2.0, x / 2.0)
            want_lower, want_upper = chi_square_tails(dof, x)
            assert lower == pytest.approx(want_lower, rel=1e-12, abs=1e-300), x
            assert upper == pytest.approx(want_upper, rel=1e-12, abs=1e-300), x

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_chi_square_events_match_oracle(self, dof):
        # Once t >= dof / 4 the lower threshold is <= 0 and its event is empty.
        for t in (1e-4, 0.01, 0.5, 3.0, 30.0):
            upper, lower = tail_check_chi_square(dof, t)
            spread = 2.0 * math.sqrt(dof * t)
            want_upper = chi_square_tails(dof, dof + spread + 2.0 * t)[1]
            want_lower = chi_square_tails(dof, dof - spread)[0] if dof > spread else 0.0
            assert upper == pytest.approx(want_upper, rel=1e-12, abs=1e-300), t
            assert lower == pytest.approx(want_lower, rel=1e-12, abs=1e-300), t

    @settings(max_examples=200, deadline=None)
    @given(
        dof=st.integers(min_value=1, max_value=2_000),
        x=st.floats(min_value=1e-6, max_value=6_000.0),
        step=st.floats(min_value=1e-9, max_value=50.0),
    )
    def test_chi_square_tails_complementary_and_monotone(self, dof, x, step):
        lower, upper = _gamma_p_q(dof / 2.0, x / 2.0)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        assert abs(lower + upper - 1.0) <= 1e-12
        lower_right, upper_right = _gamma_p_q(dof / 2.0, (x + step) / 2.0)
        assert lower_right >= lower * (1.0 - 1e-12)
        assert upper_right <= upper * (1.0 + 1e-12)

    def test_chi_square_low_dof(self):
        # One degree of freedom: Z = N(0,1)^2, so P(Z <= x) = erf(sqrt(x/2)).
        upper, lower = tail_check_chi_square(1, 0.1)
        spread = 2.0 * math.sqrt(0.1)
        assert upper == pytest.approx(math.erfc(math.sqrt((1.0 + spread + 0.2) / 2.0)), rel=1e-13)
        assert lower == pytest.approx(math.erf(math.sqrt((1.0 - spread) / 2.0)), rel=1e-13)
        assert max(upper, lower) <= math.exp(-0.1)

    def test_chi_square_validation(self):
        with pytest.raises(ValueError):
            tail_check_chi_square(0, 1.0)
        with pytest.raises(ValueError):
            tail_check_chi_square(5, 0.0)
        with pytest.raises(ValueError):
            tail_check_chi_square(5, math.nan)
        assert tail_check_chi_square(5, math.inf) == (0.0, 0.0)

    def test_gaussian_matches_oracle(self):
        for t in (1.0001, 1.25, 2.0, 3.0, 5.0, 10.0, 30.0):
            prob = tail_check_gaussian(t)
            assert prob == pytest.approx(2.0 * float(ndtr(-t)), rel=1e-12), t
            assert prob <= math.exp(-(t**2) / 2.0)

    def test_gaussian_monotone_in_threshold(self):
        probs = [tail_check_gaussian(t) for t in (1.25, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_gaussian_threshold_domain(self):
        with pytest.raises(ValueError, match="t > 1"):
            tail_check_gaussian(1.0)
        with pytest.raises(ValueError, match="t > 1"):
            tail_check_gaussian(math.nan)

    def test_tighter_false_bound_is_flagged(self):
        # e^{-t^2} at t = 1.25 is 0.2096, below the exact tail 0.2113: a
        # check held to it must fail, so an exact check can catch a bound
        # that is off by under 1%.
        t = 1.25
        record = _check("gaussian_tail", {"t": t}, tail_check_gaussian(t), math.exp(-(t**2)), "<=")
        assert record["pass"] is False
        assert _check(
            "gaussian_tail", {"t": t}, tail_check_gaussian(t), math.exp(-(t**2) / 2.0), "<="
        )["pass"] is True


SUITE_SIGMA = math.sqrt(2.0 * math.log(1.25 / 0.01)) / 0.5
# The suite's calibrated and tenth-of-calibrated scales, then a sweep.
VERIFIER_SIGMAS = (SUITE_SIGMA, 0.1 * SUITE_SIGMA, 2.0, 3.0, 4.0, 6.0, 8.0)


class TestDpVerifier:
    def test_calibrated_scale_matches_closed_form(self):
        observed = dp_verifier_gaussian_1d(1.0, SUITE_SIGMA, 0.5)
        assert observed == pytest.approx(5.357967996258038e-05, rel=1e-12)
        exact = gaussian_delta_closed_form(SUITE_SIGMA, 0.5, 1.0)
        assert abs(observed - exact) <= 1e-15
        assert observed <= 0.01

    def test_undernoised_scale_is_flagged(self):
        observed = dp_verifier_gaussian_1d(1.0, 0.1 * SUITE_SIGMA, 0.5)
        assert observed == pytest.approx(0.4710162643394412, rel=1e-12)
        exact = gaussian_delta_closed_form(0.1 * SUITE_SIGMA, 0.5, 1.0)
        assert abs(observed - exact) <= 1e-15
        assert observed > 0.01

    def test_huge_noise_has_no_deficit(self):
        assert dp_verifier_gaussian_1d(1.0, 1e6, 0.5) == 0.0

    def test_monotone_in_sigma(self):
        values = [dp_verifier_gaussian_1d(1.0, s, 0.5) for s in (2.0, 3.0, 4.0, 6.0, 8.0)]
        assert values[0] == pytest.approx(0.05244032328766962, rel=1e-12)
        assert values[-1] == pytest.approx(1.144800228386879e-06, rel=1e-12)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("sigma", VERIFIER_SIGMAS)
    def test_exact_and_at_least_the_grid_scan(self, sigma):
        observed = dp_verifier_gaussian_1d(1.0, sigma, 0.5)
        assert abs(observed - gaussian_delta_closed_form(sigma, 0.5, 1.0)) <= 1e-15
        assert observed >= grid_scan_deficit(1.0, sigma, 0.5)

    def test_grid_misses_the_threshold_beyond_its_range(self):
        # The old scan's range [-10 sigma, 1 + 10 sigma] stops containing
        # tau* = 1/2 + sigma^2 / 2 once sigma > 20, so it under-reports.
        sigma = 25.0
        assert 0.5 + sigma**2 * 0.5 > 1.0 + 10.0 * sigma
        observed = dp_verifier_gaussian_1d(1.0, sigma, 0.5)
        assert observed > 0.0
        assert grid_scan_deficit(1.0, sigma, 0.5) < observed

    @settings(max_examples=300, deadline=None)
    @given(
        diameter=st.floats(0.01, 100.0),
        sigma=st.floats(0.01, 100.0),
        epsilon=st.floats(0.01, 5.0),
        tau=st.floats(-1e4, 1e4),
    )
    def test_supremum_over_threshold_events(self, diameter, sigma, epsilon, tau):
        observed = dp_verifier_gaussian_1d(diameter, sigma, epsilon)
        at_tau = threshold_deficit(diameter, sigma, epsilon, [tau])[0]
        assert observed >= at_tau - 1e-15
        tau_star = diameter / 2.0 + sigma**2 * epsilon / diameter
        at_star = threshold_deficit(diameter, sigma, epsilon, [tau_star])[0]
        assert abs(observed - max(at_star, 0.0)) <= 1e-15

    @pytest.mark.parametrize(
        "diameter, sigma, epsilon",
        [(1.0, s, 0.5) for s in VERIFIER_SIGMAS]
        + [(2.0, 0.5, 1.0), (1.0, 1.0, 10.0), (1.0, 0.05, 3.0), (0.5, 1.0, 0.1)],
    )
    def test_relative_accuracy_against_mpmath(self, diameter, sigma, epsilon):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            mu = mpmath.mpf(diameter) / mpmath.mpf(sigma)
            eps = mpmath.mpf(epsilon)
            exact = mpmath.ncdf(mu / 2 - eps / mu) - mpmath.exp(eps) * mpmath.ncdf(
                -mu / 2 - eps / mu
            )
            assert exact >= 1e-300
            observed = dp_verifier_gaussian_1d(diameter, sigma, epsilon)
            assert abs(observed - exact) <= 1e-12 * exact

    def test_epsilon_past_exp_overflow(self):
        # math.exp(710.0) overflows; the shifted tail is far larger than
        # the first one, so the deficit is 0.
        assert dp_verifier_gaussian_1d(1.0, 1.0, 710.0) == 0.0

    @pytest.mark.parametrize("epsilon", [710.0, 1000.0, 1e4])
    @pytest.mark.parametrize("offset", [-1.0, 1.0])
    def test_large_epsilon_against_mpmath(self, epsilon, offset):
        # mu solves mu/2 - epsilon/mu = offset, so the first tail is
        # Phi(offset) and the deficit lies near 0.15 or 0.84.
        mpmath = pytest.importorskip("mpmath")
        sigma = 1.0 / (offset + math.sqrt(offset * offset + 2.0 * epsilon))
        with mpmath.workdps(50):
            mu = 1 / mpmath.mpf(sigma)
            eps = mpmath.mpf(epsilon)
            exact = mpmath.ncdf(mu / 2 - eps / mu) - mpmath.exp(eps) * mpmath.ncdf(
                -mu / 2 - eps / mu
            )
            assert 1e-3 <= exact <= 0.9
            observed = dp_verifier_gaussian_1d(1.0, sigma, epsilon)
            assert abs(observed - exact) <= 1e-12 * exact

    def test_validation(self):
        with pytest.raises(ValueError):
            dp_verifier_gaussian_1d(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            dp_verifier_gaussian_1d(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            dp_verifier_gaussian_1d(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_refused(self, position, bad):
        args = [1.0, 1.0, 0.5]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            dp_verifier_gaussian_1d(*args)


class TestNoiseFreeGap:
    def test_bounds_hold_on_seeded_trials(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 40, spec.constants)
        reg_cap = recommend_reg_cap(spec.constants, BUDGET)
        applicable = 0
        for seed in range(40, 50):
            _, record = perturb_dataset(
                small_dataset, spec, cal, RngStream(seed, path=(67,)), record_noise=True
            )
            gap = noise_free_gap(small_dataset, spec, record, reg_cap, BUDGET.epsilon)
            assert set(gap) == {
                "applicable",
                "denom",
                "distance",
                "distance_bound",
                "ridge_at_direction",
                "utility_bound",
                "utility_gap",
            }
            if gap["applicable"]:
                applicable += 1
                assert gap["distance"] <= gap["distance_bound"] * (1 + 1e-9)
                assert gap["utility_gap"] <= gap["utility_bound"] * (1 + 1e-9)
        assert applicable == 10

    def test_rejects_cap_below_floor(self, small_dataset):
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 40, spec.constants)
        _, record = perturb_dataset(
            small_dataset, spec, cal, RngStream(40, path=(67,)), record_noise=True
        )
        with pytest.raises(ValueError, match="ridge floor"):
            noise_free_gap(small_dataset, spec, record, 1.0, BUDGET.epsilon)


class TestCheckSuite:
    def test_all_checks_pass_with_stable_schema(self):
        records = run_check_suite(seed=0)
        assert len(records) == 16
        for record in records:
            assert set(record) == {
                "check",
                "params",
                "statistic",
                "bound",
                "direction",
                "pass",
            }
            assert record["direction"] in ("<=", ">=")
            assert record["pass"] is True
        names = [r["check"] for r in records]
        assert "noise_ridge_bracket_coverage" in names
        assert "dp_verifier_undernoised_detected" in names
        assert "objective_reconstruction_identity" in names
