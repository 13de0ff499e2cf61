"""Verification tools: concentration checks, a DP verifier, gap checks.

Everything here exists to *check* the pipeline's probabilistic claims
numerically rather than trust them:

* the exact algebraic identity tying the perturbed objective to the
  clean one plus noise terms (:func:`reconstruct_objective_identity`);
* Monte-Carlo coverage of the noise-ridge bracket and of the
  privacy-enabling event (:func:`noise_ridge_coverage`), drawn from the
  ridge's exact law (a shifted, scaled noncentral chi-square) rather
  than from full noise matrices; :func:`sample_noise_ridge` keeps the
  full-matrix draw as the reference;
* exact checks of the chi-square and Gaussian tail bounds the
  calibration leans on, with the tail probabilities from the regularized
  incomplete gamma function and ``math.erfc``;
* a from-first-principles 1-D verifier of the Gaussian mechanism's
  (epsilon, delta) claim: the exact supremum of the privacy deficit
  over all events, from ``math.erfc`` (the package needs only NumPy);
* stability/utility gap checks between the noisy objective's minimizer
  and its noise-free counterpart.

:func:`run_check_suite` bundles these into serializable pass/fail
records for the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import (
    calibrate,
    explicit_ridge,
    gaussian_noise_constant,
    local_dp_asymptote,
    local_dp_level,
    noise_ridge_bounds,
    quad_noise_threshold,
    ridge_floor,
)
from .core import Dataset, LossConstants, PrivacyBudget, model_array
from .harness import generate_synthetic
from .loss import LossSpec, linear_regression_loss
from .perturb import NoiseRecord, RngStream, perturb_dataset
from .solver import assemble_plain, minimize_ball_constrained

__all__ = [
    "CoverageReport",
    "NoiseRecord",
    "dp_verifier_gaussian_1d",
    "noise_free_gap",
    "noise_ridge_coverage",
    "reconstruct_objective_identity",
    "run_check_suite",
    "sample_noise_ridge",
    "tail_check_chi_square",
    "tail_check_gaussian",
    "worst_case_quad_stats",
]

@dataclass(frozen=True)
class CoverageReport:
    """Monte-Carlo frequency of an event against its claimed probability."""

    trials: int
    hits: int
    target: float
    stderr: float

    @classmethod
    def from_hits(cls, hits: int, trials: int, target: float) -> "CoverageReport":
        freq = hits / trials
        return cls(
            trials=trials,
            hits=hits,
            target=target,
            stderr=math.sqrt(freq * (1.0 - freq) / trials),
        )

    @property
    def frequency(self) -> float:
        return self.hits / self.trials

    @property
    def passes(self) -> bool:
        """Frequency at least target minus three binomial standard errors."""
        return self.frequency >= self.target - 3.0 * self.stderr


def reconstruct_objective_identity(
    dataset: Dataset,
    spec: LossSpec,
    record: NoiseRecord,
    w,
    reg_cap: float,
    epsilon: float,
) -> tuple[float, float]:
    """Evaluate the perturbed objective two ways; the values agree exactly.

    Left side: rebuild the released statistics from the clean data plus
    the recorded draws and evaluate the server's objective directly.
    Right side: clean mean loss, plus the aggregate linear-noise tilt
    (b.w / n), plus the quadratic form of the noise/data interaction
    matrix U'U + U'Q + Q'U, plus the explicit ridge.  Their equality is
    an algebraic identity, so the difference is pure floating-point
    roundoff — a strong end-to-end check of the noise bookkeeping.
    """
    wa = model_array(w)
    q_stats, p_stats, s_stats = spec.encode_dataset(dataset)
    n = len(dataset)
    ridge = explicit_ridge(reg_cap, spec.constants.smoothness, epsilon)

    q_released = q_stats + record.quad_noise
    p_released = p_stats - record.linear_noise
    qw = q_released @ wa
    lhs = float(
        np.mean(0.5 * qw * qw - p_released @ wa + s_stats)
        + ridge / (2.0 * n) * (wa @ wa)
    )

    clean_qw = q_stats @ wa
    mean_loss = float(np.mean(0.5 * clean_qw * clean_qw - p_stats @ wa + s_stats))
    noise_qw = record.quad_noise @ wa
    interaction = float(noise_qw @ noise_qw + 2.0 * clean_qw @ noise_qw)
    b = record.linear_total
    rhs = (
        mean_loss
        + float(b @ wa) / n
        + (interaction + ridge * float(wa @ wa)) / (2.0 * n)
    )
    return lhs, rhs


def worst_case_quad_stats(
    n: int,
    dim: int,
    direction: np.ndarray,
    smoothness: float,
) -> np.ndarray:
    """Statistic matrix making the noise/data cross term maximal.

    All rows equal smoothness * sqrt(dim/n) times the unit probe
    direction, so the matrix attains the Frobenius budget
    smoothness * sqrt(dim) allowed on the valid domain while aligning
    every row with the probe — the binding case for the bracket's cross
    term.
    """
    direction = np.asarray(direction, dtype=np.float64)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    row_norm = smoothness * math.sqrt(dim / n)
    return np.tile(direction / nrm * row_norm, (n, 1))


def sample_noise_ridge(
    quad_stats: np.ndarray, quad_noise_sd: float, w: np.ndarray, rng: RngStream
) -> float:
    """One Monte-Carlo draw of the noise-induced ridge at a unit direction.

    Draws the full noise matrix U (rows iid with per-coordinate variance
    quad_noise_sd^2 / n) and evaluates w'(U'U + U'Q + Q'U)w.
    """
    quad_stats = np.asarray(quad_stats, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if abs(float(np.linalg.norm(w)) - 1.0) > 1e-9:
        raise ValueError("probe direction w must be a unit vector")
    n, dim = quad_stats.shape
    noise = rng.generator().standard_normal((n, dim)) * (quad_noise_sd / math.sqrt(n))
    noise_w = noise @ w
    return float(noise_w @ noise_w + 2.0 * (quad_stats @ w) @ noise_w)


def _noise_ridge_samples(
    quad_stats: np.ndarray,
    quad_noise_sd: float,
    w: np.ndarray,
    trials: int,
    rng: RngStream,
) -> np.ndarray:
    """Draws of the noise ridge from its exact law (that of sample_noise_ridge).

    Only z = U w enters the statistic.  For a unit w its n coordinates
    are iid N(0, s^2) with s^2 = quad_noise_sd^2 / n, and with c = Q w
    the ridge is R = ||z + c||^2 - ||c||^2, where ||z + c||^2 / s^2 is
    noncentral chi-square with n degrees of freedom and noncentrality
    ||c||^2 / s^2.  One noncentral_chisquare call draws all ``trials``
    values; no noise matrix is formed.
    """
    n = quad_stats.shape[0]
    if quad_noise_sd == 0.0:
        return np.zeros(trials)
    var = quad_noise_sd**2 / n
    clean_w = quad_stats @ w
    offset = float(clean_w @ clean_w)
    draws = rng.generator().noncentral_chisquare(n, offset / var, size=trials)
    return var * draws - offset


def noise_ridge_coverage(
    quad_stats: np.ndarray,
    quad_noise_sd: float,
    w: np.ndarray,
    fail_prob: float,
    trials: int,
    rng: RngStream,
    smoothness: float,
) -> CoverageReport:
    """Monte-Carlo coverage of the noise-ridge bracket.

    Counts draws falling inside the bracket from
    :func:`~inputdp.calibration.noise_ridge_bounds` against the claimed
    probability 1 - fail_prob.
    """
    quad_stats = np.asarray(quad_stats, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if abs(float(np.linalg.norm(w)) - 1.0) > 1e-9:
        raise ValueError("probe direction w must be a unit vector")
    n, dim = quad_stats.shape
    bounds = noise_ridge_bounds(n, fail_prob, quad_noise_sd, smoothness, dim)
    samples = _noise_ridge_samples(quad_stats, quad_noise_sd, w, trials, rng)
    hits = int(np.count_nonzero((samples >= bounds.lower) & (samples <= bounds.upper)))
    return CoverageReport.from_hits(hits=hits, trials=trials, target=1.0 - fail_prob)


def _log_gamma_density(a: float, y: float) -> float:
    """log(y^a e^-y / Gamma(a)) for a, y > 0.

    At a >= 10 the three terms of a log y - y - lgamma(a) each reach
    about a log a and cancel to O(log a), which would cost the result
    about a log a ulps of relative accuracy (1e-10 at a = 5e4).  So the
    large-a form is a (log1p(d) - d) + log(a / 2 pi) / 2 minus the
    Stirling remainder of lgamma(a), with d = (y - a) / a.
    """
    if a < 10.0:
        return a * math.log(y) - y - math.lgamma(a)
    d = (y - a) / a  # far below a, 1 + d would lose the low bits of y
    core = a * (math.log1p(d) - d) if d > -0.5 else a * math.log(y / a) - (y - a)
    inv, inv2 = 1.0 / a, 1.0 / (a * a)
    stirling = inv * (
        1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * (
            1.0 / 1680.0 - inv2 * (1.0 / 1188.0 - inv2 * 691.0 / 360360.0))))
    )
    return core + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_p_q(a: float, y: float) -> tuple[float, float]:
    """Regularized incomplete gamma functions (P(a, y), Q(a, y)), P + Q = 1.

    Below y = a + 1 the power series gives P and Q = 1 - P; above it the
    Lentz continued fraction gives Q and P = 1 - Q (Press et al.,
    Numerical Recipes, section 6.2).  Either way the small one is
    computed directly, so it keeps its relative accuracy deep in the tail.
    """
    if y <= 0.0:
        return 0.0, 1.0
    if y == math.inf:
        return 1.0, 0.0
    if y < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > 1e-17 * total:
            ap += 1.0
            term *= y / ap
            total += term
        p = total * math.exp(_log_gamma_density(a, y))
        return p, 1.0 - p
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= 2.2e-16:
            break
    q = h * math.exp(_log_gamma_density(a, y))
    return 1.0 - q, q


def tail_check_chi_square(dof: int, t: float) -> tuple[float, float]:
    """Exact probabilities of the two chi-square tail events.

    For Z chi-square with ``dof`` degrees of freedom, the upper event is
    Z >= dof + 2 sqrt(dof t) + 2 t, with probability Q(dof/2, x/2) at its
    threshold x, and the lower event Z <= dof - 2 sqrt(dof t), with
    probability P(dof/2, x/2) (0 when that threshold is <= 0).  Laurent
    and Massart (Ann. Statist. 2000) bound each by e^-t.
    """
    if not dof >= 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t!r}")
    spread = 2.0 * math.sqrt(dof * t)
    upper = _gamma_p_q(dof / 2.0, (dof + spread + 2.0 * t) / 2.0)[1]
    lower = _gamma_p_q(dof / 2.0, (dof - spread) / 2.0)[0]
    return upper, lower


def tail_check_gaussian(t: float) -> float:
    """Exact probability erfc(t / sqrt 2) of |Z| > t for standard normal Z.

    The bound e^{-t^2/2} being checked is only valid for t > 1, so
    smaller thresholds are rejected.
    """
    if not t > 1.0:
        raise ValueError(f"the two-sided Gaussian tail bound needs t > 1, got {t!r}")
    return math.erfc(t / math.sqrt(2.0))


def dp_verifier_gaussian_1d(diameter: float, sigma: float, epsilon: float) -> float:
    """Exact privacy deficit of 1-D Gaussian releases of inputs 0 and diameter.

    Returns sup_E P[release(x) in E] - e^epsilon P[release(x') in E] over
    all events E and both orders of x, x' in {0, diameter}.  By
    Neyman-Pearson the supremum is attained on the half-line above
    tau* = diameter/2 + sigma^2 epsilon / diameter, and the reflection
    y -> diameter - y maps the other order and the lower tails onto it,
    so with mu = diameter / sigma it is the privacy profile
    Phi(mu/2 - epsilon/mu) - e^epsilon Phi(-mu/2 - epsilon/mu) (Balle and
    Wang, ICML 2018).  A value at most delta certifies (epsilon, delta);
    one above delta is a witness of violation.  Built from ``math.erfc``
    alone, independent of the calibration code.  The two tails cancel, so
    the relative error grows with epsilon sigma^2 / diameter^2; the
    absolute error stays a few ulps of 1.
    """
    if not all(math.isfinite(v) and v > 0 for v in (diameter, sigma, epsilon)):
        raise ValueError("diameter, sigma and epsilon must all be finite and > 0, "
                         f"got {diameter!r}, {sigma!r}, {epsilon!r}")
    ratio, half = sigma * epsilon / diameter, diameter / (2.0 * sigma)
    # P[diameter + sigma Z > tau*] and P[sigma Z > tau*]; tau*/sigma = ratio + half.
    tail_d = 0.5 * math.erfc((ratio - half) / math.sqrt(2.0))
    tail_0 = 0.5 * math.erfc((ratio + half) / math.sqrt(2.0))
    try:
        shifted = math.exp(epsilon) * tail_0
    except OverflowError:
        # epsilon above about 709.78: add in log space.  Capping the term
        # at 1 keeps exp finite, and 1 already outweighs tail_d <= 1.
        shifted = math.exp(min(0.0, epsilon + _log_upper_tail(ratio + half)))
    # The empty event has deficit 0, so the supremum is never negative;
    # rounding can push a difference of nearly equal tails below zero.
    return max(0.0, tail_d - shifted)


def _log_upper_tail(b: float) -> float:
    """log P[Z > b] for standard normal Z and b > 0.

    Where ``erfc`` leaves the normal float range (b above about 37) it
    takes the Mills-ratio series P[Z > b] = phi(b) / b * (1 - 1/b^2 +
    3/b^4 - 15/b^6 + ...), summed until a term falls below 1e-17.
    """
    tail = 0.5 * math.erfc(b / math.sqrt(2.0))
    if tail > 1e-300:
        return math.log(tail)
    inv_sq, term, total, k = 1.0 / (b * b), 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv_sq
        total += term
        k += 1
    return -0.5 * b * b - math.log(b * math.sqrt(2.0 * math.pi)) + math.log(total)


def noise_free_gap(
    dataset: Dataset,
    spec: LossSpec,
    record: NoiseRecord,
    reg_cap: float,
    epsilon: float,
) -> dict:
    """Distance and utility gap between the noisy minimizer and its
    linear-noise-free counterpart, with their theoretical bounds.

    The noise-free problem keeps the quadratic noise (it shares the
    noisy problem's curvature) and drops only the aggregate linear tilt
    b.  Strong convexity along the movement direction gives

        distance    <= 2 ||b|| / denom,
        utility gap <= 2 ||b||^2 / (n * denom),

    where denom = (noise ridge at the movement direction) + reg_cap -
    ridge_floor.  The bounds are only claimed when denom > 0 and the
    directional noise ridge is nonnegative (the analysis' hypothesis);
    ``applicable`` reports whether that held.
    """
    constants = spec.constants
    q_stats, p_stats, _ = spec.encode_dataset(dataset)
    n = len(dataset)
    ridge = explicit_ridge(reg_cap, constants.smoothness, epsilon)
    q_released = q_stats + record.quad_noise
    b = record.linear_total
    noisy = assemble_plain(q_released, p_stats, constants.radius, ridge, tilt=b)
    noise_free = assemble_plain(q_released, p_stats, constants.radius, ridge)
    w_noisy = minimize_ball_constrained(noisy).w
    w_free = minimize_ball_constrained(noise_free).w

    move = w_free - w_noisy
    distance = float(np.linalg.norm(move))
    if distance > 0.0:
        direction = move / distance
        dir_qw = record.quad_noise @ direction
        ridge_at_direction = float(
            dir_qw @ dir_qw + 2.0 * (q_stats @ direction) @ dir_qw
        )
    else:
        ridge_at_direction = 0.0
    denom = ridge_at_direction + reg_cap - ridge_floor(constants.smoothness, epsilon)
    b_norm = float(np.linalg.norm(b))
    utility_gap = noise_free.objective(w_noisy) - noise_free.objective(w_free)
    return {
        "distance": distance,
        "utility_gap": utility_gap,
        "ridge_at_direction": ridge_at_direction,
        "denom": denom,
        "applicable": bool(denom > 0.0 and ridge_at_direction >= 0.0),
        "distance_bound": 2.0 * b_norm / denom if denom > 0 else math.inf,
        "utility_bound": 2.0 * b_norm**2 / (n * denom) if denom > 0 else math.inf,
    }


def _check(
    name: str,
    params: dict,
    statistic: float,
    bound: float,
    direction: str,
) -> dict:
    if direction == "<=":
        ok = statistic <= bound
    else:
        ok = statistic >= bound
    return {
        "check": name,
        "params": params,
        "statistic": statistic,
        "bound": bound,
        "direction": direction,
        "pass": bool(ok),
    }


def run_check_suite(seed: int = 0) -> list[dict]:
    """Run the full numerical verification battery.

    Returns one serializable record per check: the observed statistic,
    the bound it is held to, and whether it passed.  The two noise-ridge
    coverage checks are Monte Carlo and use three-standard-error
    allowances on their claimed probabilities; the tail checks compare
    exact probabilities with their bounds.
    """
    root = RngStream(seed, path=(90,))
    checks: list[dict] = []

    # Noise-ridge bracket and enabling-event coverage at the worst-case
    # statistic matrix, at the threshold noise scale.
    n, dim, fail_prob, smoothness, epsilon, trials = 1000, 14, 0.005, 1.0, 1.0, 10_000
    sd = quad_noise_threshold(n, fail_prob, dim, smoothness, epsilon)
    probe = np.zeros(dim)
    probe[0] = 1.0
    stats = worst_case_quad_stats(n, dim, probe, smoothness)
    report = noise_ridge_coverage(
        stats, sd, probe, fail_prob, trials, root.child(0), smoothness
    )
    checks.append(
        _check(
            "noise_ridge_bracket_coverage",
            {"n": n, "dim": dim, "fail_prob": fail_prob, "trials": trials},
            report.frequency,
            report.target - 3.0 * report.stderr,
            ">=",
        )
    )
    samples = _noise_ridge_samples(stats, sd, probe, trials, root.child(1))
    floor = ridge_floor(smoothness, epsilon)
    floor_report = CoverageReport.from_hits(
        hits=int(np.count_nonzero(samples >= floor)),
        trials=trials,
        target=1.0 - fail_prob,
    )
    checks.append(
        _check(
            "noise_ridge_floor_frequency",
            {"n": n, "dim": dim, "fail_prob": fail_prob, "trials": trials},
            floor_report.frequency,
            floor_report.target - 3.0 * floor_report.stderr,
            ">=",
        )
    )

    # Exact tail probabilities against the bounds the calibration uses.
    for dof, t in [(100, 3.0), (1, 0.1), (50, 10.0)]:
        upper, lower = tail_check_chi_square(dof, t)
        for side, prob in (("upper", upper), ("lower", lower)):
            checks.append(
                _check(
                    f"chi_square_tail_{side}",
                    {"dof": dof, "t": t},
                    prob,
                    math.exp(-t),
                    "<=",
                )
            )
    for t in [1.25, 2.0, 3.0]:
        checks.append(
            _check(
                "gaussian_tail",
                {"t": t},
                tail_check_gaussian(t),
                math.exp(-(t**2) / 2.0),
                "<=",
            )
        )

    # Gaussian-mechanism verifier: calibrated scale passes, a tenth of it
    # must be flagged as violating.
    budget = PrivacyBudget(epsilon=0.5, delta=0.01)
    diameter = 1.0
    sigma = gaussian_noise_constant(budget.delta) * diameter / budget.epsilon
    observed = dp_verifier_gaussian_1d(diameter, sigma, budget.epsilon)
    checks.append(
        _check(
            "dp_verifier_calibrated",
            {"diameter": diameter, "sigma": sigma, "epsilon": budget.epsilon},
            observed,
            budget.delta,
            "<=",
        )
    )
    observed_low = dp_verifier_gaussian_1d(diameter, 0.1 * sigma, budget.epsilon)
    checks.append(
        _check(
            "dp_verifier_undernoised_detected",
            {"diameter": diameter, "sigma": 0.1 * sigma, "epsilon": budget.epsilon},
            observed_low,
            budget.delta,
            ">=",
        )
    )

    # Exact objective-reconstruction identity on random small instances.
    max_rel = 0.0
    ident_budget = PrivacyBudget(epsilon=1.0, delta=0.01)
    for i in range(20):
        data = generate_synthetic(
            n=50, dim=5, noise_sd=0.1, rng=root.child(20, i), task="linear_regression"
        )
        spec = linear_regression_loss(radius=1.0, dim=5)
        cal = calibrate(ident_budget, len(data), spec.constants)
        _, rec = perturb_dataset(data, spec, cal, root.child(21, i), record_noise=True)
        gen = root.child(22, i).generator()
        for _ in range(5):
            w = gen.standard_normal(5)
            w *= gen.uniform(0, 1) / float(np.linalg.norm(w))
            lhs, rhs = reconstruct_objective_identity(
                data, spec, rec, w, reg_cap=16.0, epsilon=ident_budget.epsilon
            )
            max_rel = max(max_rel, abs(lhs - rhs) / (1.0 + abs(lhs)))
    checks.append(
        _check(
            "objective_reconstruction_identity",
            {"instances": 20, "probes": 5},
            max_rel,
            1e-9,
            "<=",
        )
    )

    # Local-privacy ratio approaches its closed-form limit.
    constants = LossConstants(lipschitz=2.0, smoothness=1.0, radius=1.0, dim=14)
    big_budget = PrivacyBudget(epsilon=1.0, delta=0.01)
    big_n = 10**8
    cal = calibrate(big_budget, big_n, constants)
    level = local_dp_level(cal)
    ratio = level.epsilon_constants_convention / math.sqrt(big_n * big_budget.epsilon)
    limit = local_dp_asymptote(big_budget, constants)
    checks.append(
        _check(
            "local_privacy_asymptote",
            {"n": big_n, "epsilon": big_budget.epsilon, "delta": big_budget.delta},
            abs(ratio / limit - 1.0),
            0.01,
            "<=",
        )
    )

    # Stability and utility bounds vs the linear-noise-free minimizer.
    worst_margin = math.inf
    for i in range(5):
        data = generate_synthetic(
            n=200, dim=8, noise_sd=0.1, rng=root.child(30, i), task="linear_regression"
        )
        spec = linear_regression_loss(radius=1.0, dim=8)
        cal = calibrate(ident_budget, len(data), spec.constants)
        _, rec = perturb_dataset(data, spec, cal, root.child(31, i), record_noise=True)
        gap = noise_free_gap(data, spec, rec, reg_cap=16.0, epsilon=ident_budget.epsilon)
        if gap["applicable"]:
            worst_margin = min(
                worst_margin,
                gap["distance_bound"] - gap["distance"],
                gap["utility_bound"] - gap["utility_gap"],
            )
    checks.append(
        _check(
            "noise_free_stability_bounds",
            {"instances": 5, "n": 200, "dim": 8},
            worst_margin,
            -1e-8,
            ">=",
        )
    )
    return checks
