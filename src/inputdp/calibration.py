"""Noise calibration for contributor-side statistic randomization.

Each contributor adds Gaussian noise to their quadratic statistic q
(per-coordinate variance quad_noise_var / n) and subtracts Gaussian noise
from their linear statistic p (per-coordinate variance linear_noise_var
/ n).  After aggregation the quadratic noise acts as a *random* ridge
term on the objective.  Calibration picks the two variances so that:

* the aggregated linear noise matches the Gaussian-mechanism scale for
  the budget, and
* with probability at least 1 - fail_prob the random ridge exceeds
  ridge_floor = 2 * smoothness / epsilon, the amount the privacy argument
  requires, while staying inside an explicit bracket.

The random ridge induced by quadratic noise U (rows iid with the above
variance) at a unit direction w is w'(U'U + U'Q + Q'U)w, where Q stacks
the clean statistics.  Concentration of the Wishart part plus a Gaussian
cross-term bound give the bracket computed by
:func:`noise_ridge_bounds`; solving "bracket lower edge = ridge_floor"
for the noise scale gives :func:`quad_noise_threshold`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .core import LossConstants, PrivacyBudget

#: Factor by which the quadratic-noise variance exceeds the threshold
#: variance, so the noise ridge clears the floor strictly.
CALIBRATION_SLACK = 1.0001


class CalibrationInfeasibleError(ValueError):
    """Raised when n is too small for the concentration bounds to bite.

    Carries ``min_n``, the smallest dataset size at which calibration
    becomes feasible for the same failure probability.
    """

    def __init__(self, message: str, min_n: int):
        super().__init__(message)
        self.min_n = min_n


def ridge_floor(smoothness: float, epsilon: float) -> float:
    """Minimum total ridge coefficient the privacy argument needs."""
    return 2.0 * smoothness / epsilon


def explicit_ridge(reg_cap: float, smoothness: float, epsilon: float) -> float:
    """Ridge left to add explicitly, reg_cap - ridge_floor.

    Raises ValueError when reg_cap is below the ridge floor: no privacy
    guarantee applies to a solve with that cap.
    """
    floor = ridge_floor(smoothness, epsilon)
    if reg_cap < floor:
        raise ValueError(
            f"reg_cap = {reg_cap:.6g} is below the ridge floor {floor:.6g}; "
            "the privacy argument requires reg_cap >= 2 * smoothness / epsilon"
        )
    return reg_cap - floor


def gaussian_noise_constant(delta: float) -> float:
    """The Gaussian-mechanism constant sqrt(2 ln(1.25/delta))."""
    return math.sqrt(2.0 * math.log(1.25 / delta))


def linear_noise_variance(budget: PrivacyBudget, lipschitz: float) -> float:
    """Aggregate variance of the linear-statistic noise vector.

    This is the Gaussian scale at which a single vector of this variance
    (or n per-contributor shares of variance 1/n each) makes the
    perturbed-objective privacy argument go through with delta share
    delta/2.
    """
    delta_linear = budget.delta / 2.0
    eps = budget.epsilon
    log_term = 8.0 * math.log(2.0 / delta_linear)
    if 1e-100 <= min(lipschitz, eps) and max(lipschitz, eps) <= 1e100:
        return lipschitz**2 * (log_term + 4.0 * eps) / eps**2
    # Outside that range a square could overflow (float ** raises) or
    # underflow; the ratio form saturates to inf or 0 instead.
    ratio = lipschitz / eps
    return ratio * (ratio * log_term + 4.0 * lipschitz)


def min_feasible_n(fail_prob: float) -> int:
    """Smallest n with n > 4 log(4 / fail_prob), the calibration precondition."""
    return int(math.floor(4.0 * math.log(4.0 / fail_prob))) + 1


def _check_fail_prob(fail_prob: float) -> None:
    if not (0.0 < fail_prob < 1.0):
        raise ValueError(f"fail_prob must lie in (0, 1), got {fail_prob!r}")


def _tail_terms(n: int, fail_prob: float) -> tuple[float, float]:
    """The two tail scales sqrt(log(2/fail_prob)/n) and sqrt(log(4/fail_prob)/n)."""
    t_cross = math.sqrt(math.log(2.0 / fail_prob) / n)
    t_chi = math.sqrt(math.log(4.0 / fail_prob) / n)
    return t_cross, t_chi


class NoiseRidgeBounds(NamedTuple):
    """High-probability bracket for the noise-induced ridge coefficient."""

    lower: float
    upper: float


def noise_ridge_bounds(
    n: int, fail_prob: float, quad_noise_sd: float, smoothness: float, dim: int
) -> NoiseRidgeBounds:
    """Bracket holding the noise ridge with probability >= 1 - fail_prob.

    Combines a chi-square concentration of the pure-noise Wishart part
    (mean quad_noise_sd^2) with a Gaussian bound on the noise/data cross
    term, whose scale is controlled by the Frobenius norm of the clean
    statistic matrix (at most sqrt(dim) * smoothness on the valid domain).
    """
    _check_fail_prob(fail_prob)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if quad_noise_sd < 0:
        raise ValueError(f"quad_noise_sd must be >= 0, got {quad_noise_sd!r}")
    t_cross, t_chi = _tail_terms(n, fail_prob)
    var = quad_noise_sd**2
    cross = 2.0 * math.sqrt(2.0 * dim) * smoothness * quad_noise_sd * t_cross
    return NoiseRidgeBounds(
        lower=var * (1.0 - 2.0 * t_chi) - cross,
        upper=var * (1.0 + 2.0 * t_chi + 2.0 * t_chi**2) + cross,
    )


def quad_noise_threshold(
    n: int, fail_prob: float, dim: int, smoothness: float, epsilon: float
) -> float:
    """Smallest quadratic-noise sd whose ridge bracket clears the floor.

    Returns the positive root (in the noise sd) of

        bracket lower edge == ridge_floor(smoothness, epsilon),

    so any strictly larger sd keeps the noise ridge above the floor with
    probability at least 1 - fail_prob.  Requires n > 4 log(4/fail_prob)
    so the chi-square factor 1 - 2 sqrt(log(4/fail_prob)/n) is positive.
    """
    _check_fail_prob(fail_prob)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    feasible_n = min_feasible_n(fail_prob)
    if n < feasible_n:
        raise CalibrationInfeasibleError(
            f"n = {n} is too small to calibrate at fail_prob = {fail_prob:.6g} "
            f"(need n > 4 log(4/fail_prob) = {4.0 * math.log(4.0 / fail_prob):.6g}); "
            f"minimal feasible n is {feasible_n}",
            min_n=feasible_n,
        )
    t_cross, t_chi = _tail_terms(n, fail_prob)
    denom = 1.0 - 2.0 * t_chi
    half_cross = math.sqrt(2.0 * dim) * smoothness * t_cross
    floor = ridge_floor(smoothness, epsilon)
    return (half_cross + math.sqrt(half_cross**2 + floor * denom)) / denom


@dataclass(frozen=True)
class NoiseCalibration:
    """Everything a contributor needs to randomize their statistics.

    A pure function of ``(n, budget, constants)``: the other fields are
    derived, never set.  The failure probability and the linear-noise
    delta share are each delta/2.  The linear-noise variance follows the
    Gaussian-mechanism scale for aggregated per-contributor noise; the
    quadratic-noise variance is the threshold variance inflated by
    :data:`CALIBRATION_SLACK`, which keeps the noise ridge *strictly*
    above the floor on the good event.  Raises
    :class:`CalibrationInfeasibleError` when n is too small, and
    ValueError when a variance is not a finite float.
    """

    n: int
    budget: PrivacyBudget
    constants: LossConstants
    fail_prob: float = field(init=False)
    delta_linear: float = field(init=False)
    tail_ratio: float = field(init=False)
    linear_noise_var: float = field(init=False)
    quad_noise_var: float = field(init=False)

    def __post_init__(self) -> None:
        fail_prob = self.budget.delta / 2.0
        try:
            threshold = quad_noise_threshold(
                self.n, fail_prob, self.constants.dim, self.constants.smoothness,
                self.budget.epsilon,
            )
            quad_noise_var = CALIBRATION_SLACK * threshold**2
        except OverflowError:
            quad_noise_var = math.inf
        derived = {
            "fail_prob": fail_prob,
            "delta_linear": self.budget.delta / 2.0,
            "tail_ratio": math.sqrt(math.log(2.0 / fail_prob) / self.n),
            "linear_noise_var": linear_noise_variance(self.budget, self.constants.lipschitz),
            "quad_noise_var": quad_noise_var,
        }
        for name in ("linear_noise_var", "quad_noise_var"):
            if not math.isfinite(derived[name]):
                raise ValueError(
                    f"{name} is {derived[name]!r} at lipschitz = "
                    f"{self.constants.lipschitz!r}, smoothness = "
                    f"{self.constants.smoothness!r} and epsilon = {self.budget.epsilon!r}; "
                    "a noise variance must be a finite float"
                )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def linear_noise_sd(self) -> float:
        return math.sqrt(self.linear_noise_var)

    @property
    def quad_noise_sd(self) -> float:
        return math.sqrt(self.quad_noise_var)

    @property
    def ridge_floor(self) -> float:
        return ridge_floor(self.constants.smoothness, self.budget.epsilon)

    def to_dict(self) -> dict:
        """Stable plain-dict form for report echoing."""
        return {
            "n": self.n,
            "epsilon": self.budget.epsilon,
            "delta": self.budget.delta,
            "lipschitz": self.constants.lipschitz,
            "smoothness": self.constants.smoothness,
            "radius": self.constants.radius,
            "dim": self.constants.dim,
            "fail_prob": self.fail_prob,
            "delta_linear": self.delta_linear,
            "tail_ratio": self.tail_ratio,
            "linear_noise_var": self.linear_noise_var,
            "quad_noise_var": self.quad_noise_var,
            "slack": CALIBRATION_SLACK,
        }


def calibrate(budget: PrivacyBudget, n: int, constants: LossConstants) -> NoiseCalibration:
    """The pipeline's calibration stage: the noise variances for the given
    budget and dataset size (see :class:`NoiseCalibration`)."""
    return NoiseCalibration(n=n, budget=budget, constants=constants)


@dataclass(frozen=True)
class LocalPrivacyLevel:
    """Per-contributor (epsilon, delta) level implied by a calibration.

    Two conventions are reported.  ``epsilon_constants_convention`` uses
    statistic diameters (2 * smoothness, 2 * lipschitz) — the convention
    under which the asymptote below is stated.  ``epsilon_declared_bounds``
    uses the loss family's certified statistic norm caps (diameters
    2 * bound_q, 2 * bound_p) and is None when those caps are not
    supplied.  ``noise_constant`` is the Gaussian-mechanism constant
    sqrt(2 ln(1.25/delta)).  That constant certifies (epsilon, delta)
    only for epsilon < 1 (Dwork & Roth 2014, Thm A.1), and the levels
    reported here are far above 1 (about 187 at n = 2000, d = 14,
    epsilon = 1, delta = 0.01), so they are the paper's convention, not
    certified local guarantees.
    """

    epsilon_constants_convention: float
    epsilon_declared_bounds: float | None
    delta: float
    noise_constant: float

    def to_dict(self) -> dict:
        """Plain-dict form for report echoing, keyed by field name."""
        return asdict(self)


def local_dp_level(
    cal: NoiseCalibration,
    bound_q: float | None = None,
    bound_p: float | None = None,
) -> LocalPrivacyLevel:
    """Local (per-contributor) privacy level of the two statistic releases.

    Each contributor makes two Gaussian releases with per-coordinate sd
    (noise sd)/sqrt(n); for a release of diameter D that costs
    c * D * sqrt(n) / (noise sd) in epsilon, and the two releases compose
    additively in epsilon and delta.
    """
    c = gaussian_noise_constant(cal.budget.delta)
    root_n = math.sqrt(cal.n)

    def level(diam_q: float, diam_p: float) -> float:
        return c * root_n * (diam_q / cal.quad_noise_sd + diam_p / cal.linear_noise_sd)

    eps_constants = level(2.0 * cal.constants.smoothness, 2.0 * cal.constants.lipschitz)
    eps_declared = None
    if bound_q is not None and bound_p is not None:
        eps_declared = level(2.0 * bound_q, 2.0 * bound_p)
    return LocalPrivacyLevel(
        epsilon_constants_convention=eps_constants,
        epsilon_declared_bounds=eps_declared,
        delta=2.0 * cal.budget.delta,
        noise_constant=c,
    )


def local_dp_asymptote(budget: PrivacyBudget, constants: LossConstants) -> float:
    """Large-n limit of epsilon_constants_convention / sqrt(n * epsilon).

    As n grows the calibrated quadratic-noise sd tends to
    sqrt(ridge_floor) and the linear-noise sd is n-free, giving

        2 c (sqrt(smoothness / 2)
             + sqrt(epsilon / (8 log(2/delta_linear) + 4 epsilon))).
    """
    c = gaussian_noise_constant(budget.delta)
    delta_linear = budget.delta / 2.0
    eps = budget.epsilon
    return 2.0 * c * (
        math.sqrt(constants.smoothness / 2.0)
        + math.sqrt(eps / (8.0 * math.log(2.0 / delta_linear) + 4.0 * eps))
    )


def recommend_reg_cap(constants: LossConstants, budget: PrivacyBudget) -> float:
    """Default explicit ridge cap balancing shrinkage against noise.

    Scales like sqrt(lipschitz^2 * dim * log(1/delta)) / (epsilon *
    radius) — the order at which the two excess-risk contributions
    balance — clamped below by 1.01 * ridge_floor so the total ridge
    stays strictly above the floor even with zero noise ridge.
    """
    balance = (
        math.sqrt(constants.lipschitz**2 * constants.dim * math.log(1.0 / budget.delta))
        / (budget.epsilon * constants.radius)
    )
    return max(balance, 1.01 * ridge_floor(constants.smoothness, budget.epsilon))
