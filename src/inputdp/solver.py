"""Ball-constrained quadratic minimization and the four learners.

The server-side problem is always

    minimize   (1/2) w'Aw + b.w + (reg/2) ||w||^2
    subject to ||w|| <= radius

(defined up to an additive constant, which moves no minimizer), a
convex trust-region subproblem, solved exactly from one symmetric
eigendecomposition A = V diag(lam) V' (Moré & Sorensen, "Computing a
Trust Region Step", SIAM J. Sci. Stat. Comput. 4(3), 1983).  With
g = V'b and h = lam + reg, the minimizer is w = -V (g / (h + nu)) for
the KKT multiplier nu >= 0:

* interior (nu = 0): every component of g on a zero eigenvalue vanishes
  and the min-norm stationary point lies inside the ball; that point is
  returned (it is where gradient descent from the origin converges);
* boundary (nu > 0): nu is the root of the secular equation
  1/||g / (h + nu)|| = 1/radius, found by safeguarded Newton steps
  inside a bracket that always contains it.

The decomposition is taken once per Gram matrix A: a :class:`Gram`
holds A validated (its smallest eigenvalue is the PSD check) with its
decomposition, and every program built on it reuses that.  The three
clean learners of a training set differ only in b and reg, so
:func:`factor_dataset` encodes the set and factors its Gram once, and
they all take the result; the harness evaluates its objectives from the
same encoded rows.

Four learners share this solver:

* ``learn_non_private``       — plain (optionally ridged) minimization;
* ``learn_input_perturbed``   — aggregates the releases' Q and P; the
  explicit ridge is (reg_cap - ridge_floor)/n, the rest of the floor
  being covered by the noise-induced ridge on the calibrated event;
* ``learn_objective_perturbed`` — server-side baseline: one Gaussian
  vector tilts the objective, explicit ridge reg_cap/n;
* ``learn_output_perturbed``  — non-private ridge solution plus
  gamma-norm noise, projected back to the ball.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    NoiseCalibration,
    explicit_ridge,
    linear_noise_variance,
    recommend_reg_cap,
)
from .core import Dataset, ModelVector, PrivacyBudget, model_array, project_to_ball
from .loss import LossSpec
from .perturb import Release, RngStream

# Below this Hessian scale the quadratic part is treated as absent and
# the ball-constrained linear problem is solved in closed form.
_CURVATURE_FLOOR = 1e-30

# Eigenvalues at or below this multiple of the largest count as zero
# (roundoff of a rank-deficient A), and so do components of g at or
# below this multiple of ||g|| on them.
_ZERO_RTOL = 64 * np.finfo(np.float64).eps

# The secular equation is solved once ||w|| is within this relative
# distance of the radius, or once rounding stops the iterate moving; the
# step limit is only a guard.
_SECULAR_RTOL = 1e-14
_SECULAR_STEPS = 100


@dataclass(frozen=True)
class Gram:
    """A symmetric positive semidefinite matrix ``A``, validated and
    factored once.

    ``A`` must be square, finite, symmetric and PSD (both to 1e-8 of its
    scale; tiny asymmetry is symmetrized away).  ``eigenvalues``
    (ascending) and ``eigenvectors`` are its symmetric eigendecomposition,
    and the smallest eigenvalue is the PSD check.  Programs over the same
    Q'Q/n share one Gram, and with it one decomposition.
    """

    A: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.array(self.A, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("program coefficients must be finite")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        asym = float(np.max(np.abs(a - a.T)))
        if asym > 1e-8 * (1.0 + scale):
            raise ValueError(f"A is not symmetric (max asymmetry {asym:.3e})")
        a = (a + a.T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(a)
        min_eig = float(eigenvalues[0])
        if min_eig < -1e-8 * (1.0 + scale):
            raise ValueError(f"A is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        for arr in (a, eigenvalues, eigenvectors):
            arr.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @classmethod
    def of_rows(cls, q_stats: np.ndarray) -> Gram:
        """The Gram Q'Q/n of stacked rows Q of shape (n, d)."""
        return cls(q_stats.T @ q_stats / q_stats.shape[0])


@dataclass(frozen=True)
class QuadraticProgram:
    """(1/2) w'Aw + b.w + (reg/2)||w||^2 over the ball of ``radius``,
    defined up to an additive constant (which moves no minimizer).

    ``A`` is a symmetric PSD array, which is validated and factored here
    into a :class:`Gram`, or a Gram already factored.  Either way, after
    construction ``A`` is the validated array and ``gram`` its Gram.
    """

    A: np.ndarray | Gram
    b_lin: np.ndarray
    reg: float
    radius: float
    gram: Gram = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gram = self.A if isinstance(self.A, Gram) else Gram(self.A)
        b = np.array(self.b_lin, dtype=np.float64, copy=True)
        if b.ndim != 1 or b.shape[0] != gram.A.shape[0]:
            raise ValueError(
                f"b_lin must be a vector matching A, got {b.shape} vs {gram.A.shape}"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("program coefficients must be finite")
        if self.reg < 0:
            raise ValueError(f"reg must be >= 0, got {self.reg!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        b.flags.writeable = False
        object.__setattr__(self, "A", gram.A)
        object.__setattr__(self, "b_lin", b)
        object.__setattr__(self, "gram", gram)

    @property
    def dim(self) -> int:
        return self.b_lin.shape[0]

    def objective(self, w) -> float:
        wa = model_array(w)
        return float(
            0.5 * wa @ (self.A @ wa)
            + self.b_lin @ wa
            + 0.5 * self.reg * (wa @ wa)
        )


@dataclass(frozen=True)
class SolverResult:
    """The minimizer, its objective, and the KKT multiplier of the ball
    constraint (0 inside the ball); ``iterations`` counts Newton steps
    on the secular equation (0 for an interior solution)."""

    w: np.ndarray
    objective: float
    iterations: int
    multiplier: float


def _secular_root(
    h: np.ndarray, g: np.ndarray, radius: float, lo: float, hi: float
) -> tuple[float, int]:
    """Root nu in [lo, hi] of phi(nu) = 1/||g / (h + nu)|| - 1/radius.

    phi is increasing and concave where it is finite, with phi(lo) <= 0
    <= phi(hi), so Newton steps from lo rise monotonically to the root
    (Moré & Sorensen's update).  The bracket shrinks with every step, and
    a step that leaves it (once rounding dominates) is replaced by
    bisection.  Components with g = 0 are dropped, so h + nu > 0 on
    every term that is evaluated.
    """
    keep = g != 0.0
    h, g = h[keep], g[keep]
    nu = lo
    for step in range(1, _SECULAR_STEPS + 1):
        shifted = h + nu
        p = g / shifted
        norm_p = math.sqrt(float(p @ p))
        if abs(norm_p - radius) <= _SECULAR_RTOL * radius:
            return nu, step
        if norm_p > radius:
            lo = nu
        else:
            hi = nu
        q2 = float(p @ (p / shifted))  # ||(H + nu I)^{-1/2} p||^2
        nxt = nu + (norm_p - radius) / radius * (norm_p * norm_p / q2)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == nu:
            return nu, step
        nu = nxt
    return nu, _SECULAR_STEPS


def minimize_ball_constrained(program: QuadraticProgram) -> SolverResult:
    """Exact minimizer of the program over its ball (see module docstring).

    The result may exceed the radius in the last bits; the learners
    project it into the ball.
    """
    eigenvalues, eigenvectors = program.gram.eigenvalues, program.gram.eigenvectors
    # A is PSD only up to the validation tolerance, so clip at zero.
    h = np.maximum(eigenvalues, 0.0) + program.reg
    radius = program.radius
    b = program.b_lin
    top = float(h[-1])
    if top < _CURVATURE_FLOOR:
        # Curvature-free: minimize b.w over the ball in closed form.
        bnrm = float(np.linalg.norm(b))
        w = np.zeros(program.dim) if bnrm == 0.0 else -radius / bnrm * b
        multiplier = bnrm / radius
        return SolverResult(
            w=w, objective=program.objective(w), iterations=0, multiplier=multiplier
        )
    g = eigenvectors.T @ b
    g_norm = float(np.linalg.norm(g))
    zero = h <= _ZERO_RTOL * top
    # Roundoff-level components of g on zero eigenvalues are zero: the
    # interior point ignores them, and the boundary solve would scale them
    # by 1/nu into the null space of A.
    g[zero & (np.abs(g) <= _ZERO_RTOL * g_norm)] = 0.0
    if not np.any(g[zero]):
        coef = np.zeros_like(g)
        np.divide(-g, h, out=coef, where=~zero)
        w = eigenvectors @ coef
        if float(np.linalg.norm(w)) <= radius:
            return SolverResult(
                w=w, objective=program.objective(w), iterations=0, multiplier=0.0
            )
    # Boundary: ||g/(h + nu)|| is at least |g_i|/(h_i + nu) for each i and
    # at least ||g||/(h_max + nu), and at most ||g||/(h_min + nu).
    lo = max(0.0, g_norm / radius - top, float(np.max(np.abs(g) / radius - h)))
    hi = max(lo, g_norm / radius - float(h[0]))
    nu, iterations = _secular_root(h, g, radius, lo, hi)
    coef = np.zeros_like(g)
    np.divide(-g, h + nu, out=coef, where=g != 0.0)
    w = eigenvectors @ coef
    return SolverResult(
        w=w, objective=program.objective(w), iterations=iterations, multiplier=nu
    )


def assemble_plain(
    q_stats: np.ndarray | Gram,
    p_stats: np.ndarray,
    radius: float,
    reg_coeff: float = 0.0,
    tilt: np.ndarray | None = None,
) -> QuadraticProgram:
    """Program over stacked statistics (Q, P) of n rows: the mean of
    (1/2)(q.w)^2 - p.w, plus (reg_coeff/2n)||w||^2, plus tilt.w/n when a
    ``tilt`` vector is given.  Every server-side program is built here,
    from clean statistics and from released ones alike.  ``q_stats`` may
    be the :class:`Gram` of Q in place of Q, so that programs over the
    same rows share one factorisation."""
    n = p_stats.shape[0]
    b_lin = -p_stats.mean(axis=0)
    if tilt is not None:
        b_lin = b_lin + tilt / n
    return QuadraticProgram(
        A=q_stats if isinstance(q_stats, Gram) else Gram.of_rows(q_stats),
        b_lin=b_lin,
        reg=reg_coeff / n,
        radius=radius,
    )


def assemble_released(
    released: Release, cal: NoiseCalibration, reg_cap: float
) -> QuadraticProgram:
    """Program over the Q and P of contributor releases drawn with ``cal``.

    A release not of shape (cal.n, d) is refused.  The explicit ridge is
    (reg_cap - ridge_floor)/n: on the calibrated event the noise-induced
    ridge covers at least the floor, so the total effective ridge clears
    reg_cap's intent without double-charging.
    """
    constants = cal.constants
    if released.Q.shape != (cal.n, constants.dim):
        raise ValueError(
            f"release of shape {released.Q.shape} does not match its calibration's "
            f"(n, d) = {(cal.n, constants.dim)}"
        )
    ridge = explicit_ridge(reg_cap, constants.smoothness, cal.budget.epsilon)
    return assemble_plain(released.Q, released.P, constants.radius, ridge)


@dataclass(frozen=True)
class FactoredDataset:
    """A dataset encoded once under ``spec``, with the Gram of its Q.

    ``stats`` is the (Q, P, S) that ``spec.encode_dataset`` returned and
    ``gram`` is Q'Q/n, validated and factored.  The clean learners take
    it in place of the dataset, and :func:`empirical_objective` takes its
    ``stats``, so one harness cell encodes and factors its training set
    once for all of them, with the same bits as encoding it for each.
    """

    spec: LossSpec
    stats: tuple[np.ndarray, np.ndarray, np.ndarray]
    gram: Gram


def factor_dataset(dataset: Dataset, spec: LossSpec) -> FactoredDataset:
    """Encode ``dataset`` and factor the Gram of its Q (see :class:`FactoredDataset`)."""
    stats = spec.encode_dataset(dataset)
    return FactoredDataset(spec, stats, Gram.of_rows(stats[0]))


def _factored(data: Dataset | FactoredDataset, spec: LossSpec) -> FactoredDataset:
    """``data`` factored under ``spec``; refuses one factored under another loss."""
    if not isinstance(data, FactoredDataset):
        return factor_dataset(data, spec)
    if data.spec != spec:
        raise ValueError(
            f"dataset was encoded for the {data.spec.name} loss with {data.spec.constants}, "
            f"not for the {spec.name} loss with {spec.constants}"
        )
    return data


def learn_non_private(
    dataset: Dataset | FactoredDataset, spec: LossSpec, reg_coeff: float = 0.0
) -> ModelVector:
    """Ball-constrained minimizer of the clean empirical objective."""
    data = _factored(dataset, spec)
    program = assemble_plain(data.gram, data.stats[1], spec.constants.radius, reg_coeff)
    result = minimize_ball_constrained(program)
    return project_to_ball(result.w, spec.constants.radius)


def learn_input_perturbed(
    released: Release, cal: NoiseCalibration, reg_cap: float | None = None
) -> ModelVector:
    """Learn from contributor releases alone (the server never sees raw data).

    ``cal`` must be the calibration the releases were drawn with; its
    budget sets the ridge floor.  ``reg_cap`` defaults to
    :func:`recommend_reg_cap`.
    """
    if reg_cap is None:
        reg_cap = recommend_reg_cap(cal.constants, cal.budget)
    program = assemble_released(released, cal, reg_cap)
    result = minimize_ball_constrained(program)
    return project_to_ball(result.w, cal.constants.radius)


def learn_objective_perturbed(
    dataset: Dataset | FactoredDataset,
    spec: LossSpec,
    budget: PrivacyBudget,
    rng: RngStream,
    reg_cap: float | None = None,
    *,
    noise_override: np.ndarray | None = None,
) -> ModelVector:
    """Server-side baseline: perturb the assembled objective, then solve.

    Adds b.w/n to the mean loss with b drawn Gaussian at the same scale a
    full cohort of contributors would have injected in aggregate, plus an
    explicit ridge reg_cap/n.  ``noise_override`` substitutes a fixed b
    (tests and paired comparisons).
    """
    constants = spec.constants
    if reg_cap is None:
        reg_cap = recommend_reg_cap(constants, budget)
    explicit_ridge(reg_cap, constants.smoothness, budget.epsilon)  # refuses a cap below the floor
    data = _factored(dataset, spec)
    dim = data.stats[0].shape[1]
    if noise_override is not None:
        b = np.asarray(noise_override, dtype=np.float64)
        if b.shape != (dim,):
            raise ValueError(f"noise_override must have shape ({dim},), got {b.shape}")
    else:
        sd = math.sqrt(linear_noise_variance(budget, constants.lipschitz))
        b = rng.generator().standard_normal(dim) * sd
    program = assemble_plain(data.gram, data.stats[1], constants.radius, reg_cap, tilt=b)
    result = minimize_ball_constrained(program)
    return project_to_ball(result.w, constants.radius)


def learn_output_perturbed(
    dataset: Dataset | FactoredDataset,
    spec: LossSpec,
    epsilon: float,
    rng: RngStream,
    reg_strength: float = 1e-3,
) -> ModelVector:
    """Classical baseline: solve a ridge problem, then noise the solution.

    The ridge is (reg_strength/2)||w||^2 added to the *mean* loss (not
    divided by n).  The released vector is the solution plus noise with a
    uniformly random direction and Gamma(dim, 2*lipschitz/(n*reg_strength*
    epsilon)) norm — the density proportional to exp(-eps ||v|| / sens)
    for the ridge solution's sensitivity — projected back to the ball.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    if reg_strength <= 0:
        raise ValueError(f"reg_strength must be > 0, got {reg_strength!r}")
    constants = spec.constants
    data = _factored(dataset, spec)
    n, dim = data.stats[0].shape
    program = assemble_plain(data.gram, data.stats[1], constants.radius, reg_strength * n)
    result = minimize_ball_constrained(program)
    gen = rng.generator()
    direction = gen.standard_normal(dim)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:  # probability-zero guard
        direction = np.zeros(dim)
        direction[0] = 1.0
        nrm = 1.0
    magnitude = gen.gamma(
        shape=dim, scale=2.0 * constants.lipschitz / (n * reg_strength * epsilon)
    )
    return project_to_ball(result.w + direction * (magnitude / nrm), constants.radius)


def save_model(
    path,
    model: ModelVector,
    mechanism: str,
    calibration: NoiseCalibration | None = None,
) -> None:
    """Write a model artifact as JSON (dim, weights, mechanism, provenance)."""
    payload = {
        "dim": model.dim,
        "w": [float(v) for v in model.w],
        "radius": model.radius,
        "mechanism": mechanism,
        "calibration": calibration.to_dict() if calibration is not None else None,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> tuple[ModelVector, dict]:
    """Read a model artifact; returns the model and the full payload dict."""
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("dim", "w", "radius", "mechanism"):
        if key not in payload:
            raise ValueError(f"{path}: model artifact missing key {key!r}")
    w = np.asarray(payload["w"], dtype=np.float64)
    if w.shape != (payload["dim"],):
        raise ValueError(
            f"{path}: weight length {w.shape} does not match dim {payload['dim']}"
        )
    return ModelVector(w=w, radius=float(payload["radius"])), payload
