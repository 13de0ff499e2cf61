"""Ball-constrained quadratic minimization and the four learners.

The server-side problem is always

    minimize   (1/2) w'Aw + b.w + c + (reg/2) ||w||^2
    subject to ||w|| <= radius

solved by fixed-step projected gradient descent.  The step is 1/L with L
the largest eigenvalue of the effective Hessian A + reg*I, estimated by
power iteration (the Rayleigh-quotient estimate never exceeds L, so the
estimate is inflated by a hair before inverting; the start vector is a
fixed slightly tilted all-ones vector so the iteration cannot stall on a
symmetric orthogonality).

The inner loop is provided by a small compiled extension
(``inputdp._pgd``) with a pure-numpy fallback selected at import;
set INPUTDP_PURE_PYTHON=1 to force the fallback.  The two kernels sum in
the same order, so results do not depend on which one is active.

Four learners share this solver:

* ``learn_non_private``       — plain (optionally ridged) minimization;
* ``learn_input_perturbed``   — aggregates contributor releases; the
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
import os
from dataclasses import dataclass

import numpy as np

from .calibration import (
    NoiseCalibration,
    explicit_ridge,
    linear_noise_variance,
    recommend_reg_cap,
)
from .core import Dataset, LossConstants, ModelVector, PrivacyBudget, project_to_ball
from .loss import LossSpec
from .perturb import Release, RngStream

if os.environ.get("INPUTDP_PURE_PYTHON"):
    from . import _pgd_fallback as _kernel_module
else:
    try:
        from . import _pgd as _kernel_module  # type: ignore[attr-defined]
    except ImportError:
        from . import _pgd_fallback as _kernel_module

#: Which projected-gradient kernel was selected at import.
KERNEL_BACKEND = "python" if _kernel_module.__name__.endswith("_fallback") else "cython"

# Below this Hessian scale the quadratic part is treated as absent and
# the ball-constrained linear problem is solved in closed form.
_CURVATURE_FLOOR = 1e-30


def kernel_backend() -> str:
    """Name of the active inner-loop implementation: 'cython' or 'python'."""
    return KERNEL_BACKEND


class SolverNonConvergenceError(RuntimeError):
    """Projected gradient did not reach the residual tolerance."""

    def __init__(self, iterations: int, residual: float, tol: float):
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class QuadraticProgram:
    """(1/2) w'Aw + b.w + c + (reg/2)||w||^2 over the ball of ``radius``.

    ``A`` must be symmetric positive semidefinite (validated to 1e-8
    eigenvalue tolerance; tiny asymmetry is symmetrized away).
    """

    A: np.ndarray
    b_lin: np.ndarray
    c0: float
    reg: float
    radius: float

    def __post_init__(self) -> None:
        a = np.array(self.A, dtype=np.float64, copy=True)
        b = np.array(self.b_lin, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.ndim != 1 or b.shape[0] != a.shape[0]:
            raise ValueError(
                f"b_lin must be a vector matching A, got {b.shape} vs {a.shape}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and math.isfinite(self.c0)):
            raise ValueError("program coefficients must be finite")
        if self.reg < 0:
            raise ValueError(f"reg must be >= 0, got {self.reg!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        asym = float(np.max(np.abs(a - a.T)))
        if asym > 1e-8 * (1.0 + scale):
            raise ValueError(f"A is not symmetric (max asymmetry {asym:.3e})")
        a = (a + a.T) / 2.0
        min_eig = float(np.linalg.eigvalsh(a)[0])
        if min_eig < -1e-8 * (1.0 + scale):
            raise ValueError(f"A is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b_lin", b)
        object.__setattr__(self, "c0", float(self.c0))

    @property
    def dim(self) -> int:
        return self.b_lin.shape[0]

    def effective_hessian(self) -> np.ndarray:
        return self.A + self.reg * np.eye(self.dim)

    def objective(self, w) -> float:
        wa = w.w if isinstance(w, ModelVector) else np.asarray(w, dtype=np.float64)
        return float(
            0.5 * wa @ (self.A @ wa)
            + self.b_lin @ wa
            + self.c0
            + 0.5 * self.reg * (wa @ wa)
        )

    def gradient(self, w) -> np.ndarray:
        wa = w.w if isinstance(w, ModelVector) else np.asarray(w, dtype=np.float64)
        return self.A @ wa + self.b_lin + self.reg * wa


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100_000
    power_iterations: int = 100

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.power_iterations < 1:
            raise ValueError(f"power_iterations must be >= 1, got {self.power_iterations}")


@dataclass(frozen=True)
class SolverResult:
    w: np.ndarray
    objective: float
    iterations: int
    converged: bool
    residual: float


def _top_eigenvalue(hess: np.ndarray, iterations: int) -> float:
    """Power-iteration estimate of the largest eigenvalue (PSD input).

    The fixed start vector is tilted index-wise so it cannot be exactly
    orthogonal to the dominant eigenvector of any data-derived matrix.
    """
    d = hess.shape[0]
    v = 1.0 + np.arange(d) * (1e-3 / max(d, 1))
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        hv = hess @ v
        nrm = float(np.linalg.norm(hv))
        if nrm == 0.0:
            return 0.0
        v = hv / nrm
    return float(v @ (hess @ v))


def minimize_ball_constrained(
    program: QuadraticProgram,
    config: SolverConfig | None = None,
    start: np.ndarray | None = None,
) -> SolverResult:
    """Solve the program by projected gradient descent.

    The iteration starts at the origin unless ``start`` supplies another
    point (projected into the feasible ball first); a strongly convex
    program reaches the same minimizer from any start.  Never raises on
    a slow instance: if the residual tolerance is not reached within
    ``max_iter`` steps the best iterate is returned with
    ``converged=False`` (the learners turn that into an error).
    """
    cfg = config or SolverConfig()
    hess = program.effective_hessian()
    top = _top_eigenvalue(hess, cfg.power_iterations)
    if top < _CURVATURE_FLOOR:
        # Curvature-free: minimize b.w over the ball in closed form.
        b = program.b_lin
        bnrm = float(np.linalg.norm(b))
        w = np.zeros(program.dim) if bnrm == 0.0 else -program.radius / bnrm * b
        return SolverResult(
            w=w, objective=program.objective(w), iterations=0, converged=True, residual=0.0
        )
    step = 1.0 / (1.0001 * top)
    if start is None:
        w0 = np.zeros(program.dim)
    else:
        arr = np.asarray(start, dtype=np.float64)
        if arr.shape != (program.dim,):
            raise ValueError(f"start must have shape ({program.dim},), got {arr.shape}")
        w0 = project_to_ball(arr, program.radius).w.copy()
    w, iterations, converged, residual = _kernel_module.pgd_ball(
        np.ascontiguousarray(hess),
        program.b_lin.copy(),  # kernels want writable contiguous buffers
        float(program.radius),
        float(step),
        float(cfg.tol),
        int(cfg.max_iter),
        w0,
    )
    return SolverResult(
        w=np.asarray(w),
        objective=program.objective(w),
        iterations=int(iterations),
        converged=bool(converged),
        residual=float(residual),
    )


def _solve_or_raise(
    program: QuadraticProgram, config: SolverConfig | None
) -> SolverResult:
    """Learner-facing wrapper: non-convergence becomes an exception."""
    result = minimize_ball_constrained(program, config)
    if not result.converged:
        cfg = config or SolverConfig()
        raise SolverNonConvergenceError(
            iterations=result.iterations, residual=result.residual, tol=cfg.tol
        )
    return result


def assemble_plain(dataset: Dataset, spec: LossSpec, reg_coeff: float = 0.0) -> QuadraticProgram:
    """Program whose objective equals the mean loss + (reg_coeff/2n)||w||^2."""
    q_stats, p_stats, s_stats = spec.encode_dataset(dataset)
    n = len(dataset)
    return QuadraticProgram(
        A=q_stats.T @ q_stats / n,
        b_lin=-p_stats.mean(axis=0),
        c0=float(s_stats.mean()),
        reg=reg_coeff / n,
        radius=spec.constants.radius,
    )


def assemble_released(
    released: Release,
    constants: LossConstants,
    budget: PrivacyBudget,
    reg_cap: float,
) -> QuadraticProgram:
    """Program over aggregated contributor releases.

    The explicit ridge is (reg_cap - ridge_floor)/n: on the calibrated
    event the noise-induced ridge covers at least the floor, so the total
    effective ridge clears reg_cap's intent without double-charging.
    """
    if len(released) == 0:
        raise ValueError("no released statistics to aggregate")
    ridge = explicit_ridge(reg_cap, constants.smoothness, budget.epsilon)
    n = len(released)
    return QuadraticProgram(
        A=released.Q.T @ released.Q / n,
        b_lin=-released.P.mean(axis=0),
        c0=float(released.S.mean()),
        reg=ridge / n,
        radius=constants.radius,
    )


def learn_non_private(
    dataset: Dataset,
    spec: LossSpec,
    reg_coeff: float = 0.0,
    config: SolverConfig | None = None,
) -> ModelVector:
    """Ball-constrained minimizer of the clean empirical objective."""
    result = _solve_or_raise(assemble_plain(dataset, spec, reg_coeff), config)
    return project_to_ball(result.w, spec.constants.radius)


def learn_input_perturbed(
    released: Release,
    constants: LossConstants,
    budget: PrivacyBudget,
    reg_cap: float | None = None,
    config: SolverConfig | None = None,
) -> ModelVector:
    """Learn from contributor releases alone (the server never sees raw data).

    ``budget`` must be the same budget the releases were calibrated
    against.  ``reg_cap`` defaults to :func:`recommend_reg_cap`.
    """
    if reg_cap is None:
        reg_cap = recommend_reg_cap(constants, budget)
    program = assemble_released(released, constants, budget, reg_cap)
    result = _solve_or_raise(program, config)
    return project_to_ball(result.w, constants.radius)


def learn_objective_perturbed(
    dataset: Dataset,
    spec: LossSpec,
    budget: PrivacyBudget,
    rng: RngStream,
    reg_cap: float | None = None,
    config: SolverConfig | None = None,
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
    n = len(dataset)
    if noise_override is not None:
        b = np.asarray(noise_override, dtype=np.float64)
        if b.shape != (dataset.dim,):
            raise ValueError(
                f"noise_override must have shape ({dataset.dim},), got {b.shape}"
            )
    else:
        sd = math.sqrt(linear_noise_variance(budget, constants.lipschitz))
        b = rng.generator().standard_normal(dataset.dim) * sd
    base = assemble_plain(dataset, spec, reg_coeff=reg_cap)
    program = QuadraticProgram(
        A=base.A, b_lin=base.b_lin + b / n, c0=base.c0, reg=base.reg, radius=base.radius
    )
    result = _solve_or_raise(program, config)
    return project_to_ball(result.w, constants.radius)


def learn_output_perturbed(
    dataset: Dataset,
    spec: LossSpec,
    epsilon: float,
    rng: RngStream,
    reg_strength: float = 1e-3,
    config: SolverConfig | None = None,
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
    n = len(dataset)
    base = assemble_plain(dataset, spec, reg_coeff=0.0)
    program = QuadraticProgram(
        A=base.A, b_lin=base.b_lin, c0=base.c0, reg=reg_strength, radius=base.radius
    )
    result = _solve_or_raise(program, config)
    gen = rng.generator()
    direction = gen.standard_normal(dataset.dim)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:  # probability-zero guard
        direction = np.zeros(dataset.dim)
        direction[0] = 1.0
        nrm = 1.0
    magnitude = gen.gamma(
        shape=dataset.dim, scale=2.0 * constants.lipschitz / (n * reg_strength * epsilon)
    )
    return project_to_ball(result.w + direction * (magnitude / nrm), constants.radius)


def save_model(
    path,
    model: ModelVector,
    mechanism: str,
    calibration: NoiseCalibration | None = None,
    seed: int | None = None,
) -> None:
    """Write a model artifact as JSON (dim, weights, mechanism, provenance)."""
    payload = {
        "dim": model.dim,
        "w": [float(v) for v in model.w],
        "radius": model.radius,
        "mechanism": mechanism,
        "calibration": calibration.to_dict() if calibration is not None else None,
        "seed": seed,
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
