"""Acceptance gate: nine end-to-end checks, one printed verdict each.

Every test prints exactly one ``ACCEPTANCE k (...): PASS/FAIL`` line to
the live terminal (bypassing capture) and then asserts, so the gate's
outcome is readable straight off the pytest log.  Monte-Carlo checks use
three-standard-error allowances; exact identities use relative 1e-9;
oracle comparisons state their tolerance inline.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from inputdp import (
    ExperimentConfig,
    LossConstants,
    PrivacyBudget,
    QuadraticProgram,
    RngStream,
    calibrate,
    dp_verifier_gaussian_1d,
    local_dp_asymptote,
    local_dp_level,
    make_loss,
    minimize_ball_constrained,
    noise_ridge_bounds,
    perturb_dataset,
    quad_noise_threshold,
    reconstruct_objective_identity,
    report_csv_text,
    report_json_text,
    ridge_floor,
    run_experiment,
    tail_check_chi_square,
    tail_check_gaussian,
)
from inputdp.harness import generate_synthetic
from tests.conftest import FLAGSHIP_N_GRID
from tests._oracles import (
    chi_square_tails,
    grid_minimum,
    random_ball_instance,
    trust_region_solve,
)

SEED = 20260815


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def test_criterion_1_excess_risk_decays_like_one_over_n(flagship_run, capsys):
    report, elapsed = flagship_run
    means = np.array(
        [report.cell("input", n).excess_risk_mean for n in FLAGSHIP_N_GRID]
    )
    slope = float(np.polyfit(np.log(FLAGSHIP_N_GRID), np.log(means), 1)[0])
    ok = -1.3 <= slope <= -0.7 and elapsed < 300.0
    _verdict(
        capsys, 1, "O(1/n) utility",
        ok, f"log-log slope {slope:.4f} in [-1.3, -0.7], runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_2_input_tracks_objective_at_large_n(flagship_run, capsys):
    report, _ = flagship_run
    n = FLAGSHIP_N_GRID[-1]
    rmse_input = report.cell("input", n).metric_mean
    rmse_objective = report.cell("objective", n).metric_mean
    rmse_plain = report.cell("non_private", n).metric_mean
    gap = abs(rmse_input - rmse_objective)
    allowance = 0.1 * (rmse_objective - rmse_plain)
    ok = gap <= allowance
    _verdict(
        capsys, 2, "input ≈ objective at n=2^15",
        ok, f"|ΔRMSE| {gap:.3g} <= 0.1·(objective − non-private) = {allowance:.3g}",
    )


def test_criterion_3_noise_ridge_coverage(capsys):
    # Independent sampling route: only U @ w enters the quadratic form
    # w'(U'U + U'Q + Q'U)w for unit w, so draw that n-vector directly
    # with a plain NumPy generator; the bracket and the threshold come
    # from the library.
    n, dim, fail_prob, smoothness, epsilon, trials = 1000, 14, 0.005, 1.0, 1.0, 10_000
    sd = quad_noise_threshold(n, fail_prob, dim, smoothness, epsilon)
    w = np.zeros(dim)
    w[0] = 1.0
    quad_stats = np.tile(smoothness * math.sqrt(dim / n) * w, (n, 1))
    clean = quad_stats @ w

    gen = np.random.default_rng(SEED)
    noise = gen.standard_normal((trials, n)) * (sd / math.sqrt(n))
    values = np.einsum("ij,ij->i", noise, noise) + 2.0 * noise @ clean

    bracket = noise_ridge_bounds(n, fail_prob, sd, smoothness, dim)
    floor = ridge_floor(smoothness, epsilon)
    stderr = math.sqrt(fail_prob * (1.0 - fail_prob) / trials)
    need = 1.0 - fail_prob - 3.0 * stderr
    inside = float(np.mean((values >= bracket.lower) & (values <= bracket.upper)))
    above_floor = float(np.mean(values >= floor))
    ok = inside >= need and above_floor >= need
    _verdict(
        capsys, 3, "noise-ridge coverage",
        ok, f"bracket {inside:.4f} and floor {above_floor:.4f} both >= {need:.4f}",
    )


def test_criterion_4_objective_reconstruction_identity(capsys):
    budget = PrivacyBudget(epsilon=1.0, delta=0.01)
    spec = make_loss("linear_regression", 1.0, 5)
    worst = 0.0
    for i in range(100):
        data = generate_synthetic(50, 5, 0.1, RngStream(SEED, path=(4, i)))
        cal = calibrate(budget, 50, spec.constants)
        _, record = perturb_dataset(
            data, spec, cal, RngStream(SEED, path=(5, i)), record_noise=True
        )
        gen = RngStream(SEED, path=(6, i)).generator()
        for _ in range(20):
            w = gen.standard_normal(5)
            w *= gen.uniform(0.0, 1.0) / float(np.linalg.norm(w))
            lhs, rhs = reconstruct_objective_identity(
                data, spec, record, w, reg_cap=16.0, epsilon=budget.epsilon
            )
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    ok = worst <= 1e-9
    _verdict(
        capsys, 4, "objective reconstruction identity",
        ok, f"max |lhs − rhs|/(1+|lhs|) = {worst:.3g} <= 1e-9 over 100×20 probes",
    )


def test_criterion_5_gaussian_verifier(capsys):
    budget = PrivacyBudget(epsilon=0.5, delta=0.01)
    diameter = 1.0
    sigma = math.sqrt(2.0 * math.log(1.25 / budget.delta)) * diameter / budget.epsilon
    calibrated = dp_verifier_gaussian_1d(diameter, sigma, budget.epsilon)
    undernoised = dp_verifier_gaussian_1d(diameter, 0.1 * sigma, budget.epsilon)
    ok = calibrated <= budget.delta < undernoised
    _verdict(
        capsys, 5, "gaussian local-DP verifier",
        ok,
        f"calibrated deficit {calibrated:.3g} <= {budget.delta}, "
        f"0.1·sigma deficit {undernoised:.3g} > {budget.delta}",
    )


def test_criterion_6_tail_bound_suites(capsys):
    # Exact tail probabilities, each held to its textbook bound and to
    # SciPy's incomplete gamma / normal CDF within 1e-12 relative.
    failures = []
    worst_ratio = 0.0
    events = []
    for dof, t in [(100, 3.0), (1, 0.1), (50, 10.0)]:
        upper, lower = tail_check_chi_square(dof, t)
        spread = 2.0 * math.sqrt(dof * t)
        events.append((f"chi2 upper dof={dof} t={t}", upper, math.exp(-t),
                       chi_square_tails(dof, dof + spread + 2.0 * t)[1]))
        events.append((f"chi2 lower dof={dof} t={t}", lower, math.exp(-t),
                       chi_square_tails(dof, dof - spread)[0]))
    for t in [1.25, 2.0, 3.0]:
        events.append((f"gauss t={t}", tail_check_gaussian(t), math.exp(-(t**2) / 2.0),
                       2.0 * float(ndtr(-t))))
    for label, prob, bound, oracle in events:
        worst_ratio = max(worst_ratio, prob / bound)
        if prob > bound:
            failures.append(f"{label}: {prob:.4g} > bound {bound:.4g}")
        if abs(prob - oracle) > 1e-12 * oracle:
            failures.append(f"{label}: {prob!r} != oracle {oracle!r}")
    ok = not failures
    _verdict(
        capsys, 6, "tail-bound suites",
        ok,
        f"9 exact probabilities within their bounds (worst ratio {worst_ratio:.3f})"
        if ok else "; ".join(failures),
    )


def test_criterion_7_local_dp_asymptote(capsys):
    budget = PrivacyBudget(epsilon=1.0, delta=0.01)
    constants = LossConstants(lipschitz=1.0, smoothness=1.0, radius=1.0, dim=14)
    n = 10**8
    level = local_dp_level(calibrate(budget, n, constants))
    ratio = level.epsilon_constants_convention / math.sqrt(n * budget.epsilon)
    limit = local_dp_asymptote(budget, constants)
    rel_err = abs(ratio - limit) / limit
    ok = rel_err <= 0.01
    _verdict(
        capsys, 7, "local-DP accounting limit",
        ok, f"eps_local/sqrt(n·eps) = {ratio:.6f} vs limit {limit:.6f}, rel err {rel_err:.3g} <= 1%",
    )


def test_criterion_8_solver_matches_grid_oracle(capsys):
    gen = np.random.default_rng(88)
    worst = 0.0
    for i in range(100):
        A, b, reg, radius = random_ball_instance(gen, i)
        program = QuadraticProgram(A=A, b_lin=b, reg=reg, radius=radius)
        solved = minimize_ball_constrained(program)
        center = trust_region_solve(A, b, reg, radius)
        tabulated = grid_minimum(A, b, reg, radius, center)
        worst = max(worst, abs(solved.objective - tabulated))
    ok = worst <= 1e-3
    _verdict(
        capsys, 8, "solver vs grid oracle",
        ok, f"max |objective gap| = {worst:.3g} <= 1e-3 on 100 instances (d <= 3)",
    )


def test_criterion_9_byte_identical_reports(capsys):
    config = ExperimentConfig(
        task="linear_regression",
        mechanisms=("non_private", "input", "objective", "output"),
        n_grid=(64, 256),
        trials=3,
        epsilon=0.8,
        delta=0.01,
        dim=3,
        seed=11,
    )
    first = run_experiment(config, workers=1)
    second = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=4)
    same_json = (
        report_json_text(first) == report_json_text(second) == report_json_text(parallel)
    )
    same_csv = (
        report_csv_text(first) == report_csv_text(second) == report_csv_text(parallel)
    )
    ok = same_json and same_csv
    _verdict(
        capsys, 9, "deterministic reports",
        ok, "JSON and CSV byte-identical across two runs and workers {1, 4}",
    )
