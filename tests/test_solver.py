"""Ball-constrained solver, program assembly, and the four learners.

Cross-checks use two independent routes from tests/_oracles.py (an exact
trust-region solver and a tabulated grid minimum), and property tests
check the KKT conditions directly on random PSD programs; Monte-Carlo
statistics are frozen from pinned-seed runs together with their
tolerances.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inputdp import (
    Dataset,
    LossConstants,
    ModelVector,
    PrivacyBudget,
    QuadraticProgram,
    Release,
    RngStream,
    assemble_plain,
    assemble_released,
    calibrate,
    empirical_objective,
    explicit_ridge,
    learn_input_perturbed,
    learn_non_private,
    learn_objective_perturbed,
    learn_output_perturbed,
    linear_regression_loss,
    load_model,
    make_loss,
    min_feasible_n,
    minimize_ball_constrained,
    perturb_dataset,
    recommend_reg_cap,
    ridge_floor,
    save_model,
)
from inputdp.solver import Gram, factor_dataset
from tests._oracles import (
    exact_ball_loop,
    grid_minimum,
    quadratic_objective,
    random_ball_instance,
    trust_region_solve,
)

BUDGET = PrivacyBudget(epsilon=1.0, delta=0.01)


def random_dataset(gen, n, dim, radius=1.0):
    x = gen.standard_normal((n, dim))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1) / radius)[:, None]
    y = np.clip(gen.standard_normal(n) * 0.3, -1.0, 1.0)
    return Dataset(features=x, labels=y)


@pytest.fixture(scope="module")
def output_dataset():
    # Draw order is pinned: the frozen output-noise statistics below were
    # taken after a (40, 3) dataset and its labels were drawn first.
    gen = np.random.default_rng(5)
    gen.standard_normal((40, 3))
    gen.standard_normal(40)
    x = gen.standard_normal((50, 4))
    x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
    return Dataset(features=x, labels=np.clip(gen.standard_normal(50) * 0.3, -1, 1))


class TestQuadraticProgram:
    def test_validation(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="square"):
            QuadraticProgram(A=np.zeros((2, 3)), b_lin=np.zeros(2), reg=0.0, radius=1.0)
        with pytest.raises(ValueError, match="b_lin"):
            QuadraticProgram(A=eye, b_lin=np.zeros(3), reg=0.0, radius=1.0)
        with pytest.raises(ValueError, match="finite"):
            QuadraticProgram(A=eye, b_lin=np.array([np.nan, 0.0]), reg=0.0, radius=1.0)
        with pytest.raises(ValueError, match="reg"):
            QuadraticProgram(A=eye, b_lin=np.zeros(2), reg=-0.1, radius=1.0)
        with pytest.raises(ValueError, match="radius"):
            QuadraticProgram(A=eye, b_lin=np.zeros(2), reg=0.0, radius=0.0)
        with pytest.raises(ValueError, match="not symmetric"):
            QuadraticProgram(
                A=np.array([[1.0, 0.5], [0.2, 1.0]]), b_lin=np.zeros(2), reg=0.0, radius=1.0
            )
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuadraticProgram(A=-eye, b_lin=np.zeros(2), reg=0.0, radius=1.0)

    def test_objective_and_gradient(self):
        prog = QuadraticProgram(
            A=np.diag([2.0, 4.0]), b_lin=np.array([1.0, -1.0]), reg=0.2, radius=3.0
        )
        w = np.array([1.0, 2.0])
        assert prog.objective(w) == pytest.approx(1.0 + 8.0 + (1.0 - 2.0) + 0.1 * 5.0)
        gradient = prog.A @ w + prog.b_lin + prog.reg * w
        assert np.allclose(gradient, [2.0 + 1.0 + 0.2, 8.0 - 1.0 + 0.4])
        assert prog.objective(ModelVector(w=w, radius=3.0)) == prog.objective(w)


class TestMinimizeBallConstrained:
    def test_one_dimensional_clamp(self):
        # minimize (1/2) a w^2 - p w over |w| <= radius: clamp(p/a), with
        # multiplier p - a on the boundary (gradient 2 - 6 = -4 at w = 1)
        for radius, expected, multiplier in ((1.0, 1.0, 4.0), (10.0, 3.0, 0.0)):
            prog = QuadraticProgram(
                A=np.array([[2.0]]), b_lin=np.array([-6.0]), reg=0.0, radius=radius
            )
            res = minimize_ball_constrained(prog)
            assert res.w[0] == pytest.approx(expected, abs=1e-14)
            assert res.multiplier == pytest.approx(multiplier, abs=1e-14)

    def test_identity_hessian_zero_linear(self):
        prog = QuadraticProgram(A=np.eye(3), b_lin=np.zeros(3), reg=0.5, radius=1.0)
        res = minimize_ball_constrained(prog)
        assert res.iterations == 0 and res.multiplier == 0.0
        assert np.array_equal(res.w, np.zeros(3))

    def test_curvature_free_closed_form(self):
        prog = QuadraticProgram(
            A=np.zeros((2, 2)), b_lin=np.array([3.0, 4.0]), reg=0.0, radius=2.0
        )
        res = minimize_ball_constrained(prog)
        assert res.iterations == 0 and res.multiplier == 2.5
        assert np.allclose(res.w, [-1.2, -1.6], atol=1e-15)

        flat = QuadraticProgram(
            A=np.zeros((2, 2)), b_lin=np.zeros(2), reg=0.0, radius=2.0
        )
        assert np.array_equal(minimize_ball_constrained(flat).w, np.zeros(2))

    def test_matches_exact_trust_region_solutions(self):
        gen = np.random.default_rng(12)
        for index in range(12):
            A, b, reg, radius = random_ball_instance(gen, index)
            prog = QuadraticProgram(A=A, b_lin=b, reg=reg, radius=radius)
            assert_matches_oracle(prog, minimize_ball_constrained(prog))

    def test_matches_tabulated_grid_minimum(self):
        gen = np.random.default_rng(12)
        for index in range(6):
            A, b, reg, radius = random_ball_instance(gen, index)
            prog = QuadraticProgram(A=A, b_lin=b, reg=reg, radius=radius)
            f_solved = quadratic_objective(
                A, b, reg, minimize_ball_constrained(prog).w
            )
            center = trust_region_solve(A, b, reg, radius)
            f_grid = grid_minimum(A, b, reg, radius, center)
            assert abs(f_solved - f_grid) <= 1e-9

    def test_deterministic(self):
        gen = np.random.default_rng(2)
        A, b, reg, radius = random_ball_instance(gen, 2)
        prog = QuadraticProgram(A=A, b_lin=b, reg=reg, radius=radius)
        assert np.array_equal(
            minimize_ball_constrained(prog).w, minimize_ball_constrained(prog).w
        )


class TestKernelBackends:
    """The exact solve (NumPy's eigh and vectorised Newton steps) is the
    one kernel; it is checked against a plain-Python loop transcription
    of the same characterization that shares no linear algebra with it."""

    @pytest.mark.parametrize("placement", ["interior", "boundary"])
    @pytest.mark.parametrize("dim", [1, 3, 14, 32])
    def test_fallback_matches_loop_transcription(self, dim, placement):
        """Up to d = 32, inside the ball and on the sphere, the solve
        agrees with ``exact_ball_loop`` (Jacobi eigendecomposition,
        bisection on the multiplier to the last bit) on w and on the
        multiplier, and lands where the program was built to put it."""
        gen = np.random.default_rng(1000 + dim)
        eigenvalues = gen.uniform(0.2, 2.0, size=dim)
        basis = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
        hess = np.ascontiguousarray(basis @ np.diag(eigenvalues) @ basis.T)
        hess = 0.5 * (hess + hess.T)
        radius = 1.0
        # Unconstrained minimizer at norm 0.5 (inside) or 3 (outside the ball).
        target = gen.standard_normal(dim)
        target *= (3.0 if placement == "boundary" else 0.5) / float(np.linalg.norm(target))
        lin = -hess @ target
        program = QuadraticProgram(A=hess, b_lin=lin, reg=0.0, radius=radius)

        result = minimize_ball_constrained(program)
        w_loop, nu_loop = exact_ball_loop(hess, lin, radius)
        assert float(np.max(np.abs(result.w - w_loop))) <= 1e-13
        assert abs(result.multiplier - nu_loop) <= 1e-12 * (1.0 + nu_loop)
        if placement == "interior":
            assert result.iterations == 0 and result.multiplier == 0.0 and nu_loop == 0.0
            assert float(np.max(np.abs(result.w - target))) <= 1e-13
        else:
            assert result.iterations >= 1 and result.multiplier > 0.0
            assert np.linalg.norm(result.w) == pytest.approx(radius, abs=1e-14)
            assert np.linalg.norm(w_loop) == pytest.approx(radius, abs=1e-14)


SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 8)


def psd_instance(seed: int, dim: int, rank: int):
    """A = V diag(lam) V' with ``rank`` eigenvalues log-uniform in
    [0.05, 5] and the rest exactly 0; returns A, the range basis, the
    null-space basis and the generator for further draws."""
    gen = np.random.default_rng(seed)
    basis = np.linalg.qr(gen.standard_normal((dim, dim)))[0]
    eigenvalues = np.exp(gen.uniform(math.log(0.05), math.log(5.0), size=rank))
    span, null = basis[:, :rank], basis[:, rank:]
    A = span @ np.diag(eigenvalues) @ span.T
    return 0.5 * (A + A.T), span, null, gen


def assert_kkt(program: QuadraticProgram, result, tol: float = 1e-12) -> None:
    """Stationarity g + mu w = 0, mu >= 0, feasibility and complementary
    slackness mu (||w|| - r) = 0, each relative to the program's scale."""
    w, mu, radius = result.w, result.multiplier, program.radius
    scale = 1.0 + float(np.linalg.norm(program.b_lin)) + radius * (
        float(np.linalg.norm(program.A, 2)) + program.reg
    )
    assert mu >= 0.0
    gradient = program.A @ w + program.b_lin + program.reg * w
    assert float(np.linalg.norm(gradient + mu * w)) <= tol * scale
    assert float(np.linalg.norm(w)) <= radius * (1.0 + tol)
    assert abs(mu * (float(np.linalg.norm(w)) - radius)) <= tol * scale
    assert result.objective == program.objective(w)


def assert_matches_oracle(program: QuadraticProgram, result) -> None:
    A, b, reg, radius = program.A, program.b_lin, program.reg, program.radius
    w_oracle = trust_region_solve(A, b, reg, radius)
    f_oracle = quadratic_objective(A, b, reg, w_oracle)
    f_solved = quadratic_objective(A, b, reg, result.w)
    assert abs(f_solved - f_oracle) <= 1e-12 * (1.0 + abs(f_oracle))


class TestExactSolveProperties:
    """The exact solve on random PSD programs: KKT conditions checked
    directly, and agreement with the independent bisection oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        dim=DIMS,
        reg=st.sampled_from([0.0, 1e-3, 0.3]),
        b_scale=st.floats(1e-3, 10.0),
        radius=st.floats(0.1, 10.0),
    )
    def test_full_rank(self, seed, dim, reg, b_scale, radius):
        A, _, _, gen = psd_instance(seed, dim, dim)
        b = gen.standard_normal(dim) * b_scale
        program = QuadraticProgram(A=A, b_lin=b, reg=reg, radius=radius)
        result = minimize_ball_constrained(program)
        assert_kkt(program, result)
        assert_matches_oracle(program, result)
        inside = float(np.linalg.norm(np.linalg.solve(A + reg * np.eye(dim), b))) < radius
        assert (result.multiplier == 0.0) == inside
        assert (result.iterations == 0) == inside

    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, dim=st.integers(2, 8), radius=st.floats(0.1, 10.0), data=st.data())
    def test_rank_deficient_b_in_range(self, seed, dim, radius, data):
        """b orthogonal to the null space of A, reg = 0: inside the ball
        the answer is the min-norm stationary point -A^+ b; outside, the
        boundary point with a positive multiplier."""
        rank = data.draw(st.integers(1, dim - 1))
        A, span, null, gen = psd_instance(seed, dim, rank)
        b = span @ gen.standard_normal(rank)
        program = QuadraticProgram(A=A, b_lin=b, reg=0.0, radius=radius)
        result = minimize_ball_constrained(program)
        assert_kkt(program, result)
        assert_matches_oracle(program, result)
        # No component in the null space, whichever case applies.
        assert float(np.linalg.norm(null.T @ result.w)) <= 1e-12 * (1.0 + radius)
        min_norm = -np.linalg.pinv(A) @ b
        if float(np.linalg.norm(min_norm)) < radius * (1.0 - 1e-9):
            assert result.multiplier == 0.0 and result.iterations == 0
            assert np.allclose(result.w, min_norm, rtol=0.0, atol=1e-12 * (1.0 + radius))
        elif float(np.linalg.norm(min_norm)) > radius * (1.0 + 1e-9):
            assert result.multiplier > 0.0
            assert float(np.linalg.norm(result.w)) == pytest.approx(radius, rel=1e-13)

    def test_boundary_solve_leaves_roundoff_out_of_the_null_space(self):
        # A boundary instance with a small multiplier (nu ~ 7e-5): the
        # roundoff of b on A's null space, scaled by 1/nu, once put
        # 1.6e-11 of the answer there.
        A, span, null, gen = psd_instance(990, 7, 4)
        b = span @ gen.standard_normal(4)
        program = QuadraticProgram(A=A, b_lin=b, reg=0.0, radius=5.734375)
        result = minimize_ball_constrained(program)
        assert 0.0 < result.multiplier < 1e-4
        assert_kkt(program, result)
        assert float(np.linalg.norm(null.T @ result.w)) <= 1e-12 * (1.0 + program.radius)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=SEEDS,
        dim=st.integers(2, 8),
        radius=st.floats(0.1, 10.0),
        share=st.floats(0.1, 1.0),
        data=st.data(),
    )
    def test_rank_deficient_b_with_null_component(self, seed, dim, radius, share, data):
        """A linear term along a flat direction pushes the minimizer onto
        the sphere, however small the ball-free fit would be (A = 0 is
        the closed-form case, tested below)."""
        rank = data.draw(st.integers(1, dim - 1))
        A, span, null, gen = psd_instance(seed, dim, rank)
        along_null = null @ gen.standard_normal(dim - rank)
        along_null *= share / float(np.linalg.norm(along_null))
        b = span @ gen.standard_normal(rank) + along_null
        program = QuadraticProgram(A=A, b_lin=b, reg=0.0, radius=radius)
        result = minimize_ball_constrained(program)
        assert_kkt(program, result)
        assert_matches_oracle(program, result)
        assert result.multiplier > 0.0 and result.iterations >= 1
        assert float(np.linalg.norm(result.w)) == pytest.approx(radius, rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, dim=DIMS, radius=st.floats(0.1, 10.0), zero_b=st.booleans())
    def test_zero_matrix(self, seed, dim, radius, zero_b):
        b = np.zeros(dim) if zero_b else np.random.default_rng(seed).standard_normal(dim)
        program = QuadraticProgram(A=np.zeros((dim, dim)), b_lin=b, reg=0.0, radius=radius)
        result = minimize_ball_constrained(program)
        assert_kkt(program, result)
        assert result.iterations == 0
        if zero_b:
            assert np.array_equal(result.w, np.zeros(dim)) and result.multiplier == 0.0
        else:
            assert np.allclose(result.w, -radius * b / np.linalg.norm(b), rtol=0.0, atol=1e-15 * radius)


class TestAssembly:
    def test_plain_matches_empirical_objective(self):
        # The program is the empirical objective up to the constant mean s.
        gen = np.random.default_rng(14)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 12, 3)
        q_stats, p_stats, s_stats = spec.encode_dataset(ds)
        prog = assemble_plain(q_stats, p_stats, spec.constants.radius, reg_coeff=0.7)
        assert prog.radius == spec.constants.radius
        for _ in range(20):
            w = gen.standard_normal(3)
            w /= max(1.0, float(np.linalg.norm(w)))
            lhs = prog.objective(w) + float(s_stats.mean())
            rhs = empirical_objective(ds, spec, w, 0.7)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_released_matches_plain_under_zero_noise(self):
        gen = np.random.default_rng(15)
        spec = linear_regression_loss(dim=2, radius=1.0)
        ds = random_dataset(gen, 30, 2)
        q_stats, p_stats, s_stats = spec.encode_dataset(ds)
        released = Release(q_stats, p_stats, s_stats)
        cal = calibrate(BUDGET, 30, spec.constants)
        prog = assemble_released(released, cal, reg_cap=cal.ridge_floor)
        plain = assemble_plain(q_stats, p_stats, spec.constants.radius)
        assert np.array_equal(prog.A, plain.A)
        assert np.array_equal(prog.b_lin, plain.b_lin)
        assert prog.reg == 0.0

    def test_released_program_ignores_s(self):
        gen = np.random.default_rng(15)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 40, 3)
        cal = calibrate(BUDGET, 40, spec.constants)
        released = perturb_dataset(ds, spec, cal, RngStream(4))
        zeroed = Release(Q=released.Q, P=released.P, S=np.zeros(40))
        assert not np.array_equal(released.S, zeroed.S)
        reg_cap = recommend_reg_cap(spec.constants, BUDGET)
        prog = assemble_released(released, cal, reg_cap)
        blind = assemble_released(zeroed, cal, reg_cap)
        fields = [f.name for f in dataclasses.fields(prog) if f.init]
        assert fields == ["A", "b_lin", "reg", "radius"]
        for name in fields:
            assert np.array_equal(getattr(prog, name), getattr(blind, name)), name

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        cap_over_floor=st.floats(1.0, 50.0),
        tilt_scale=st.floats(0.0, 1e3),
    )
    def test_released_is_plain_over_the_release(self, n, dim, seed, cap_over_floor, tilt_scale):
        gen = np.random.default_rng(seed)
        released = Release(
            Q=gen.standard_normal((n, dim)),
            P=gen.standard_normal((n, dim)),
            S=gen.standard_normal(n),
        )
        constants = LossConstants(lipschitz=2.0, smoothness=1.0, radius=1.5, dim=dim)
        reg_cap = cap_over_floor * ridge_floor(constants.smoothness, BUDGET.epsilon)
        ridge = explicit_ridge(reg_cap, constants.smoothness, BUDGET.epsilon)
        plain = assemble_plain(released.Q, released.P, constants.radius, ridge)
        programs = [plain]
        if n >= min_feasible_n(BUDGET.delta / 2):  # a calibration exists at this n
            cal = calibrate(BUDGET, n, constants)
            programs.append(assemble_released(released, cal, reg_cap))
        for got in programs:
            assert np.array_equal(got.A, released.Q.T @ released.Q / n)
            assert np.array_equal(got.b_lin, -released.P.mean(axis=0))
            assert got.reg == ridge / n
            assert got.radius == constants.radius
        tilt = gen.standard_normal(dim) * tilt_scale
        tilted = assemble_plain(released.Q, released.P, constants.radius, ridge, tilt=tilt)
        assert np.array_equal(tilted.A, plain.A)
        assert np.array_equal(tilted.b_lin, -released.P.mean(axis=0) + tilt / n)
        assert tilted.reg == plain.reg

    def test_released_rejects_empty_and_low_cap(self):
        spec = linear_regression_loss(dim=2, radius=1.0)
        cal = calibrate(BUDGET, 30, spec.constants)
        with pytest.raises(ValueError, match=r"shape \(0, 2\) does not match .* \(30, 2\)"):
            assemble_released(
                Release(Q=np.zeros((0, 2)), P=np.zeros((0, 2)), S=np.zeros(0)),
                cal,
                reg_cap=3.0,
            )
        gen = np.random.default_rng(16)
        ds = random_dataset(gen, 30, 2)
        released = Release(*spec.encode_dataset(ds))
        with pytest.raises(ValueError, match="ridge floor"):
            assemble_released(released, cal, reg_cap=1.9)


class TestLearnNonPrivate:
    def test_single_example_least_squares(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([0.5]))
        spec = linear_regression_loss(dim=1, radius=1.0)
        model = learn_non_private(ds, spec)
        assert model.w[0] == pytest.approx(0.5, abs=1e-8)

    def test_duplication_invariance(self):
        gen = np.random.default_rng(18)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 15, 3)
        doubled = Dataset(
            features=np.vstack([ds.features, ds.features]),
            labels=np.concatenate([ds.labels, ds.labels]),
        )
        w_once = learn_non_private(ds, spec, reg_coeff=0.0)
        w_twice = learn_non_private(doubled, spec, reg_coeff=0.0)
        assert np.allclose(w_once.w, w_twice.w, rtol=0, atol=1e-9)

    def test_beats_random_ball_probes(self):
        gen = np.random.default_rng(19)
        spec = linear_regression_loss(dim=5, radius=1.0)
        ds = random_dataset(gen, 50, 5)
        model = learn_non_private(ds, spec)
        best = empirical_objective(ds, spec, model, 0.0)
        directions = gen.standard_normal((1000, 5))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        radii = gen.uniform(0.0, 1.0, size=1000) ** 0.2
        probes = directions * radii[:, None]
        probe_best = min(empirical_objective(ds, spec, p, 0.0) for p in probes)
        assert best <= probe_best + 1e-9


class TestLearnInputPerturbed:
    def test_zero_noise_floor_cap_recovers_erm(self):
        gen = np.random.default_rng(22)
        spec = linear_regression_loss(dim=2, radius=1.0)
        ds = random_dataset(gen, 30, 2)
        released = Release(*spec.encode_dataset(ds))
        cal = calibrate(BUDGET, 30, spec.constants)
        w_in = learn_input_perturbed(released, cal, reg_cap=cal.ridge_floor)
        w_np = learn_non_private(ds, spec, reg_coeff=0.0)
        assert np.array_equal(w_in.w, w_np.w)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(23)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 27, 3)
        cal = calibrate(BUDGET, 27, spec.constants)
        released = perturb_dataset(ds, spec, cal, RngStream(2))
        perm = np.random.default_rng(0).permutation(27)
        shuffled = Release(Q=released.Q[perm], P=released.P[perm], S=released.S[perm])
        w_a = learn_input_perturbed(released, cal)
        w_b = learn_input_perturbed(shuffled, cal)
        assert np.allclose(w_a.w, w_b.w, rtol=0, atol=1e-9)

    def test_refuses_a_release_its_calibration_does_not_fit(self):
        gen = np.random.default_rng(26)
        spec = linear_regression_loss(dim=5, radius=1.0)
        ds = random_dataset(gen, 2000, 5)
        cal = calibrate(BUDGET, 2000, spec.constants)
        released = perturb_dataset(ds, spec, cal, RngStream(5))
        kept = Release(Q=released.Q[:1000], P=released.P[:1000], S=released.S[:1000])
        with pytest.raises(ValueError, match=r"shape \(1000, 5\) .* \(2000, 5\)"):
            learn_input_perturbed(kept, cal)
        narrow = Release(Q=released.Q[:, :4], P=released.P[:, :4], S=released.S)
        with pytest.raises(ValueError, match=r"shape \(2000, 4\) .* \(2000, 5\)"):
            learn_input_perturbed(narrow, cal)
        assert learn_input_perturbed(released, cal).dim == 5

    def test_finite_difference_local_optimality(self):
        gen = np.random.default_rng(24)
        spec = linear_regression_loss(dim=2, radius=1.0)
        ds = random_dataset(gen, 27, 2)
        cal = calibrate(BUDGET, 27, spec.constants)
        released = perturb_dataset(ds, spec, cal, RngStream(3))
        reg_cap = recommend_reg_cap(spec.constants, BUDGET)
        model = learn_input_perturbed(released, cal, reg_cap=reg_cap)
        prog = assemble_released(released, cal, reg_cap)
        center = prog.objective(model.w)
        assert float(np.linalg.norm(model.w)) < 1.0 - 1e-3  # probes stay feasible
        for axis in range(2):
            for sign in (-1.0, 1.0):
                probe = model.w.copy()
                probe[axis] += sign * 1e-3
                assert center <= prog.objective(probe)


class TestLearnObjectivePerturbed:
    def test_zero_noise_override_is_ridge_erm(self):
        gen = np.random.default_rng(25)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 25, 3)
        floor = ridge_floor(spec.constants.smoothness, BUDGET.epsilon)
        w_obj = learn_objective_perturbed(
            ds, spec, BUDGET, RngStream(0), reg_cap=floor, noise_override=np.zeros(3)
        )
        w_ridge = learn_non_private(ds, spec, reg_coeff=floor)
        assert np.array_equal(w_obj.w, w_ridge.w)

    def test_deterministic_under_fixed_stream(self):
        gen = np.random.default_rng(26)
        spec = linear_regression_loss(dim=3, radius=1.0)
        ds = random_dataset(gen, 25, 3)
        a = learn_objective_perturbed(ds, spec, BUDGET, RngStream(4, path=(1,)))
        b = learn_objective_perturbed(ds, spec, BUDGET, RngStream(4, path=(1,)))
        assert np.array_equal(a.w, b.w)

    def test_rejects_low_cap_and_bad_override(self):
        gen = np.random.default_rng(27)
        spec = linear_regression_loss(dim=2, radius=1.0)
        ds = random_dataset(gen, 10, 2)
        with pytest.raises(ValueError, match="ridge floor"):
            learn_objective_perturbed(ds, spec, BUDGET, RngStream(0), reg_cap=0.5)
        with pytest.raises(ValueError, match="noise_override"):
            learn_objective_perturbed(
                ds, spec, BUDGET, RngStream(0), noise_override=np.zeros(3)
            )


class TestLearnOutputPerturbed:
    def test_noise_norm_follows_gamma_law(self, output_dataset):
        # mean ||release - ridge solution|| over 1e4 draws must match the
        # Gamma(dim, 2 zeta / (n reg eps)) mean dim * scale = 0.004 (the
        # regime keeps the ball projection non-binding)
        dataset = output_dataset
        spec = linear_regression_loss(dim=4, radius=1.0)
        reg_strength, epsilon = 2.0, 40.0
        ridge = assemble_plain(
            *spec.encode_dataset(dataset)[:2], spec.constants.radius, reg_coeff=reg_strength * 50
        )
        w_ridge = minimize_ball_constrained(ridge).w
        assert float(np.linalg.norm(w_ridge)) == pytest.approx(
            0.010601595637682763, rel=1e-12
        )
        root = RngStream(33, path=(66,))
        norms = np.empty(10_000)
        for i in range(10_000):
            out = learn_output_perturbed(
                dataset, spec, epsilon, root.child(i), reg_strength=reg_strength
            )
            norms[i] = np.linalg.norm(out.w - w_ridge)
        mean = float(norms.mean())
        target = 4 * 2.0 * spec.constants.lipschitz / (50 * reg_strength * epsilon)
        assert target == 0.004
        assert mean == pytest.approx(0.003994009003152888, rel=1e-12)
        assert abs(mean / target - 1.0) <= 0.05

    def test_vanishing_noise_limit(self, output_dataset):
        dataset = output_dataset
        spec = linear_regression_loss(dim=4, radius=1.0)
        ridge = assemble_plain(*spec.encode_dataset(dataset)[:2], spec.constants.radius, 2.0 * 50)
        w_ridge = minimize_ball_constrained(ridge).w
        out = learn_output_perturbed(
            dataset, spec, 1e12, RngStream(33, path=(66,)), reg_strength=2.0
        )
        assert float(np.linalg.norm(out.w - w_ridge)) <= 1e-9

    def test_parameter_validation(self, output_dataset):
        dataset = output_dataset
        spec = linear_regression_loss(dim=4, radius=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            learn_output_perturbed(dataset, spec, 0.0, RngStream(0))
        with pytest.raises(ValueError, match="reg_strength"):
            learn_output_perturbed(dataset, spec, 1.0, RngStream(0), reg_strength=0.0)


class TestSharedGram:
    """The clean learners and the objective, fed one factored training
    set, give the bits they give on the bare dataset."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["linear_regression", "logistic"]),
        n=st.integers(1, 60),
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        reg_coeff=st.floats(0.0, 10.0),
        cap_over_floor=st.floats(1.0, 10.0),
        tilt_scale=st.floats(0.0, 10.0),
        reg_strength=st.floats(1e-4, 10.0),
    )
    def test_factored_dataset_gives_the_same_bits(
        self, family, n, dim, seed, reg_coeff, cap_over_floor, tilt_scale, reg_strength
    ):
        gen = np.random.default_rng(seed)
        ds = random_dataset(gen, n, dim)
        if family == "logistic":
            ds = Dataset(features=ds.features, labels=np.where(ds.labels >= 0.0, 1.0, -1.0))
        spec = make_loss(family, radius=1.0, dim=dim)
        clean = factor_dataset(ds, spec)
        reg_cap = cap_over_floor * ridge_floor(spec.constants.smoothness, BUDGET.epsilon)
        tilt = gen.standard_normal(dim) * tilt_scale
        models = []
        for data in (ds, clean):
            models.append((
                learn_non_private(data, spec, reg_coeff),
                learn_objective_perturbed(
                    data, spec, BUDGET, RngStream(seed), reg_cap, noise_override=tilt
                ),
                learn_objective_perturbed(data, spec, BUDGET, RngStream(seed), reg_cap),
                learn_output_perturbed(data, spec, 0.7, RngStream(seed), reg_strength),
            ))
        for bare, shared in zip(*models):
            assert np.array_equal(shared.w, bare.w)
            assert empirical_objective(clean.stats, spec, bare, reg_coeff) == empirical_objective(
                ds, spec, bare, reg_coeff
            )

    def test_refuses_a_dataset_factored_for_another_loss(self):
        ds = random_dataset(np.random.default_rng(3), 10, 2)
        clean = factor_dataset(ds, linear_regression_loss(dim=2, radius=1.0))
        with pytest.raises(ValueError, match="encoded for the linear_regression loss"):
            learn_non_private(clean, linear_regression_loss(dim=2, radius=2.0))

    def test_programs_share_the_gram_and_its_decomposition(self):
        gram = Gram(np.array([[2.0, 0.5], [0.5, 1.0]]))
        one = QuadraticProgram(A=gram, b_lin=np.ones(2), reg=0.0, radius=1.0)
        two = QuadraticProgram(A=gram, b_lin=np.zeros(2), reg=3.0, radius=2.0)
        assert one.gram is gram and two.gram is gram
        assert one.A is gram.A
        fresh = QuadraticProgram(A=gram.A, b_lin=np.ones(2), reg=0.0, radius=1.0)
        assert np.array_equal(fresh.gram.eigenvalues, gram.eigenvalues)
        assert np.array_equal(minimize_ball_constrained(fresh).w, minimize_ball_constrained(one).w)

    def test_refuses_a_non_symmetric_or_indefinite_matrix(self):
        for make in (Gram, lambda a: QuadraticProgram(A=a, b_lin=np.zeros(2), reg=0.0, radius=1.0)):
            with pytest.raises(ValueError, match=r"^A is not symmetric \(max asymmetry 3\.000e-01\)$"):
                make(np.array([[1.0, 0.5], [0.2, 1.0]]))
            with pytest.raises(
                ValueError, match=r"^A is not positive semidefinite \(min eigenvalue -1\.000e\+00\)$"
            ):
                make(np.diag([-1.0, 2.0]))


class TestModelArtifacts:
    def test_round_trip(self, tmp_path):
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 64, spec.constants)
        model = ModelVector(w=np.array([0.25, -0.5, 1.0 / 3.0]), radius=1.0)
        path = tmp_path / "model.json"
        save_model(path, model, mechanism="input", calibration=cal)
        loaded, payload = load_model(path)
        assert np.array_equal(loaded.w, model.w)
        assert loaded.radius == model.radius
        assert payload["mechanism"] == "input"
        assert "seed" not in payload
        assert payload["calibration"]["n"] == 64

    def test_round_trip_without_calibration(self, tmp_path):
        model = ModelVector(w=np.zeros(2), radius=1.0)
        path = tmp_path / "model.json"
        save_model(path, model, mechanism="non_private")
        _, payload = load_model(path)
        assert payload["calibration"] is None

    def test_load_validation(self, tmp_path):
        import json

        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"dim": 2, "w": [0.0, 0.0], "radius": 1.0}))
        with pytest.raises(ValueError, match="mechanism"):
            load_model(missing)
        ragged = tmp_path / "ragged.json"
        ragged.write_text(
            json.dumps({"dim": 3, "w": [0.0, 0.0], "radius": 1.0, "mechanism": "input"})
        )
        with pytest.raises(ValueError, match="does not match dim"):
            load_model(ragged)
