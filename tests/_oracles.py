"""Independent oracle routes shared by the test modules.

Everything here is computed without the library's solver or sampling
code paths, so agreement between a library result and an oracle value is
evidence, not circularity:

* ``trust_region_solve`` — exact ball-constrained quadratic minimizer via
  eigendecomposition and bisection on the KKT multiplier.
* ``exact_ball_loop`` — the same characterization transcribed into
  plain-Python loops, with its eigendecomposition by Jacobi rotations,
  so it shares no linear algebra with NumPy.
* ``grid_minimum`` — a tabulated minimum over explicit candidate points
  (coarse global sweep + fine local grid + sphere projections).
* ``gaussian_delta_closed_form`` — the optimal-threshold privacy deficit
  of the 1-D Gaussian mechanism in closed form.
* ``threshold_deficit`` / ``grid_scan_deficit`` — the same mechanism's
  deficit on explicit threshold events, and its maximum over a grid of
  thresholds (a lower bound on the supremum).
* ``chi_square_tails`` — both tails of the chi-square law, from SciPy's
  incomplete gamma functions.
* ``draw_noise_ridge_samples`` — noise-ridge draws from n-vectors of
  plain normals, for comparison with the library's exact-law sampler.
* ``box_muller_normals`` — the contributor-stream transform from raw
  words to normals, written with ``math`` on Python ints and floats.
* ``quadratic_objective`` — the plain objective both routes share.
* ``read_csv_reference`` — a numeric CSV read with ``csv.reader`` and
  ``float`` alone, with the library reader's messages.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import chdtr, chdtrc, ndtr


def quadratic_objective(A: np.ndarray, b: np.ndarray, reg: float, w: np.ndarray) -> float:
    """0.5 w'(A + reg I)w + b'w, the solver objective."""
    return float(0.5 * w @ (A @ w) + b @ w + 0.5 * reg * (w @ w))


def trust_region_solve(
    A: np.ndarray, b: np.ndarray, reg: float, radius: float
) -> np.ndarray:
    """Exact argmin of the quadratic objective over the ``radius`` ball.

    Standard trust-region characterization: either the unconstrained
    stationary point lies inside the ball, or the minimizer sits on the
    sphere at w(nu) = -(H + nu I)^{-1} b for the unique nu >= 0 with
    ||w(nu)|| = radius.  H is PSD in all uses here, so ||w(nu)|| is
    strictly decreasing in nu > 0 and plain bisection suffices.
    """
    H = A + reg * np.eye(len(b))
    evals, vecs = np.linalg.eigh(H)
    beta = vecs.T @ b

    w_inner = -np.linalg.pinv(H) @ b
    if (
        float(np.linalg.norm(w_inner)) <= radius
        and np.allclose(H @ w_inner, -b, atol=1e-10)
    ):
        return w_inner

    def norm_at(nu: float) -> float:
        return math.sqrt(float(np.sum((beta / (evals + nu)) ** 2)))

    lo = max(0.0, -float(evals.min())) + 1e-300
    hi = lo + 1.0
    while norm_at(hi) > radius:
        hi = lo + (hi - lo) * 4.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
    return vecs @ (-beta / (evals + 0.5 * (lo + hi)))


def _jacobi_eigh(hess: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues and eigenvector columns of a symmetric matrix by cyclic
    Jacobi rotations (Golub & Van Loan, Algorithm 8.5.3), in plain
    Python: sweeps continue until the off-diagonal mass stops shrinking
    or falls to roundoff of the whole matrix."""
    d = len(hess)
    a = [list(map(float, row)) for row in hess]
    v = [[float(i == j) for j in range(d)] for i in range(d)]
    total = math.fsum(x * x for row in a for x in row)
    last_off = math.inf
    for _ in range(100):
        off = math.fsum(a[i][j] ** 2 for i in range(d) for j in range(d) if i != j)
        if off <= (1e-17) ** 2 * total or off >= last_off:
            break
        last_off = off
        for p in range(d - 1):
            for q in range(p + 1, d):
                if a[p][q] == 0.0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                root = math.sqrt(1.0 + tau * tau)
                t = 1.0 / (tau + root) if tau >= 0.0 else -1.0 / (-tau + root)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):  # A <- A J
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(d):  # A <- J' A
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(d):  # V <- V J
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    return [a[i][i] for i in range(d)], v


def exact_ball_loop(
    hess: np.ndarray, lin: np.ndarray, radius: float
) -> tuple[np.ndarray, float]:
    """Minimizer and KKT multiplier of (1/2) w'Hw + lin.w over the
    ``radius`` ball for positive definite H, as a plain-Python loop
    transcription of the trust-region characterization: Jacobi
    eigendecomposition, g = V'lin, then either the stationary point
    (inside the ball, multiplier 0) or bisection to the last bit on
    ||g / (lam + nu)|| = radius.  No NumPy arithmetic is used."""
    d = len(lin)
    lam, v = _jacobi_eigh([[float(hess[i][j]) for j in range(d)] for i in range(d)])
    g = [math.fsum(v[k][i] * float(lin[k]) for k in range(d)) for i in range(d)]

    def norm_at(nu: float) -> float:
        return math.sqrt(math.fsum((g[i] / (lam[i] + nu)) ** 2 for i in range(d)))

    nu = 0.0
    if norm_at(0.0) > radius:
        lo, hi = 0.0, 1.0
        while norm_at(hi) > radius:
            lo, hi = hi, 2.0 * hi
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if norm_at(mid) > radius:
                lo = mid
            else:
                hi = mid
        nu = hi if abs(norm_at(hi) - radius) <= abs(norm_at(lo) - radius) else lo
    p = [-g[i] / (lam[i] + nu) for i in range(d)]
    w = [math.fsum(v[k][i] * p[i] for i in range(d)) for k in range(d)]
    return np.array(w), nu


def grid_minimum(
    A: np.ndarray,
    b: np.ndarray,
    reg: float,
    radius: float,
    center: np.ndarray,
    step: float = 1e-3,
    span: int = 5,
    coarse: int = 21,
) -> float:
    """Minimum objective over an explicit table of feasible points.

    Candidates: a ``coarse``-per-axis global sweep of the bounding box
    (points outside the ball projected onto the sphere), plus a
    ``step``-spaced local grid of half-width ``span * step`` around
    ``center``, plus the sphere projections of every local grid point.
    Projecting the local points makes the boundary-case objective gap
    second order in ``step``, so the table certifies a 1e-3 tolerance
    with orders of magnitude to spare.
    """
    d = len(b)
    H = A + reg * np.eye(d)

    offsets = np.arange(-span, span + 1) * step
    mesh = np.meshgrid(*([offsets] * d), indexing="ij")
    local = center + np.stack([m.ravel() for m in mesh], axis=1)

    norms = np.linalg.norm(local, axis=1)
    candidates = [local[norms <= radius]]
    nonzero = local[norms > 0]
    candidates.append(
        nonzero * (radius / np.linalg.norm(nonzero, axis=1))[:, None]
    )

    axis = np.linspace(-radius, radius, coarse)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    sweep = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.linalg.norm(sweep, axis=1)
    outside = norms > radius
    sweep[outside] *= (radius / norms[outside])[:, None]
    candidates.append(sweep)

    points = np.concatenate([c for c in candidates if len(c)], axis=0)
    values = 0.5 * np.einsum("ij,jk,ik->i", points, H, points) + points @ b
    return float(values.min())


def random_ball_instance(gen: np.random.Generator, index: int):
    """One pinned instance of the solver-vs-grid family (d <= 3).

    Eigenvalues log-uniform in [0.05, 5], an orthogonal basis from QR,
    reg uniform in [0, 0.3], ||b|| clipped to 2, radius uniform in
    [0.5, 1.5]; dimension cycles 1, 2, 3.
    """
    d = 1 + (index % 3)
    eigenvalues = np.exp(gen.uniform(math.log(0.05), math.log(5.0), size=d))
    basis = np.linalg.qr(gen.standard_normal((d, d)))[0]
    A = basis @ np.diag(eigenvalues) @ basis.T
    A = 0.5 * (A + A.T)
    reg = float(gen.uniform(0.0, 0.3))
    b = gen.standard_normal(d)
    norm_b = float(np.linalg.norm(b))
    if norm_b > 2.0:
        b *= 2.0 / norm_b
    radius = float(gen.uniform(0.5, 1.5))
    return A, b, reg, radius


def gaussian_delta_closed_form(sigma: float, epsilon: float, diameter: float) -> float:
    """Exact privacy deficit of the 1-D Gaussian mechanism.

    For worst-case neighbors ``diameter`` apart the deficit
    sup_S [P(M(x) in S) - e^eps P(M(x') in S)] is attained on a
    half-line and equals
    Phi-bar(sigma eps / B - B / (2 sigma)) - e^eps Phi-bar(sigma eps / B + B / (2 sigma)).
    """
    ratio = sigma * epsilon / diameter
    half = diameter / (2.0 * sigma)
    upper_tail = 1.0 - ndtr(ratio - half)
    shifted_tail = 1.0 - ndtr(ratio + half)
    return float(upper_tail - math.exp(epsilon) * shifted_tail)


def threshold_deficit(
    diameter: float, sigma: float, epsilon: float, taus: np.ndarray
) -> np.ndarray:
    """Largest deficit at each threshold tau over the four threshold events.

    For the releases x + sigma Z of x = 0 and x = diameter, evaluates
    P[release(x) in E] - e^eps P[release(x') in E] for E the upper and
    the lower tail at tau, in both input orders, and keeps the largest.
    """
    taus = np.asarray(taus, dtype=np.float64)
    amp = math.exp(epsilon)
    upper_d, upper_0 = ndtr((diameter - taus) / sigma), ndtr(-taus / sigma)
    lower_0, lower_d = ndtr(taus / sigma), ndtr((taus - diameter) / sigma)
    return np.max(
        [
            upper_d - amp * upper_0,
            upper_0 - amp * upper_d,
            lower_0 - amp * lower_d,
            lower_d - amp * lower_0,
        ],
        axis=0,
    )


def grid_scan_deficit(
    diameter: float, sigma: float, epsilon: float, grid_size: int = 10_000
) -> float:
    """Largest threshold deficit over grid_size thresholds spread evenly
    on [-10 sigma, diameter + 10 sigma]."""
    taus = np.linspace(-10.0 * sigma, diameter + 10.0 * sigma, grid_size)
    return float(np.max(threshold_deficit(diameter, sigma, epsilon, taus)))


def chi_square_tails(dof: int, x: float) -> tuple[float, float]:
    """P(Z <= x) and P(Z > x) for chi-square Z with ``dof`` degrees of freedom."""
    return float(chdtr(dof, x)), float(chdtrc(dof, x))


def draw_noise_ridge_samples(
    quad_stats: np.ndarray,
    noise_sd: float,
    w: np.ndarray,
    trials: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Independent draws of w'(U'U + U'Q + Q'U)w for unit w.

    Uses the identity that only U @ w (an n-vector with iid
    N(0, noise_sd^2 / n) coordinates) enters the quadratic form, so the
    full n x d noise matrix never needs materializing.
    """
    n = quad_stats.shape[0]
    clean = quad_stats @ w
    scale = noise_sd / math.sqrt(n)
    out = np.empty(trials)
    for i in range(trials):
        noise = gen.standard_normal(n) * scale
        out[i] = noise @ noise + 2.0 * clean @ noise
    return out


def box_muller_normals(words: list[int], k: int) -> list[float]:
    """The first k normals Box-Muller makes of raw 64-bit ``words``.

    Word pair (2j, 2j+1) gives r (cos t, sin t) with
    u1 = (floor(w1 / 2^11) + 1) / 2^53, u2 = floor(w2 / 2^11) / 2^53,
    r = sqrt(-2 ln u1) and t = 2 pi u2; the two normals follow in order.
    """
    out: list[float] = []
    for j in range(0, 2 * ((k + 1) // 2), 2):
        u1 = ((int(words[j]) >> 11) + 1) / 2.0**53
        u2 = (int(words[j + 1]) >> 11) / 2.0**53
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:k]


def read_csv_reference(path) -> tuple[list[str], np.ndarray]:
    """The header and float64 rows of a numeric CSV file, parsed field by
    field with ``float``.

    Refuses, in file order, a row whose field count differs from the
    header's or with a field ``float`` refuses; then a file with no data
    row; then the first row holding a NaN or an infinity.  The messages
    are the library reader's.
    """
    with open(path, newline="") as fh:
        records = csv.reader(fh)
        header = next(records, [])
        rows: list[list[float]] = []
        for line_no, record in enumerate(records, start=2):
            if len(record) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(record)}"
                )
            try:
                rows.append([float(field) for field in record])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: non-numeric value ({exc})") from None
    if not rows or not header:
        raise ValueError(f"{path}: need a header row and at least one data row")
    for line_no, row in enumerate(rows, start=2):
        if not all(math.isfinite(value) for value in row):
            raise ValueError(f"{path}:{line_no}: non-finite value")
    return header, np.array(rows, dtype=np.float64)
