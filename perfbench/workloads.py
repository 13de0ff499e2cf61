"""The benchmark's workloads: inputs made from a seed, one job, output checks.

Every workload drives the library only through ``run_experiment``,
``cli.main`` and ``run_check_suite``, looked up on their module at call
time so that the tracer's wrappers are seen.  A job is one closed-loop
operation from a single client (``workers = 1``); ``output()`` returns
the bytes that every repeat of the job must reproduce exactly, and
``check()`` lists what is wrong with them, judged without the golden
files under ``tests/data`` (those pin the compiled kernel's digits).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

# flagship: the paper's headline comparison at a desk-scale trial count.
FLAGSHIP_N_GRID = (2**7, 2**9, 2**11, 2**13, 2**15)
FLAGSHIP_TRIALS = 1
FLAGSHIP_MECHANISMS = ("non_private", "input", "objective")

# csv_ill: 640 rows keep a 128-row held-out split and 512 training rows;
# small n keeps the per-contributor release cheap, so PGD leads.
CSV_ILL_ROWS = 640
CSV_ILL_DIM = 32
CSV_ILL_FACTORS = 4
CSV_ILL_N_GRID = (128, 512)
CSV_ILL_TRIALS = 12
CSV_ILL_MECHANISMS = ("non_private", "input", "objective", "output")
# Tolerance on the recomputed KKT residual of the non-private model.
KKT_TOL = 1e-9

RELEASE_ROWS = 2**13
RELEASE_DIM = 32
RELEASE_BUDGET = ("--epsilon", "0.8", "--delta", "0.01")


def write_csv(path, header, table: np.ndarray) -> None:
    """Write a numeric table with shortest round-trip floats."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def ill_conditioned_table(seed: int) -> np.ndarray:
    """Correlated, ill-conditioned features and a near-linear target.

    The features are U diag(s) V' with U and V random orthonormal: four
    strong latent directions (s = 3) and 28 weaker ones falling
    geometrically from 1 to 0.15, so every column mixes all of them and
    the condition number is about 400 whatever the seed.  The target is
    the response to a model with equal weight on every direction, plus 1%
    noise.  One record has the average features and an extreme target:
    it sets ``load_csv``'s label scale, so the fitted model lies strictly
    inside the model ball, yet adds no gradient.  Inside the ball
    fixed-step PGD needs thousands of iterations per solve, set by the
    conditioning, so the work hardly depends on the seed.
    """
    gen = np.random.default_rng(seed)
    scores = gen.standard_normal((CSV_ILL_ROWS, CSV_ILL_DIM))
    u = np.linalg.qr(scores - scores.mean(axis=0))[0] * math.sqrt(CSV_ILL_ROWS)
    v = np.linalg.qr(gen.standard_normal((CSV_ILL_DIM, CSV_ILL_DIM)))[0]
    scales = np.concatenate([
        np.full(CSV_ILL_FACTORS, 3.0), np.geomspace(1.0, 0.15, CSV_ILL_DIM - CSV_ILL_FACTORS)
    ])
    features = (u * scales) @ v.T
    response = features @ (v @ gen.choice([-1.0, 1.0], CSV_ILL_DIM)) / math.sqrt(CSV_ILL_DIM)
    target = response + 0.01 * response.std() * gen.standard_normal(CSV_ILL_ROWS)
    features[0] = features[1:].mean(axis=0)
    target[0] = target[1:].mean() + 10.0 * np.abs(target - target.mean()).max()
    return np.column_stack([features, target])


def raw_table(seed: int) -> np.ndarray:
    """Contributor records for the release round trip: features on mixed
    scales and a noisy linear target."""
    gen = np.random.default_rng(seed)
    scales = np.exp(gen.uniform(-1.0, 1.0, size=RELEASE_DIM))
    features = gen.standard_normal((RELEASE_ROWS, RELEASE_DIM)) * scales
    target = features @ gen.standard_normal(RELEASE_DIM) + gen.standard_normal(RELEASE_ROWS)
    return np.column_stack([features, target])


def _header(dim: int) -> list[str]:
    return [f"x{j}" for j in range(dim)] + ["y"]


def _report_problems(text: str, n_grid, trials: int, mechanisms) -> list[str]:
    """Every cell present (input cells only where calibration is
    feasible), finite, and with non-negative excess risk."""
    problems = []
    report = json.loads(text)
    cells = report["cells"]
    seen = {(c["mechanism"], c["n"]) for c in cells}
    for mechanism in mechanisms:
        for n in n_grid:
            infeasible = report["calibrations"].get(str(n), {}).get("infeasible", False)
            if (mechanism, n) not in seen and not (mechanism == "input" and infeasible):
                problems.append(f"cell {mechanism} n={n} missing")
    for c in cells:
        where = f"cell {c['mechanism']} n={c['n']}"
        values = (c["excess_risk_mean"], c["excess_risk_sd"], c["metric_mean"], c["metric_sd"])
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value")
        if c["excess_risk_mean"] < 0.0:
            problems.append(f"{where}: negative excess risk {c['excess_risk_mean']!r}")
        if c["trials"] != trials:
            problems.append(f"{where}: {c['trials']} trials, expected {trials}")
    return problems


class Experiment:
    """A ``run_experiment`` call; its work is (n, trial) cells."""

    def __init__(self, dp, config):
        self.dp = dp
        self.config = config
        self.report = None
        self.cells = len(config.n_grid) * config.trials
        self.train_rows = sum(config.n_grid) * config.trials

    def job(self) -> dict:
        self.report = self.dp.harness.run_experiment(self.config, workers=1)
        return {}

    def output(self) -> bytes:
        text = self.dp.harness.report_json_text(self.report)
        if self.config.csv_path:
            text = text.replace(json.dumps(self.config.csv_path), '"<csv_path>"')
        return text.encode()

    def check(self, output: bytes, first: bool) -> list[str]:
        c = self.config
        return _report_problems(output.decode(), c.n_grid, c.trials, c.mechanisms)

    def summary(self, walls: list[float], phases: dict) -> list[tuple[str, float, str, int]]:
        return [("cells_per_s", self.cells / statistics.median(walls), "cells/s", len(walls))]


class Flagship(Experiment):
    name = "flagship"

    def __init__(self, dp, seed: int, workdir: str):
        super().__init__(
            dp,
            dp.ExperimentConfig(
                task="linear_regression",
                mechanisms=FLAGSHIP_MECHANISMS,
                n_grid=FLAGSHIP_N_GRID,
                trials=FLAGSHIP_TRIALS,
                epsilon=1.0,
                delta=0.01,
                dim=14,
                seed=seed,
            ),
        )


class CsvIll(Experiment):
    name = "csv_ill"

    def __init__(self, dp, seed: int, workdir: str):
        path = os.path.join(workdir, "ill.csv")
        write_csv(path, _header(CSV_ILL_DIM), ill_conditioned_table(seed))
        super().__init__(
            dp,
            dp.ExperimentConfig(
                data="csv",
                csv_path=path,
                target_column="y",
                mechanisms=CSV_ILL_MECHANISMS,
                n_grid=CSV_ILL_N_GRID,
                trials=CSV_ILL_TRIALS,
                epsilon=1.0,
                delta=0.01,
                seed=seed,
            ),
        )

    def check(self, output: bytes, first: bool) -> list[str]:
        problems = super().check(output, first)
        if first:
            problems += self._kkt_problems()
        return problems

    def _kkt_problems(self) -> list[str]:
        """Recompute, in NumPy, the KKT residual of the non-private model
        on the loaded pool: ball-constrained least squares has gradient
        g = Aw + b with g = 0 inside the ball and g = -mu w, mu >= 0, on
        its boundary."""
        dp = self.dp
        pool, _ = dp.load_csv(self.config.csv_path, "y")
        spec = dp.make_loss("linear_regression", self.config.radius, pool.dim)
        w = dp.learn_non_private(pool, spec).w
        x, y = pool.features, pool.labels
        grad = x.T @ (x @ w) / len(y) - x.T @ y / len(y)
        radius = self.config.radius
        norm2 = float(w @ w)
        mu = 0.0
        if norm2 >= (radius * (1.0 - 1e-9)) ** 2:
            mu = max(0.0, -float(grad @ w) / norm2)
        residual = float(np.linalg.norm(grad + mu * w))
        if not residual <= KKT_TOL:
            return [f"non-private model KKT residual {residual:.3e} > {KKT_TOL:.0e}"]
        return []


class ReleaseRoundtrip:
    """``inputdp perturb`` on a raw CSV (contributor side), then
    ``inputdp learn`` on the released file (server side)."""

    name = "release_roundtrip"
    cells = 0
    train_rows = RELEASE_ROWS

    def __init__(self, dp, seed: int, workdir: str):
        self.dp = dp
        self.raw = os.path.join(workdir, "raw.csv")
        self.released = os.path.join(workdir, "released.csv")
        self.model = os.path.join(workdir, "model.json")
        write_csv(self.raw, _header(RELEASE_DIM), raw_table(seed))
        self.perturb_argv = ["perturb", *RELEASE_BUDGET, "--in", self.raw, "--target", "y",
                             "--seed", str(seed), "--out", self.released]
        self.learn_argv = ["learn", *RELEASE_BUDGET, "--in", self.released, "--out", self.model]
        self.codes = ()

    def job(self) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            perturb_code = self.dp.cli.main(self.perturb_argv)
            t1 = time.perf_counter()
            learn_code = self.dp.cli.main(self.learn_argv)
            t2 = time.perf_counter()
        self.codes = (perturb_code, learn_code)
        return {"perturb_s": t1 - t0, "learn_s": t2 - t1}

    def output(self) -> bytes:
        with open(self.released, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(self.model, "rb") as fh:
            return f"{self.codes} {digest}\n".encode() + fh.read()

    def check(self, output: bytes, first: bool) -> list[str]:
        problems = []
        if self.codes != (0, 0):
            problems.append(f"exit codes {self.codes}, expected (0, 0)")
        with open(self.model) as fh:
            model = json.load(fh)
        norm = math.sqrt(sum(v * v for v in model["w"]))
        if not norm <= model["radius"]:
            problems.append(f"model norm {norm!r} exceeds radius {model['radius']!r}")
        if first:
            problems += self._released_problems()
        return problems

    def _released_problems(self) -> list[str]:
        fields = 2 * RELEASE_DIM + 1
        with open(self.released) as fh:
            lines = fh.read().splitlines()
        if len(lines) != RELEASE_ROWS + 1:
            return [f"released CSV has {len(lines) - 1} rows, expected {RELEASE_ROWS}"]
        for line_no, line in enumerate(lines[1:], start=2):
            values = line.split(",")
            if len(values) != fields or not all(math.isfinite(float(v)) for v in values):
                return [f"released CSV line {line_no}: not {fields} finite fields"]
        return []

    def summary(self, walls: list[float], phases: dict) -> list[tuple[str, float, str, int]]:
        return [
            ("release_rows_per_s", RELEASE_ROWS / statistics.median(phases["perturb_s"]), "rows/s",
             len(phases["perturb_s"])),
            ("learn_s", statistics.median(phases["learn_s"]), "s", len(phases["learn_s"])),
        ]


class Verify:
    """One ``run_check_suite`` battery at the workload seed."""

    name = "verify"
    cells = 0
    train_rows = 0

    def __init__(self, dp, seed: int, workdir: str):
        self.dp = dp
        self.seed = seed
        self.checks = None

    def job(self) -> dict:
        self.checks = self.dp.analysis.run_check_suite(seed=self.seed)
        return {}

    def output(self) -> bytes:
        return json.dumps(self.checks, sort_keys=True).encode()

    def check(self, output: bytes, first: bool) -> list[str]:
        return [f"check {c['check']} failed" for c in self.checks if not c["pass"]]

    def summary(self, walls: list[float], phases: dict) -> list[tuple[str, float, str, int]]:
        return [("verify_s", statistics.median(walls), "s", len(walls))]


WORKLOADS = {w.name: w for w in (Flagship, CsvIll, ReleaseRoundtrip, Verify)}

