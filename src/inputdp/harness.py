"""Desk-scale experiment harness: data, splits, mechanisms, reports.

An experiment is fully described by an :class:`ExperimentConfig` (data
source, loss family, budget, mechanism list, sample-size grid, trial
count, seed).  For every (n, trial) cell the harness draws a fresh
train/test split from a fixed data pool, trains each requested mechanism
on the same n training examples, and records training-objective excess
risk plus a held-out metric (RMSE or accuracy).  All randomness flows
through addressable substreams of the experiment seed, so reports are
byte-identical across repeat runs and across worker counts.

Mechanism noise is *paired* within a cell where possible: the objective
baseline's tilt vector is the sum of the input mechanism's own
per-contributor linear draws, which already has the tilt's exact
N(0, linear_noise_variance(budget, L) I) law.  Paired
draws make small mechanism differences measurable at desk-scale trial
counts without biasing any per-mechanism mean (common random numbers).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import (
    CalibrationInfeasibleError,
    NoiseCalibration,
    calibrate,
    local_dp_level,
)
from .core import Dataset, PrivacyBudget, _read_csv_table
from .loss import LOSS_FAMILIES, LossSpec, empirical_objective, make_loss, predict
from .perturb import RngStream, perturb_dataset
from .solver import (
    learn_input_perturbed,
    learn_non_private,
    learn_objective_perturbed,
    learn_output_perturbed,
)

#: Canonical mechanism evaluation/report order.
MECHANISMS = ("non_private", "input", "objective", "output")

_MECHANISM_INDEX = {name: i for i, name in enumerate(MECHANISMS)}

# Stream-path prefixes under the experiment seed.
_STREAM_POOL = 0
_STREAM_SPLIT = 1
_STREAM_MECHANISM = 2


def _is_integer(value) -> bool:
    """An int or NumPy integer; a float (even 100.0) or a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that identifies an experiment (and nothing about how
    it is executed — worker count is a run_experiment argument so that
    parallelism cannot leak into reports)."""

    task: str = "linear_regression"
    mechanisms: tuple[str, ...] = MECHANISMS
    n_grid: tuple[int, ...] = (128, 512, 2048)
    trials: int = 20
    epsilon: float = 1.0
    delta: float = 0.01
    radius: float = 1.0
    reg_cap: float | None = None
    output_reg: float = 1e-3
    seed: int = 0
    data: str = "synthetic"
    dim: int = 14
    noise_sd: float = 0.1
    pool_size: int | None = None
    test_fraction: float = 0.2
    csv_path: str | None = None
    target_column: str | None = None
    label_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.task not in LOSS_FAMILIES:
            raise ValueError(f"unknown task {self.task!r}; available: {sorted(LOSS_FAMILIES)}")
        mechanisms = tuple(self.mechanisms)
        unknown = [m for m in mechanisms if m not in MECHANISMS]
        if unknown:
            raise ValueError(f"unknown mechanisms {unknown}; available: {MECHANISMS}")
        if len(set(mechanisms)) != len(mechanisms):
            raise ValueError(f"duplicate mechanisms in {mechanisms}")
        object.__setattr__(self, "mechanisms", mechanisms)
        for name in ("trials", "dim", "seed", "pool_size"):
            value = getattr(self, name)
            if not (_is_integer(value) or (name == "pool_size" and value is None)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        not_integers = [n for n in self.n_grid if not _is_integer(n)]
        if not_integers:
            raise ValueError(f"n_grid entries must be integers, got {not_integers}")
        n_grid = tuple(int(n) for n in self.n_grid)
        if not n_grid or any(n < 1 for n in n_grid):
            raise ValueError(f"n_grid must be non-empty positive ints, got {n_grid}")
        if list(n_grid) != sorted(set(n_grid)):
            raise ValueError(f"n_grid must be strictly increasing, got {n_grid}")
        object.__setattr__(self, "n_grid", n_grid)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.pool_size is not None and self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius!r}")
        if self.output_reg <= 0:
            raise ValueError(f"output_reg must be > 0, got {self.output_reg!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.data not in ("synthetic", "csv"):
            raise ValueError(f"data must be 'synthetic' or 'csv', got {self.data!r}")
        if self.data == "csv" and (not self.csv_path or not self.target_column):
            raise ValueError("csv data source requires csv_path and target_column")
        if self.data == "synthetic":
            if self.dim < 1:
                raise ValueError(f"dim must be >= 1, got {self.dim}")
            if self.noise_sd < 0:
                raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd!r}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")
        # epsilon/delta ranges are enforced by PrivacyBudget.
        PrivacyBudget(epsilon=self.epsilon, delta=self.delta)

    @property
    def budget(self) -> PrivacyBudget:
        return PrivacyBudget(epsilon=self.epsilon, delta=self.delta)

    @property
    def metric_name(self) -> str:
        return "rmse" if self.task == "linear_regression" else "accuracy"

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["mechanisms"] = list(self.mechanisms)
        payload["n_grid"] = list(self.n_grid)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        coerced = dict(payload)
        for name in sorted(set(coerced) & {"mechanisms", "n_grid"}):
            if isinstance(coerced[name], str):
                raise ValueError(f"{name} must be a list, got the string {coerced[name]!r}")
            coerced[name] = tuple(coerced[name])
        return cls(**coerced)


@dataclass(frozen=True)
class CellSummary:
    """Aggregate of one (mechanism, n) cell across trials."""

    mechanism: str
    n: int
    trials: int
    excess_risk_mean: float
    excess_risk_sd: float
    metric_mean: float
    metric_sd: float


@dataclass(frozen=True)
class ExperimentReport:
    """Deterministic, serializable outcome of one experiment."""

    config: dict
    metric_name: str
    cells: tuple[CellSummary, ...]
    calibrations: dict
    local_privacy: dict
    scale_info: dict | None

    def cell(self, mechanism: str, n: int) -> CellSummary:
        for c in self.cells:
            if c.mechanism == mechanism and c.n == n:
                return c
        raise KeyError(f"no cell for mechanism={mechanism!r}, n={n}")


def generate_synthetic(
    n: int,
    dim: int,
    noise_sd: float,
    rng: RngStream,
    task: str = "linear_regression",
    radius: float = 1.0,
) -> Dataset:
    """Bounded-domain synthetic data from a hidden linear model.

    The hidden model is uniform on the sphere of radius radius/2;
    features are a uniform direction scaled by a radius uniform on
    [0, 1]; regression labels are the linear response plus Gaussian
    noise, clipped to [-1, 1]; classification labels are the sign of
    the noisy response (ties to +1).  Draw order: hidden model, feature
    directions, feature radii, label noise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if task not in LOSS_FAMILIES:
        raise ValueError(f"unknown task {task!r}; available: {sorted(LOSS_FAMILIES)}")
    gen = rng.generator()
    hidden = gen.standard_normal(dim)
    hidden *= (radius / 2.0) / float(np.linalg.norm(hidden))
    directions = gen.standard_normal((n, dim))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = gen.uniform(0.0, 1.0, size=n)
    features = directions / norms[:, None] * radii[:, None]
    response = features @ hidden + noise_sd * gen.standard_normal(n)
    if task == "linear_regression":
        labels = np.clip(response, -1.0, 1.0)
    else:
        labels = np.where(response >= 0.0, 1.0, -1.0)
    return Dataset(features=features, labels=labels)


def load_csv(
    path,
    target_column: str,
    scale: bool = True,
    label_threshold: float | None = None,
) -> tuple[Dataset, dict]:
    """Load a numeric CSV as a dataset, rescaled onto the bounded domain.

    All columns except ``target_column`` become features.  With
    ``scale``, features are centered and divided by the maximum row
    norm, and labels are centered and divided by their maximum absolute
    value (so the result passes domain validation).  With
    ``label_threshold``, the *raw* target is instead mapped to -1/+1 by
    the threshold (> threshold means +1) and no label scaling applies.
    Returns the dataset and the applied scaling parameters.
    """
    header, raw = _read_csv_table(path)
    if target_column not in header:
        raise ValueError(f"{path}: no column named {target_column!r} in {header}")
    target_idx = header.index(target_column)
    feature_names = [name for i, name in enumerate(header) if i != target_idx]
    if not feature_names:
        raise ValueError(f"{path}: no feature columns besides the target")
    features = np.delete(raw, target_idx, axis=1)
    target = raw[:, target_idx]

    info: dict = {"feature_names": feature_names, "target_column": target_column}
    if scale:
        center = features.mean(axis=0)
        features = features - center
        max_norm = float(np.max(np.linalg.norm(features, axis=1)))
        if max_norm == 0.0:
            max_norm = 1.0
        features = features / max_norm
        info["feature_center"] = center.tolist()
        info["feature_scale"] = max_norm
    if label_threshold is not None:
        labels = np.where(target > label_threshold, 1.0, -1.0)
        info["label_threshold"] = label_threshold
    elif scale:
        label_center = float(target.mean())
        shifted = target - label_center
        label_scale = float(np.max(np.abs(shifted)))
        if label_scale == 0.0:
            label_scale = 1.0
        labels = shifted / label_scale
        info["label_center"] = label_center
        info["label_scale"] = label_scale
    else:
        labels = target
    return Dataset(features=features, labels=labels), info


def clamp_excess_risk(value: float) -> float:
    """An excess risk with roundoff below zero (down to -1e-10) set to 0."""
    if -1e-10 <= value < 0.0:
        return 0.0
    return value


def _evaluate(spec: LossSpec, test: Dataset, w) -> float:
    predictions = predict(spec, test.features, w)
    if spec.name == "linear_regression":
        return float(np.sqrt(np.mean((predictions - test.labels) ** 2)))
    return float(np.mean(predictions == test.labels))


@dataclass(frozen=True)
class _RunContext:
    """Immutable per-run state shipped to workers once."""

    config: ExperimentConfig
    pool: Dataset
    spec: LossSpec
    calibrations: dict[int, NoiseCalibration]


def _run_cell(ctx: _RunContext, n: int, trial: int) -> dict[str, dict[str, float]]:
    """Train and evaluate every requested mechanism on one (n, trial) cell."""
    config = ctx.config
    spec = ctx.spec
    root = RngStream(config.seed)
    pool_n = len(ctx.pool)
    split_gen = root.child(_STREAM_SPLIT, n, trial).generator()
    perm = split_gen.permutation(pool_n)
    test_count = max(1, int(round(config.test_fraction * pool_n)))
    test_set = ctx.pool.subset(perm[:test_count])
    train_set = ctx.pool.subset(perm[test_count : test_count + n])

    baseline = learn_non_private(train_set, spec, reg_coeff=0.0)
    baseline_objective = empirical_objective(train_set, spec, baseline)
    budget = config.budget

    out: dict[str, dict[str, float]] = {}
    input_record = None
    for mechanism in MECHANISMS:
        if mechanism not in config.mechanisms:
            continue
        if mechanism == "input" and n not in ctx.calibrations:
            continue  # marked infeasible at this n; other mechanisms still run
        rng = root.child(_STREAM_MECHANISM, _MECHANISM_INDEX[mechanism], n, trial)
        if mechanism == "non_private":
            model = baseline
        elif mechanism == "input":
            cal = ctx.calibrations[n]
            released, input_record = perturb_dataset(
                train_set, spec, cal, rng, record_noise=True
            )
            model = learn_input_perturbed(released, cal, reg_cap=config.reg_cap)
        elif mechanism == "objective":
            # Paired comparison: the tilt is the input mechanism's own
            # aggregate linear noise (see module docstring).
            override = None if input_record is None else input_record.linear_total
            model = learn_objective_perturbed(
                train_set,
                spec,
                budget,
                rng,
                reg_cap=config.reg_cap,
                noise_override=override,
            )
        else:  # output
            model = learn_output_perturbed(
                train_set, spec, budget.epsilon, rng, reg_strength=config.output_reg
            )
        if model is baseline:
            excess = 0.0
        else:
            objective = empirical_objective(train_set, spec, model)
            excess = clamp_excess_risk(objective - baseline_objective)
        out[mechanism] = {
            "excess_risk": float(excess),
            "metric": _evaluate(spec, test_set, model),
        }
    return out


_WORKER_CTX: _RunContext | None = None


def _worker_init(ctx: _RunContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_cell(args: tuple[int, int]) -> dict[str, dict[str, float]]:
    assert _WORKER_CTX is not None
    return _run_cell(_WORKER_CTX, *args)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Execute the experiment described by ``config``.

    ``workers`` only controls parallel execution of (n, trial) cells;
    results are reduced in task order, so reports are byte-identical for
    any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    root = RngStream(config.seed)
    scale_info: dict | None = None
    if config.data == "synthetic":
        pool_size = config.pool_size
        if pool_size is None:
            pool_size = math.ceil(1.25 * max(config.n_grid))
        pool = generate_synthetic(
            n=pool_size,
            dim=config.dim,
            noise_sd=config.noise_sd,
            rng=root.child(_STREAM_POOL),
            task=config.task,
            radius=config.radius,
        )
    else:
        pool, scale_info = load_csv(
            config.csv_path,
            config.target_column,
            scale=True,
            label_threshold=config.label_threshold,
        )
        if config.pool_size is not None:
            if config.pool_size > len(pool):
                raise ValueError(
                    f"pool_size {config.pool_size} exceeds CSV rows {len(pool)}"
                )
            pool = pool.subset(np.arange(config.pool_size))
    test_count = max(1, int(round(config.test_fraction * len(pool))))
    max_train = len(pool) - test_count
    if max(config.n_grid) > max_train:
        raise ValueError(
            f"largest n in grid ({max(config.n_grid)}) exceeds available training "
            f"examples ({max_train}) after the held-out split; enlarge the pool"
        )

    spec = make_loss(config.task, config.radius, pool.dim)

    calibrations: dict[int, NoiseCalibration] = {}
    infeasible: dict[int, int] = {}
    if "input" in config.mechanisms:
        for n in config.n_grid:
            try:
                calibrations[n] = calibrate(config.budget, n, spec.constants)
            except CalibrationInfeasibleError as exc:
                # The run continues with the input cells at this n marked
                # infeasible in the report instead of trained.
                infeasible[n] = exc.min_n

    ctx = _RunContext(config=config, pool=pool, spec=spec, calibrations=calibrations)
    tasks = [(n, trial) for n in config.n_grid for trial in range(config.trials)]
    if workers == 1:
        results = [_run_cell(ctx, n, trial) for n, trial in tasks]
    else:
        # multiprocessing is slow to import; a one-worker run never needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(ctx,)
        ) as pool_exec:
            chunk = max(1, len(tasks) // (4 * workers))
            results = list(pool_exec.map(_worker_cell, tasks, chunksize=chunk))

    by_cell: dict[tuple[str, int], list[dict[str, float]]] = {}
    for (n, _trial), cell in zip(tasks, results):
        for mechanism, metrics in cell.items():
            by_cell.setdefault((mechanism, n), []).append(metrics)

    cells: list[CellSummary] = []
    for mechanism in MECHANISMS:
        if mechanism not in config.mechanisms:
            continue
        for n in config.n_grid:
            if mechanism == "input" and n in infeasible:
                continue
            entries = by_cell[(mechanism, n)]
            excess = np.array([e["excess_risk"] for e in entries])
            metric = np.array([e["metric"] for e in entries])
            cells.append(
                CellSummary(
                    mechanism=mechanism,
                    n=n,
                    trials=len(entries),
                    excess_risk_mean=float(excess.mean()),
                    excess_risk_sd=float(excess.std(ddof=1)) if len(entries) > 1 else 0.0,
                    metric_mean=float(metric.mean()),
                    metric_sd=float(metric.std(ddof=1)) if len(entries) > 1 else 0.0,
                )
            )

    calibration_echo: dict[str, dict] = {
        str(n): calibrations[n].to_dict() for n in sorted(calibrations)
    }
    for n in sorted(infeasible):
        calibration_echo[str(n)] = {"infeasible": True, "min_feasible_n": infeasible[n]}
    local_privacy = {
        str(n): local_dp_level(calibrations[n], spec.bound_q, spec.bound_p).to_dict()
        for n in sorted(calibrations)
    }
    return ExperimentReport(
        config=config.to_dict(),
        metric_name=config.metric_name,
        cells=tuple(cells),
        calibrations=calibration_echo,
        local_privacy=local_privacy,
        scale_info=scale_info,
    )


def report_json_text(report: ExperimentReport) -> str:
    payload = {
        "config": report.config,
        "metric_name": report.metric_name,
        "cells": [asdict(c) for c in report.cells],
        "calibrations": report.calibrations,
        "local_privacy": report.local_privacy,
        "scale_info": report.scale_info,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_csv_text(report: ExperimentReport) -> str:
    """Long-format table: one row per (cell, measured quantity).

    Floats are rendered with ``repr`` (shortest round-trip form), so the
    CSV carries exactly the numbers the JSON report carries.
    """
    lines = ["mechanism,n,metric,mean,sd,trials"]
    for c in report.cells:
        for metric, mean, sd in (
            ("excess_risk", c.excess_risk_mean, c.excess_risk_sd),
            (report.metric_name, c.metric_mean, c.metric_sd),
        ):
            lines.append(
                f"{c.mechanism},{c.n},{metric},{mean!r},{sd!r},{c.trials}"
            )
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, path, fmt: str = "json") -> str:
    """Serialize the report ('json' or 'csv'); write to ``path`` unless None."""
    if fmt == "json":
        text = report_json_text(report)
    elif fmt == "csv":
        text = report_csv_text(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
