"""Quadratic losses factored into per-example sufficient statistics.

Each supported per-example loss has the form

    l(w) = (1/2) (q . w)^2 - p . w + s

for statistics (q, p, s) computed from the example alone.  Training only
ever touches the data through averages of q q', p, and s, which is what
makes contributor-side noise injection possible: each contributor can
randomize their own statistics before release.

Two loss families are provided:

* squared error for regression: q = x, p = y x, s = y^2 / 2, so that
  l(w) = (1/2)(w.x - y)^2;
* a quadratic surrogate for logistic classification: the second-order
  Maclaurin expansion of z -> log(1 + e^-z) at z = y w.x (labels in
  {-1, +1}) gives q = x/2, p = (y/2) x, s = log 2; the cubic remainder
  is below |w.x|^3 / 24 on the domain.

Both declare their curvature/gradient constants and per-statistic norm
bounds, which drive noise calibration and the local-privacy accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Dataset, LossConstants, model_array


@dataclass(frozen=True)
class LossSpec:
    """A loss family: its encoder plus its declared constants.

    ``bound_q`` / ``bound_p`` are certified norm caps on the statistics of
    any domain-valid example; they give the statistic-space diameters used
    by the local-privacy accounting.  ``encode_arrays`` is the vectorized
    encoder: (n, d) features and (n,) labels to stacked (Q, P, S).
    """

    name: str
    constants: LossConstants
    bound_q: float
    bound_p: float
    encode_arrays: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def encode_dataset(self, dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode every example; returns (Q, P, S) with shapes (n, d), (n, d), (n,)."""
        return self.encode_arrays(dataset.features, dataset.labels)


def _encode_linear_arrays(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return features, labels[:, None] * features, labels**2 / 2.0


def _encode_logistic_arrays(
    features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not np.all(np.abs(labels) == 1.0):
        bad = labels[np.abs(labels) != 1.0]
        raise ValueError(f"logistic labels must be -1 or +1, got {bad[:5]!r}")
    return (
        features / 2.0,
        (labels[:, None] / 2.0) * features,
        np.full(labels.shape, math.log(2.0)),
    )


def linear_regression_loss(radius: float, dim: int) -> LossSpec:
    """Squared-error regression over the unit feature ball.

    Per-example curvature is ||q q'|| = ||x||^2 <= 1 and the gradient
    x (w.x - y) has norm at most radius + 1 on the model ball.
    """
    return LossSpec(
        name="linear_regression",
        constants=LossConstants(
            lipschitz=radius + 1.0, smoothness=1.0, radius=radius, dim=dim
        ),
        bound_q=1.0,
        bound_p=1.0,
        encode_arrays=_encode_linear_arrays,
    )


def logistic_quadratic_loss(radius: float, dim: int) -> LossSpec:
    """Quadratic logistic surrogate over the unit feature ball.

    Curvature ||q q'|| = ||x||^2 / 4 <= 1/4; gradient (x/4)(w.x) - (y/2) x
    has norm at most radius/4 + 1/2.
    """
    return LossSpec(
        name="logistic",
        constants=LossConstants(
            lipschitz=radius / 4.0 + 0.5, smoothness=0.25, radius=radius, dim=dim
        ),
        bound_q=0.5,
        bound_p=0.5,
        encode_arrays=_encode_logistic_arrays,
    )


LOSS_FAMILIES: dict[str, Callable[[float, int], LossSpec]] = {
    "linear_regression": linear_regression_loss,
    "logistic": logistic_quadratic_loss,
}


def make_loss(name: str, radius: float, dim: int) -> LossSpec:
    try:
        factory = LOSS_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown loss family {name!r}; available: {sorted(LOSS_FAMILIES)}"
        ) from None
    return factory(radius, dim)


def empirical_objective(
    dataset: Dataset | tuple[np.ndarray, np.ndarray, np.ndarray],
    spec: LossSpec,
    w,
    reg_coeff: float = 0.0,
) -> float:
    """Mean loss over the dataset plus ridge (reg_coeff / (2n)) ||w||^2.

    The ridge coefficient is divided by the dataset size, matching the
    scaling under which the privacy calibration is stated.  ``dataset``
    may instead be the (Q, P, S) that ``spec.encode_dataset`` returned
    for it, which gives the same value without encoding it again.
    """
    if reg_coeff < 0:
        raise ValueError(f"reg_coeff must be >= 0, got {reg_coeff!r}")
    wa = model_array(w)
    if isinstance(dataset, Dataset):
        dataset = spec.encode_dataset(dataset)
    q_stats, p_stats, s_stats = dataset
    qw = q_stats @ wa
    n = q_stats.shape[0]
    mean_loss = float(np.mean(0.5 * qw * qw - p_stats @ wa + s_stats))
    return mean_loss + reg_coeff / (2.0 * n) * float(wa @ wa)


def predict(spec: LossSpec, features: np.ndarray, w) -> np.ndarray:
    """Point predictions: the linear response for regression, its sign
    (ties to +1) for classification."""
    response = np.asarray(features, dtype=np.float64) @ model_array(w)
    if spec.name == "linear_regression":
        return response
    return np.where(response >= 0.0, 1.0, -1.0)
