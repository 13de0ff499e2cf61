"""Shared domain types for private learning of quadratic losses.

Everything downstream works over a bounded domain: feature vectors live in
the unit ball, labels in [-1, 1], and models in a ball of configurable
radius.  The types here carry those contracts so the calibration, noise,
and solver layers can rely on them instead of re-validating.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Slop allowed on norm/label bounds before an example is flagged invalid.
BOUND_TOL = 1e-9


def _as_float_vector(values, name: str) -> np.ndarray:
    """Coerce to a read-only 1-D float64 array, rejecting non-finite input."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of examples, stored densely.

    ``features`` has shape (n, d) and ``labels`` shape (n,).  Construction
    enforces shape consistency and finiteness only; domain bounds are
    checked by :func:`validate_dataset`, which ``perturb_dataset`` runs
    before it adds noise, so out-of-domain data can be loaded and
    inspected but not released.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labs = np.array(self.labels, dtype=np.float64, copy=True)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labs.shape}")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError(
                f"features/labels length mismatch: {feats.shape[0]} vs {labs.shape[0]}"
            )
        if feats.shape[0] == 0:
            raise ValueError("dataset must contain at least one example")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(labs))):
            raise ValueError("dataset contains non-finite entries")
        feats.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(features=self.features[idx], labels=self.labels[idx])


@dataclass(frozen=True)
class LossConstants:
    """Curvature/gradient/domain constants a loss family declares.

    ``smoothness`` bounds the eigenvalues of each per-example quadratic
    term, ``lipschitz`` bounds per-example gradient norms over the model
    ball, ``radius`` is the model-ball radius, and ``dim`` the feature
    dimension.  Noise calibration consumes exactly these four numbers.
    """

    lipschitz: float
    smoothness: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        # radius first: the loss families derive lipschitz from it, so a
        # bad radius is reported as the value the caller set.
        for name in ("radius", "lipschitz", "smoothness"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) differential-privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon!r}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")


def _norm_any_order(w: np.ndarray) -> float:
    """Largest of ||w|| as np.linalg.norm, a left-to-right sum of squares
    and math.fsum compute it; a reader may check the radius in any of them."""
    squares = w * w
    return max(
        float(np.linalg.norm(w)),
        math.sqrt(float(np.cumsum(squares)[-1])),
        math.sqrt(math.fsum(squares)),
    )


@dataclass(frozen=True)
class ModelVector:
    """A model constrained to the ball of the given radius.

    Construction projects onto the ball, so the norm invariant holds by
    definition, whichever summation order computes the norm; use
    :func:`project_to_ball` as the public constructor.
    """

    w: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        radius = float(self.radius)
        if not (radius > 0 and math.isfinite(2.0 * radius * radius)):
            # Near sqrt(max float) the squares of a point on the sphere
            # overflow, the summation-order check below reads inf and w
            # shrinks to 0; twice the squared radius leaves room for the
            # rounding of every order.
            raise ValueError(
                f"radius must be positive with 2 radius^2 finite (at most about "
                f"9.48e153), got {self.radius!r}"
            )
        w = _as_float_vector(self.w, "w")
        # A single rescale can leave the recomputed norm a few ulps above
        # the radius, so rescale until every summation order reads at most
        # the radius.  A step that rounds back to w moves every coordinate
        # one ulp towards zero instead, so the loop ends.  Projecting an
        # already-projected vector returns it bit-identically.
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(w))
        if math.isinf(nrm):
            # The squares overflow, and radius / inf would send w to 0:
            # take the norm of w / max|w_i| instead, keeping w's direction.
            peak = float(np.max(np.abs(w)))
            w = w * min(radius / peak / float(np.linalg.norm(w / peak)), 1.0)
            w.flags.writeable = False
            nrm = float(np.linalg.norm(w))
        while _norm_any_order(w) > radius:
            scaled = np.array(w * min(radius / nrm, 1.0))
            if np.array_equal(scaled, w):
                scaled = np.nextafter(w, 0.0)
            scaled.flags.writeable = False
            w = scaled
            nrm = float(np.linalg.norm(w))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def model_array(w) -> np.ndarray:
    """The weights of a :class:`ModelVector`, or ``w`` as a float64 array."""
    if isinstance(w, ModelVector):
        return w.w
    return np.asarray(w, dtype=np.float64)


def project_to_ball(w, radius: float) -> ModelVector:
    """Project ``w`` onto the Euclidean ball of ``radius`` around the origin.

    Points inside the ball are returned unchanged; points outside are
    scaled back to the sphere.
    """
    return ModelVector(w=w, radius=radius)


@dataclass(frozen=True)
class DomainViolation:
    """One way an example fails the bounded-domain contract."""

    index: int
    kind: str  # "feature_norm" | "label_bound" | "non_finite"
    value: float


def validate_dataset(dataset: Dataset) -> list[DomainViolation]:
    """Check every example against the bounded domain; empty list means valid.

    Flags feature norms above 1 and labels outside [-1, 1] (both with
    1e-9 slop).  Dimension consistency and finiteness are enforced
    structurally at :class:`Dataset` construction.
    """
    violations: list[DomainViolation] = []
    norms = np.linalg.norm(dataset.features, axis=1)
    for i in np.nonzero(norms > 1.0 + BOUND_TOL)[0]:
        violations.append(
            DomainViolation(index=int(i), kind="feature_norm", value=float(norms[i]))
        )
    for i in np.nonzero(np.abs(dataset.labels) > 1.0 + BOUND_TOL)[0]:
        violations.append(
            DomainViolation(index=int(i), kind="label_bound", value=float(dataset.labels[i]))
        )
    violations.sort(key=lambda v: (v.index, v.kind))
    return violations


def _numpy_lines(fh):
    """The remaining lines of ``fh``, for ``np.loadtxt``.

    Raises ``ValueError`` at a line where NumPy's parser could accept what
    the ``csv.reader`` + ``float`` loop refuses: a blank line (NumPy skips
    it), a line longer than ``csv.field_size_limit()``, or one holding
    U+001C..U+001F (NumPy strips them around a number, ``float`` does
    not).  Also raises at the end of a file without data rows, where
    ``np.loadtxt`` would only warn.
    """
    limit = csv.field_size_limit()
    line = None
    for line in fh:
        if (
            line.isspace()
            or len(line) > limit
            or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line
        ):
            raise ValueError("line for the csv.reader loop")
        yield line
    if line is None:
        raise ValueError("no data rows")


def _read_csv_rows(path) -> tuple[list[str], np.ndarray, array]:
    """The ``csv.reader`` + ``float`` loop behind :func:`_read_csv_table`:
    it accepts quoted fields and ``float`` literals that NumPy refuses, and
    names ``path:line`` when it refuses a file.  Also returns the line on
    which each row starts, which a quoted line break can move."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        width = len(header)
        values = array("d")
        starts = array("q")
        line_no = rows.line_num + 1
        for row in rows:
            if len(row) != width:
                raise ValueError(f"{path}:{line_no}: expected {width} fields, got {len(row)}")
            try:
                values.extend(map(float, row))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: non-numeric value ({exc})") from None
            starts.append(line_no)
            line_no = rows.line_num + 1
    if not values:
        raise ValueError(f"{path}: need a header row and at least one data row")
    return header, np.frombuffer(values, dtype=np.float64).reshape(-1, width), starts


def _read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """The header of a numeric CSV file and its data rows as a float64
    array of shape (rows, len(header)).

    Every data row must have as many fields as the header, each a finite
    float literal; errors name ``path:line``, the physical line on which
    the offending row starts.  A file without a header or without a data
    row is refused.  ``csv.reader`` reads the header and ``np.loadtxt``
    parses the body; each field converts to the same bits as ``float``
    gives.  Only when NumPy refuses a file does :func:`_read_csv_rows`
    read it again, to accept what ``float`` accepts (a quoted field,
    ``1_0``) or to name the line it refuses.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        # The header can span lines (a quoted line break); NumPy's rows
        # are one line each after it.
        first_line = reader.line_num + 1
        try:
            table = np.loadtxt(
                _numpy_lines(fh), delimiter=",", comments=None, quotechar=None,
                ndmin=2, dtype=np.float64,
            )
        except ValueError:
            table = None
    starts = None
    if table is None or table.shape[1] != len(header):
        header, table, starts = _read_csv_rows(path)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        line_no = first_line + row if starts is None else starts[row]
        raise ValueError(f"{path}:{line_no}: non-finite value")
    return header, table
