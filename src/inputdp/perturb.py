"""Contributor-side randomization of quadratic-loss statistics.

Each contributor encodes their example into statistics (q, p, s), adds
Gaussian noise to q, subtracts Gaussian noise from p, and releases the
result.  Per-coordinate noise variances are (quad_noise_var / n) and
(linear_noise_var / n) from a :class:`~inputdp.calibration.NoiseCalibration`,
so the *aggregated* noise across n contributors has the calibrated scale.
The releases of a whole cohort are held in one :class:`Release`: arrays
Q (n, d), P (n, d) and S (n,), row i being contributor i's statistics.

Randomness is organized as explicit streams: an :class:`RngStream` is a
(seed, path) pair mapped to an independent numpy generator, so outputs
are reproducible regardless of evaluation order.  A cohort's noise comes
from :meth:`RngStream.child_normals`: one Philox4x64 counter stream per
release, in which contributor i owns a fixed run of whole blocks at
block offset i times (blocks per contributor), turned into normals by
Box-Muller.  Within a contributor's row the order is fixed: quadratic
noise first, then linear noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import NoiseCalibration
from .core import Dataset, _read_csv_table, validate_dataset
from .loss import LossSpec

# Contributors whose words are drawn and transformed per batch, and rows
# formatted per write: bound the memory alive at once.
_CHILD_BATCH = 4096
_CSV_ROWS = 1024
# Box-Muller scales: a word's top 53 bits times 2^-53 lies in [0, 1).
_UNIT = 2.0**-53
_TURN = 2.0 * math.pi * _UNIT


@dataclass(frozen=True)
class RngStream:
    """A reproducible, addressable randomness source.

    ``child(*ids)`` derives an independent substream by extending the
    integer path (seed-sequence spawn keys under the hood), so a fixed
    (seed, path) always yields the same draws on a given platform.
    ``generator()`` is a PCG64 generator on the stream's seed sequence;
    ``child_normals`` is a Philox counter stream keyed by the same seed
    sequence, addressable by contributor.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        path = tuple(int(p) for p in self.path)
        if any(p < 0 for p in path):
            raise ValueError(f"stream path entries must be >= 0, got {path}")
        object.__setattr__(self, "path", path)

    def child(self, *ids: int) -> "RngStream":
        return RngStream(seed=self.seed, path=self.path + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def child_normals(self, n: int, k: int) -> np.ndarray:
        """Standard normals of contributors 0..n-1, shape (n, k).

        All rows come from one Philox4x64 counter stream keyed by this
        stream's ``SeedSequence(seed, spawn_key=path)``.  Contributor i
        owns m = 4 ceil(k/4) raw words (whole Philox blocks), so row i is
        made from the words ``advance(i m / 4).random_raw(m)`` returns,
        whatever n is.  See :func:`_box_muller` for the transform.  The
        draws are reproducible on a given platform; NumPy's SIMD log,
        cos and sin may round differently on another CPU.
        """
        if n < 0 or k < 0:
            raise ValueError(f"need n >= 0 and k >= 0, got n = {n}, k = {k}")
        out = np.empty((n, k))
        words_per_row = 4 * -(-k // 4)
        bitgen = np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path))
        for start in range(0, n, _CHILD_BATCH):
            rows = out[start : start + _CHILD_BATCH]
            words = bitgen.random_raw(len(rows) * words_per_row)
            _box_muller(words.reshape(len(rows), words_per_row), rows)
        return out


def _box_muller(words: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (rows, k) with normals from raw uint64 ``words`` of
    shape (rows, m), m at least k rounded up to even.

    Word pair (2j, 2j+1) of a row gives normals 2j and 2j+1 by Box-Muller:
    u1 = ((w1 >> 11) + 1) 2^-53 in (0, 1], so the log is finite,
    u2 = (w2 >> 11) 2^-53, and z = sqrt(-2 ln u1) (cos 2 pi u2, sin 2 pi u2).
    For odd k the last sine is not computed.
    """
    k = out.shape[1]
    pairs = -(-k // 2)
    radius = ((words[:, 0 : 2 * pairs : 2] >> 11) + 1) * _UNIT
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = (words[:, 1 : 2 * pairs : 2] >> 11) * _TURN
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius[:, : k // 2] * np.sin(angle[:, : k // 2])


@dataclass(frozen=True)
class Release:
    """Released (noisy) statistics of n contributors.

    Row i of ``Q`` (n, d), ``P`` (n, d) and ``S`` (n,) is contributor
    i's release.  The arrays are validated once (shapes, finiteness),
    stored as C-contiguous float64 and made read-only.
    """

    Q: np.ndarray
    P: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        q, p, s = (np.ascontiguousarray(a, dtype=np.float64) for a in (self.Q, self.P, self.S))
        if q.ndim != 2 or p.shape != q.shape or s.shape != q.shape[:1]:
            raise ValueError(
                f"Q and P must be (n, d) and S (n,), got {q.shape}, {p.shape} and {s.shape}"
            )
        if not (np.isfinite(q).all() and np.isfinite(p).all() and np.isfinite(s).all()):
            raise ValueError("perturbed statistics must be finite")
        for name, arr in (("Q", q), ("P", p), ("S", s)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.Q.shape[0]

    @property
    def dim(self) -> int:
        return self.Q.shape[1]


@dataclass(frozen=True)
class NoiseRecord:
    """The raw noise draws behind a perturbed dataset (testing only).

    Retaining these alongside the released statistics voids the privacy
    semantics — the record exists so tests can reconstruct the exact
    noisy objective and check concentration claims.  ``quad_noise`` and
    ``linear_noise`` have shape (n, d): row i holds the noise added to
    q_i and the noise subtracted from p_i.
    """

    quad_noise: np.ndarray
    linear_noise: np.ndarray

    @property
    def linear_total(self) -> np.ndarray:
        """Aggregate linear-noise vector (the column sum of the draws)."""
        return self.linear_noise.sum(axis=0)


def perturb_dataset(
    dataset: Dataset,
    spec: LossSpec,
    cal: NoiseCalibration,
    rng: RngStream,
    *,
    record_noise: bool = False,
):
    """Encode and randomize a whole dataset, one block of draws per example.

    Example i takes row i of ``rng.child_normals(n, 2d)``: quadratic
    noise from columns [0, d), linear noise from [d, 2d).  Row i depends
    only on i, so permuting examples together with their rows permutes
    the output identically.  The calibration must be for this dataset's
    size and this loss's constants, and every example must lie in the
    bounded domain the noise is calibrated for (||x|| <= 1, |y| <= 1);
    otherwise nothing is released and the ``ValueError`` names the number
    of violations and the first one.  With ``record_noise`` also returns
    the :class:`NoiseRecord` (testing only).
    """
    if len(dataset) != cal.n:
        raise ValueError(
            f"dataset size {len(dataset)} does not match calibration n = {cal.n}"
        )
    if cal.constants != spec.constants:
        raise ValueError(
            f"calibration constants {cal.constants} do not match the loss's "
            f"{spec.constants}"
        )
    violations = validate_dataset(dataset)
    if violations:
        first = violations[0]
        raise ValueError(
            f"{len(violations)} bounded-domain violations (need ||x|| <= 1 and "
            f"|y| <= 1); first: example {first.index}, {first.kind} = {first.value:.6g}"
        )
    q_stats, p_stats, s_stats = spec.encode_dataset(dataset)
    n, dim = q_stats.shape
    root_n = math.sqrt(n)
    draws = rng.child_normals(n, 2 * dim)
    quad_noise = draws[:, :dim] * (cal.quad_noise_sd / root_n)
    linear_noise = draws[:, dim:] * (cal.linear_noise_sd / root_n)
    released = Release(Q=q_stats + quad_noise, P=p_stats - linear_noise, S=s_stats)
    if record_noise:
        return released, NoiseRecord(quad_noise=quad_noise, linear_noise=linear_noise)
    return released


def _csv_header(dim: int) -> list[str]:
    return (
        [f"q_{j}" for j in range(dim)]
        + [f"p_{j}" for j in range(dim)]
        + ["s"]
    )


def write_perturbed_csv(path, released: Release) -> None:
    """Write released statistics as CSV with shortest round-trip floats.

    Columns are q_0..q_{d-1}, p_0..p_{d-1}, s; values are written with
    ``repr`` so a read-back reproduces every float bit for bit.  Lines
    end in CRLF and no field needs quoting, so the bytes are exactly
    what ``csv.writer`` would write.
    """
    if len(released) == 0:
        raise ValueError("nothing to write: empty release")
    table = np.column_stack([released.Q, released.P, released.S])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(released.dim)) + "\r\n")
        for start in range(0, len(table), _CSV_ROWS):
            rows = table[start : start + _CSV_ROWS].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows))


def read_perturbed_csv(path) -> Release:
    """Read back a file written by :func:`write_perturbed_csv`."""
    header, table = _read_csv_table(path)
    if len(header) < 3 or header[-1] != "s" or (len(header) - 1) % 2 != 0:
        raise ValueError(f"{path}: not a perturbed-statistics CSV (header {header[:4]}...)")
    dim = (len(header) - 1) // 2
    if header != _csv_header(dim):
        raise ValueError(f"{path}: unexpected column names for dim {dim}")
    return Release(Q=table[:, :dim], P=table[:, dim : 2 * dim], S=table[:, -1])
