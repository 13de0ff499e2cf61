"""Contributor-side randomization of quadratic-loss statistics.

Each contributor encodes their example into statistics (q, p, s), adds
Gaussian noise to q, subtracts Gaussian noise from p, and releases the
result.  Per-coordinate noise variances are (quad_noise_var / n) and
(linear_noise_var / n) from a :class:`~inputdp.calibration.NoiseCalibration`,
so the *aggregated* noise across n contributors has the calibrated scale.
The releases of a whole cohort are held in one :class:`Release`: arrays
Q (n, d), P (n, d) and S (n,), row i being contributor i's statistics.

Randomness is organized as explicit streams: an :class:`RngStream` is a
(seed, path) pair mapped to an independent numpy generator, so that each
contributor can own a stream and outputs are reproducible regardless of
evaluation order.  Within one example's stream the draw order is fixed:
quadratic noise first, then linear noise.  Contributor i of a dataset
draws from ``rng.child(i)``; :meth:`RngStream.child_normals` produces
all n contributors' draws at once, bit for bit equal to building each
child's generator, by hashing the n seed sequences in NumPy and
reseeding one reused PCG64 per contributor.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .calibration import NoiseCalibration
from .core import Dataset, PrivacyBudget
from .loss import LossSpec, QuadraticForm

# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
# generate_state(4, uint64) hashes eight words cycling over the pool; the
# hash constant before and after each word's step does not depend on the data.
_STATE_SLOT = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
_STATE_HASH = np.array(
    [(_INIT_B * pow(_MULT_B, i, 1 << 32)) & _MASK32 for i in range(2 * _POOL_SIZE + 1)],
    dtype=np.uint32,
)
# Keys hashed and reseeded per batch, and rows formatted per write: bound
# the Python ints, floats and strings alive at once.
_CHILD_BATCH = 4096
_CSV_ROWS = 1024


def _word_count(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a non-negative int into
    (0 takes one word)."""
    return max(1, -(-value.bit_length() // 32))


@dataclass(frozen=True)
class RngStream:
    """A reproducible, addressable randomness source.

    ``child(*ids)`` derives an independent substream by extending the
    integer path (seed-sequence spawn keys under the hood), so a fixed
    (seed, path) always yields the same draws on a given platform.
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

    def child_state_words(self, start: int, stop: int) -> np.ndarray:
        """Seed words of children ``start .. stop-1``, shape (stop-start, 4).

        Row j equals ``SeedSequence(seed, spawn_key=path + (start+j,))
        .generate_state(4, np.uint64)``, the words PCG64 seeds from.  The
        child index is the last entropy word, so its seed sequence starts
        from this stream's pool and folds the index into each pool word
        with the hash constant reached after the 4 * (prefix words) steps
        before it; every step is one uint32 array operation over the
        children.  Child indices must stay below 2^32 (one spawn-key word).
        """
        if not 0 <= start <= stop <= 1 << 32:
            raise ValueError(
                f"child indices must satisfy 0 <= start <= stop <= 2^32, got {start}..{stop}"
            )
        # SeedSequence pads the seed to the pool size before a spawn key.
        prefix = max(_word_count(self.seed), _POOL_SIZE) + sum(map(_word_count, self.path))
        start_hash = _INIT_A * pow(_MULT_A, _POOL_SIZE * prefix, 1 << 32)
        hashes = np.array(
            [(start_hash * pow(_MULT_A, j, 1 << 32)) & _MASK32 for j in range(_POOL_SIZE + 1)],
            dtype=np.uint32,
        )
        pool = np.random.SeedSequence(self.seed, spawn_key=self.path).pool
        keys = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)[:, None]
        # mix(pool[j], hashmix(key)) for each pool word j.
        mixed = (keys ^ hashes[:-1]) * hashes[1:]
        mixed ^= mixed >> _XSHIFT
        pool = pool * np.uint32(_MIX_MULT_L) - mixed * np.uint32(_MIX_MULT_R)
        pool ^= pool >> _XSHIFT
        # generate_state: eight hashed words, paired low word first.
        words = (pool[:, _STATE_SLOT] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
        words ^= words >> _XSHIFT
        return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)

    def child_normals(self, n: int, k: int) -> np.ndarray:
        """Standard normals of children 0..n-1, shape (n, k).

        Row i equals ``self.child(i).generator().standard_normal(k)`` bit
        for bit.  Instead of a new SeedSequence, PCG64 and Generator per
        child, the seed words come from :meth:`child_state_words` and one
        PCG64 is reseeded by assigning the state its seeding would reach:
        inc = 2 seq + 1, state = (inc + initstate) * MULT + inc (mod 2^128).
        """
        if not (0 <= n <= 1 << 32 and k >= 0):
            raise ValueError(f"need 0 <= n <= 2^32 and k >= 0, got n = {n}, k = {k}")
        out = np.empty((n, k))
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        inner = state["state"]
        for start in range(0, n, _CHILD_BATCH):
            stop = min(start + _CHILD_BATCH, n)
            words = self.child_state_words(start, stop).tolist()
            for row, (s_hi, s_lo, q_hi, q_lo) in zip(out[start:stop], words):
                inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
                inner["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128
                inner["inc"] = inc
                bitgen.state = state
                gen.standard_normal(out=row)
        return out


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


def perturb_example(
    form: QuadraticForm,
    cal: NoiseCalibration,
    rng: RngStream,
    *,
    record_noise: bool = False,
):
    """Randomize one contributor's statistics into a 1-row :class:`Release`.

    Draws quadratic noise then linear noise from the given stream, each
    with per-coordinate sd (calibrated sd) / sqrt(n).  With
    ``record_noise`` the raw draws are returned alongside the release
    (testing only; see :class:`NoiseRecord`).
    """
    if form.dim != cal.constants.dim:
        raise ValueError(
            f"statistic dimension {form.dim} does not match calibration dim "
            f"{cal.constants.dim}"
        )
    gen = rng.generator()
    root_n = math.sqrt(cal.n)
    u = gen.standard_normal(form.dim) * (cal.quad_noise_sd / root_n)
    r = gen.standard_normal(form.dim) * (cal.linear_noise_sd / root_n)
    released = Release(Q=(form.q + u)[None, :], P=(form.p - r)[None, :], S=np.array([form.s]))
    if record_noise:
        return released, u, r
    return released


def perturb_dataset(
    dataset: Dataset,
    spec: LossSpec,
    cal: NoiseCalibration,
    rng: RngStream,
    *,
    record_noise: bool = False,
):
    """Encode and randomize a whole dataset, one substream per example.

    Example i uses ``rng.child(i)``, so the output is the concatenation
    of n independent single-contributor releases; permuting examples
    together with their streams permutes the output identically.  With
    ``record_noise`` also returns the :class:`NoiseRecord` (testing only).
    """
    if len(dataset) != cal.n:
        raise ValueError(
            f"dataset size {len(dataset)} does not match calibration n = {cal.n}"
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


def gaussian_release(
    x: np.ndarray, diameter: float, budget: PrivacyBudget, rng: RngStream, slack: float = 1e-6
) -> np.ndarray:
    """Standard Gaussian-mechanism release of a bounded vector.

    Adds iid noise with sd (1 + slack) * sqrt(2 ln(1.25/delta)) *
    diameter / epsilon.  The guarantee needs the noise multiplier to be
    *strictly* above the sqrt(2 ln(1.25/delta)) infimum, hence the
    slack, and it only holds for epsilon in (0, 1), which is enforced
    here (the rest of the pipeline tolerates larger budgets).
    """
    if budget.epsilon >= 1.0:
        raise ValueError(
            f"gaussian release is only valid for epsilon in (0, 1), got "
            f"{budget.epsilon!r}; the sqrt(2 ln(1.25/delta)) noise scale has no "
            "guarantee at or above 1"
        )
    if diameter <= 0:
        raise ValueError(f"diameter must be > 0, got {diameter!r}")
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got shape {x.shape}")
    sd = (
        (1.0 + slack)
        * math.sqrt(2.0 * math.log(1.25 / budget.delta))
        * diameter
        / budget.epsilon
    )
    return x + rng.generator().standard_normal(x.shape[0]) * sd


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
    with open(path, newline="") as fh:
        rows: Iterator[list[str]] = iter(csv.reader(fh))
        try:
            header = next(rows)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 3 or header[-1] != "s" or (len(header) - 1) % 2 != 0:
            raise ValueError(f"{path}: not a perturbed-statistics CSV (header {header[:4]}...)")
        dim = (len(header) - 1) // 2
        if header != _csv_header(dim):
            raise ValueError(f"{path}: unexpected column names for dim {dim}")
        values = array("d")
        for line_no, row in enumerate(rows, start=2):
            if len(row) != 2 * dim + 1:
                raise ValueError(f"{path}:{line_no}: expected {2 * dim + 1} fields, got {len(row)}")
            values.extend(map(float, row))
    if not values:
        raise ValueError(f"{path}: no data rows")
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, 2 * dim + 1)
    return Release(Q=table[:, :dim], P=table[:, dim : 2 * dim], S=table[:, -1])
