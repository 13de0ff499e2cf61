"""Contributor-side randomization: streams, releases, moments, CSV I/O.

Monte-Carlo expectations (moment checks, aggregate variance, covariance)
were computed once under the pinned seeds and frozen here with their
standard-error tolerances.  The contributor stream is checked bit for
bit against NumPy's own Philox with ``advance``, within a few ulp
against a plain-``math`` Box-Muller oracle, and statistically against
N(0, 1), including the exact Gaussian and chi-square tail probabilities
the calibration's bounds rest on; the release file is checked against
``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inputdp import (
    CalibrationInfeasibleError,
    Dataset,
    NoiseCalibration,
    PrivacyBudget,
    Release,
    RngStream,
    calibrate,
    linear_regression_loss,
    perturb_dataset,
    read_perturbed_csv,
    tail_check_chi_square,
    tail_check_gaussian,
    write_perturbed_csv,
)
from inputdp.perturb import _CHILD_BATCH, _box_muller
from tests._oracles import box_muller_normals

BUDGET = PrivacyBudget(epsilon=1.0, delta=0.01)
# The smallest cohort calibrate accepts at delta = 0.01.
MIN_N = 27


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(42, path=(1, 2)).generator().standard_normal(5)
        b = RngStream(42, path=(1, 2)).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_child_extends_path(self):
        root = RngStream(42)
        assert root.child(3).path == (3,)
        assert root.child(3).child(7) == RngStream(42, path=(3, 7))

    def test_distinct_paths_distinct_draws(self):
        root = RngStream(42)
        a = root.child(0).generator().standard_normal(5)
        b = root.child(1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_rejects_negative_addresses(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(1, path=(0, -2))


def philox_row(seed, path, i, k):
    """Contributor i's k normals from NumPy's Philox alone: advance to the
    row's first block, take its m = 4 ceil(k/4) words, and apply
    Box-Muller with NumPy ufuncs to that row only."""
    m = 4 * -(-k // 4)
    bitgen = np.random.Philox(np.random.SeedSequence(seed, spawn_key=path))
    bitgen.advance(i * m // 4)
    words = bitgen.random_raw(m)
    pairs = -(-k // 2)
    u1 = ((words[0 : 2 * pairs : 2] >> 11) + 1).astype(np.float64) * 2.0**-53
    u2 = (words[1 : 2 * pairs : 2] >> 11).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:k]


class TestPhiloxChildStream:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 28])
    def test_rows_match_philox_words_bit_for_bit(self, k):
        n = 3 * _CHILD_BATCH + 5
        for seed, path in ((0, ()), (2**40 + 7, (2, 1, 2**33))):
            rows = RngStream(seed, path=path).child_normals(n, k)
            assert rows.shape == (n, k) and rows.dtype == np.float64
            for i in (0, 1, _CHILD_BATCH - 1, _CHILD_BATCH, n - 1):
                assert np.array_equal(rows[i], philox_row(seed, path, i, k)), i

    def test_rows_do_not_depend_on_n(self):
        stream = RngStream(9, path=(4,))
        full = stream.child_normals(_CHILD_BATCH + 3, 7)
        assert np.array_equal(stream.child_normals(5, 7), full[:5])
        assert stream.child_normals(0, 7).shape == (0, 7)
        assert stream.child_normals(4, 0).shape == (4, 0)

    def test_matches_math_oracle_within_4_ulp(self):
        # NumPy's SIMD log/cos/sin may differ from libm by an ulp, so the
        # oracle is compared in ulps, not for equality.
        n, k = 2_000, 28
        stream = RngStream(3, path=(1, 5))
        rows = stream.child_normals(n, k)
        words = np.random.Philox(np.random.SeedSequence(3, spawn_key=(1, 5))).random_raw(n * k)
        expected = [box_muller_normals(row, k) for row in words.reshape(n, k).tolist()]
        np.testing.assert_array_max_ulp(rows, np.array(expected), maxulp=4)

    def test_moments_within_4_standard_errors(self):
        draws = RngStream(21, path=(7,)).child_normals(50_000, 6).ravel()
        size = draws.size
        assert abs(draws.mean()) <= 4.0 / math.sqrt(size)
        # Var of the sample variance of N(0, 1) is 2 / (size - 1).
        assert abs(draws.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (size - 1))

    def test_tails_match_exact_probabilities(self):
        # The tails the calibration's bounds rest on, measured on the
        # stream that noises releases: |Z| > t per coordinate, and the
        # chi-square(28) tail events of each contributor's sum of squares.
        n, k = 2**15, 28
        rows = RngStream(24, path=(7,)).child_normals(n, k)
        magnitudes = np.abs(rows)
        for t in (1.25, 2.0, 3.0):
            exact = tail_check_gaussian(t)
            freq = float(np.count_nonzero(magnitudes > t)) / rows.size
            assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / rows.size), t
        sums = np.einsum("ij,ij->i", rows, rows)
        t = 3.0
        exact_upper, exact_lower = tail_check_chi_square(k, t)
        spread = 2.0 * math.sqrt(k * t)
        for freq, exact in (
            (float(np.mean(sums >= k + spread + 2.0 * t)), exact_upper),
            (float(np.mean(sums <= k - spread)), exact_lower),
        ):
            assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / n)

    def test_neighbouring_contributors_uncorrelated(self):
        rows = RngStream(22, path=(7,)).child_normals(50_000, 6)
        first, second = rows[:-1].ravel(), rows[1:].ravel()
        corr = float(np.corrcoef(first, second)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(first.size)

    def test_ks_against_standard_normal(self):
        stats = pytest.importorskip("scipy.stats")
        draws = RngStream(23, path=(7,)).child_normals(20_000, 5).ravel()
        assert stats.kstest(draws, "norm").pvalue > 0.01

    def test_extreme_words_give_finite_normals(self):
        top = np.uint64(2**64 - 1)
        words = np.array([[0, 0, 0, top], [top, 0, top, top]], dtype=np.uint64)
        out = np.empty((2, 4))
        _box_muller(words, out)
        assert np.isfinite(out).all()
        # w1 = 0 gives u1 = 2^-53, the largest radius; w1 = 2^64 - 1
        # gives u1 = 1 and radius 0.
        largest = math.sqrt(-2.0 * math.log(2.0**-53))
        assert out[0, 0] == pytest.approx(largest, rel=1e-15)
        assert np.array_equal(out[1], np.zeros(4))

    def test_same_stream_same_draws_other_path_other_draws(self):
        a = RngStream(42, path=(1, 2)).child_normals(6, 5)
        assert np.array_equal(a, RngStream(42, path=(1, 2)).child_normals(6, 5))
        assert not np.array_equal(a, RngStream(42, path=(1, 3)).child_normals(6, 5))
        assert not np.array_equal(a, RngStream(43, path=(1, 2)).child_normals(6, 5))

    def test_negative_sizes_rejected(self):
        stream = RngStream(0)
        with pytest.raises(ValueError, match="n >= 0"):
            stream.child_normals(-1, 2)
        with pytest.raises(ValueError, match="k >= 0"):
            stream.child_normals(2, -1)


class TestRelease:
    def test_holds_contiguous_read_only_float_arrays(self):
        table = np.arange(12.0).reshape(3, 4)
        release = Release(Q=table[:, :2], P=table[:, 2:], S=[1, 2, 3])
        assert len(release) == 3 and release.dim == 2
        for arr in (release.Q, release.P, release.S):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert not arr.flags.writeable
        assert np.array_equal(release.P, [[2.0, 3.0], [6.0, 7.0], [10.0, 11.0]])
        assert table.flags.writeable

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="must be"):
            Release(Q=np.zeros((2, 2)), P=np.zeros((2, 3)), S=np.zeros(2))
        with pytest.raises(ValueError, match="must be"):
            Release(Q=np.zeros((2, 2)), P=np.zeros((2, 2)), S=np.zeros(3))
        with pytest.raises(ValueError, match="must be"):
            Release(Q=np.zeros(2), P=np.zeros(2), S=np.zeros(1))

    @pytest.mark.parametrize("field", ["Q", "P", "S"])
    def test_rejects_non_finite(self, field):
        arrays = {"Q": np.zeros((2, 2)), "P": np.zeros((2, 2)), "S": np.zeros(2)}
        arrays[field].flat[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Release(**arrays)


def small_cohort(dim):
    """A MIN_N-row dataset and its linear-regression spec."""
    gen = np.random.default_rng(dim)
    x = gen.normal(size=(MIN_N, dim))
    x /= 2.0 * np.linalg.norm(x, axis=1, keepdims=True)
    labels = gen.uniform(-1, 1, size=MIN_N)
    return Dataset(features=x, labels=labels), linear_regression_loss(dim=dim, radius=1.0)


class TestPerturbContributorRows:
    """Per-contributor rows: perturb_dataset on the smallest feasible cohort."""

    def test_raw_release_cannot_be_requested(self):
        # No calibration carries chosen (say zero) variances, and none
        # exists for a cohort too small to calibrate, so perturb_dataset
        # never releases the raw statistics.
        ds, spec = small_cohort(3)
        with pytest.raises(TypeError):
            NoiseCalibration(n=1, budget=BUDGET, constants=spec.constants, fail_prob=0.005,
                             delta_linear=0.005, tail_ratio=0.1, linear_noise_var=0.0,
                             quad_noise_var=0.0)
        with pytest.raises(CalibrationInfeasibleError):
            calibrate(BUDGET, 1, spec.constants)
        out = perturb_dataset(ds, spec, calibrate(BUDGET, MIN_N, spec.constants), RngStream(0))
        q, p, _ = spec.encode_dataset(ds)
        assert np.all(out.Q != q) and np.all(out.P != p)

    def test_recorded_noise_reconstructs_release(self):
        ds, spec = small_cohort(2)
        cal = calibrate(BUDGET, MIN_N, spec.constants)
        out, record = perturb_dataset(ds, spec, cal, RngStream(5, path=(8,)), record_noise=True)
        q, p, s = spec.encode_dataset(ds)
        assert np.array_equal(out.Q, q + record.quad_noise)
        assert np.array_equal(out.P, p - record.linear_noise)
        assert np.array_equal(out.S, s)
        assert np.all(record.quad_noise != 0.0) and np.all(record.linear_noise != 0.0)

    def test_deterministic_given_stream(self):
        ds, spec = small_cohort(2)
        cal = calibrate(BUDGET, MIN_N, spec.constants)
        a = perturb_dataset(ds, spec, cal, RngStream(5, path=(8,)))
        b = perturb_dataset(ds, spec, cal, RngStream(5, path=(8,)))
        c = perturb_dataset(ds, spec, cal, RngStream(5, path=(9,)))
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.P, b.P)
        assert not np.array_equal(a.Q, c.Q)

    def test_dimension_mismatch_rejected(self):
        # A d = 3 dataset must not be released under a d = 5 calibration.
        ds, spec = small_cohort(3)
        cal = calibrate(BUDGET, MIN_N, linear_regression_loss(dim=5, radius=1.0).constants)
        with pytest.raises(ValueError, match="calibration constants"):
            perturb_dataset(ds, spec, cal, RngStream(0))

    def test_moments_match_per_coordinate_scale(self):
        # 1e5 contributors at calibration n=100: the released q deviates
        # with per-coordinate variance quad_noise_var / 100.  Contributor
        # i's quadratic noise is the first 3 of its 6 normals times the
        # scale; rows 0..99 are checked against perturb_dataset.
        spec = linear_regression_loss(dim=3, radius=1.0)
        cal = calibrate(BUDGET, 100, spec.constants)
        root = RngStream(7, path=(50,))
        scale = cal.quad_noise_sd / math.sqrt(cal.n)
        per_coordinate = cal.quad_noise_var / cal.n
        draws = root.child_normals(100_000, 6)[:, :3] * scale
        ds = Dataset(features=np.zeros((100, 3)), labels=np.zeros(100))
        _, record = perturb_dataset(ds, spec, cal, root, record_noise=True)
        assert np.array_equal(record.quad_noise, draws[:100])
        max_mean = np.abs(draws.mean(axis=0)).max()
        assert max_mean == pytest.approx(0.0007923308671034759, rel=1e-9)
        assert max_mean <= 4.0 * math.sqrt(per_coordinate / 100_000)
        variances = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(variances / per_coordinate - 1.0) <= 0.05)


class TestPerturbDataset:
    def test_permuting_rows_permutes_release(self):
        # Row i's noise sits at block offset i of the stream, so the
        # release of the permuted dataset, with each example keeping its
        # own offset's draws, is the permuted release.
        n, d = MIN_N, 2
        spec = linear_regression_loss(dim=d, radius=1.0)
        cal = calibrate(BUDGET, n, spec.constants)
        gen = np.random.default_rng(17)
        x = gen.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True) * 2.0
        y = gen.uniform(-1, 1, size=n)
        root = RngStream(21, path=(3,))
        released = perturb_dataset(Dataset(features=x, labels=y), spec, cal, root)
        assert len(released) == n
        perm = gen.permutation(n)
        q, p, s = spec.encode_dataset(Dataset(features=x[perm], labels=y[perm]))
        draws = np.array([philox_row(21, (3,), int(i), 2 * d) for i in perm])
        root_n = math.sqrt(n)
        assert np.array_equal(released.Q[perm], q + draws[:, :d] * (cal.quad_noise_sd / root_n))
        assert np.array_equal(released.P[perm], p - draws[:, d:] * (cal.linear_noise_sd / root_n))
        assert np.array_equal(released.S[perm], s)

    def test_radius_mismatch_rejected(self):
        # A radius-4 loss needs far more linear noise than a radius-1
        # calibration adds, so the release must be refused.
        spec = linear_regression_loss(dim=2, radius=4.0)
        cal = calibrate(BUDGET, MIN_N, linear_regression_loss(dim=2, radius=1.0).constants)
        ds = Dataset(features=np.zeros((MIN_N, 2)), labels=np.zeros(MIN_N))
        with pytest.raises(ValueError, match="calibration constants"):
            perturb_dataset(ds, spec, cal, RngStream(0))

    def test_size_mismatch_rejected(self):
        spec = linear_regression_loss(dim=2, radius=1.0)
        cal = calibrate(BUDGET, MIN_N, spec.constants)
        ds = Dataset(features=np.zeros((MIN_N - 1, 2)), labels=np.zeros(MIN_N - 1))
        with pytest.raises(ValueError, match="does not match calibration n"):
            perturb_dataset(ds, spec, cal, RngStream(0))

    def test_out_of_domain_rows_refused(self):
        # The noise is calibrated for ||x|| <= 1 and |y| <= 1, so a row
        # outside that domain must not be released under it.
        spec = linear_regression_loss(dim=2, radius=1.0)
        cal = calibrate(BUDGET, MIN_N, spec.constants)
        features = np.zeros((MIN_N, 2))
        features[4] = [0.6, 0.9]
        features[9] = [3.0, 4.0]
        ds = Dataset(features=features, labels=np.zeros(MIN_N))
        with pytest.raises(ValueError, match=r"^2 bounded-domain violations .*first: example 4, "
                           r"feature_norm = 1\.08167$"):
            perturb_dataset(ds, spec, cal, RngStream(0))
        labels = np.zeros(MIN_N)
        labels[7] = -1.5
        ds = Dataset(features=np.zeros((MIN_N, 2)), labels=labels)
        with pytest.raises(ValueError, match=r"^1 bounded-domain violations .*first: example 7, "
                           r"label_bound = -1\.5$"):
            perturb_dataset(ds, spec, cal, RngStream(0))

    def test_domain_boundary_released(self):
        # Rows on the unit sphere with labels of modulus 1 are in the domain.
        spec = linear_regression_loss(dim=2, radius=1.0)
        cal = calibrate(BUDGET, MIN_N, spec.constants)
        angles = np.linspace(0.0, 2.0 * math.pi, MIN_N, endpoint=False)
        features = np.column_stack([np.cos(angles), np.sin(angles)])
        labels = np.where(np.arange(MIN_N) % 2 == 0, 1.0, -1.0)
        released = perturb_dataset(Dataset(features, labels), spec, cal, RngStream(0))
        assert len(released) == MIN_N

    def test_aggregate_variance_and_independence(self):
        # Column sums of the linear noise must have the full calibrated
        # variance (linear_noise_var per coordinate), and distinct
        # contributors' draws must be uncorrelated.  1e4 repetitions at
        # n=27, d=2.
        n, d = MIN_N, 2
        spec = linear_regression_loss(dim=d, radius=1.0)
        cal = calibrate(BUDGET, n, spec.constants)
        ds = Dataset(features=np.zeros((n, d)), labels=np.zeros(n))
        root = RngStream(11, path=(51,))
        reps = 10_000
        totals = np.empty((reps, d))
        first = np.empty(reps)
        second = np.empty(reps)
        for rep in range(reps):
            _, record = perturb_dataset(ds, spec, cal, root.child(rep), record_noise=True)
            totals[rep] = record.linear_total
            first[rep] = record.quad_noise[0, 0]
            second[rep] = record.quad_noise[1, 0]
        variances = totals.var(axis=0, ddof=1)
        assert variances == pytest.approx([211.7402745309337, 209.36789404477125], rel=1e-7)
        assert np.all(np.abs(variances / cal.linear_noise_var - 1.0) <= 0.05)
        cov = float(np.cov(first, second, ddof=1)[0, 1])
        assert cov == pytest.approx(56.40895922007515, rel=1e-9)
        assert abs(cov) <= 4.0 * (cal.quad_noise_var / n) / math.sqrt(reps)


def random_release(gen, n, d):
    return Release(Q=gen.normal(size=(n, d)), P=gen.normal(size=(n, d)), S=gen.normal(size=n))


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        released = random_release(np.random.default_rng(31), 10, 3)
        path = tmp_path / "released.csv"
        write_perturbed_csv(path, released)
        back = read_perturbed_csv(path)
        assert len(back) == len(released)
        assert np.array_equal(back.Q, released.Q)
        assert np.array_equal(back.P, released.P)
        assert np.array_equal(back.S, released.S)

    def test_bytes_match_csv_writer(self, tmp_path):
        # The file format is what csv.writer makes of repr'd floats,
        # CRLF line ends included; negative zero and extreme magnitudes
        # keep their exact spelling.
        gen = np.random.default_rng(32)
        q = gen.normal(size=(9, 4)) * np.exp(gen.uniform(-300, 300, size=(9, 4)))
        q[0, 0], q[1, 1], q[2, 2] = -0.0, 5e-324, 1.7976931348623157e308
        released = Release(Q=q, P=-q[::-1], S=gen.normal(size=9))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow([f"q_{j}" for j in range(4)] + [f"p_{j}" for j in range(4)] + ["s"])
        for i in range(9):
            writer.writerow(
                [repr(float(v)) for v in released.Q[i]]
                + [repr(float(v)) for v in released.P[i]]
                + [repr(float(released.S[i]))]
            )
        path = tmp_path / "released.csv"
        write_perturbed_csv(path, released)
        assert path.read_bytes() == expected.getvalue().encode()
        assert path.read_bytes().count(b"\r\n") == 10

    def test_header_layout(self, tmp_path):
        path = tmp_path / "released.csv"
        write_perturbed_csv(path, Release(Q=np.zeros((1, 2)), P=np.zeros((1, 2)), S=np.zeros(1)))
        header = path.read_text().splitlines()[0]
        assert header == "q_0,q_1,p_0,p_1,s"

    def test_write_rejects_empty_and_ragged(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_perturbed_csv(
                tmp_path / "x.csv", Release(Q=np.zeros((0, 2)), P=np.zeros((0, 2)), S=np.zeros(0))
            )
        # A ragged release cannot be built, so it never reaches the writer.
        with pytest.raises(ValueError, match="must be"):
            Release(Q=np.zeros((2, 2)), P=np.zeros((2, 3)), S=np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308]),
            min_size=3,
            max_size=30,
        ),
        st.integers(1, 3),
    )
    def test_round_trip_bit_exact_for_any_finite_float(self, tmp_path_factory, values, dim):
        width = 2 * dim + 1
        rows = -(-len(values) // width)
        table = np.resize(np.array(values, dtype=np.float64), (rows, width))
        released = Release(Q=table[:, :dim], P=table[:, dim:-1], S=table[:, -1])
        path = tmp_path_factory.mktemp("round_trip") / "released.csv"
        write_perturbed_csv(path, released)
        back = read_perturbed_csv(path)
        for before, after in ((released.Q, back.Q), (released.P, back.P), (released.S, back.S)):
            assert np.array_equal(after.view(np.uint64), before.view(np.uint64))

    def test_read_rejects_malformed_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="need a header row and at least one data row"):
            read_perturbed_csv(empty)

        bad_header = tmp_path / "bad.csv"
        bad_header.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a perturbed-statistics CSV"):
            read_perturbed_csv(bad_header)

        short_row = tmp_path / "short.csv"
        short_row.write_text("q_0,q_1,p_0,p_1,s\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="expected 5 fields"):
            read_perturbed_csv(short_row)

        header_only = tmp_path / "header_only.csv"
        header_only.write_text("q_0,q_1,p_0,p_1,s\n")
        with pytest.raises(ValueError, match="need a header row and at least one data row"):
            read_perturbed_csv(header_only)

        # A header of only s would otherwise read as a d = 0 release.
        no_dim = tmp_path / "no_dim.csv"
        no_dim.write_text("s\n1.0\n")
        with pytest.raises(ValueError, match="not a perturbed-statistics CSV"):
            read_perturbed_csv(no_dim)

    def test_read_names_line_of_non_numeric_field(self, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("q_0,p_0,s\n1.0,2.0,3.0\n1.0,x2.0,3.0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: non-numeric value"):
            read_perturbed_csv(path)
