"""Contributor-side randomization: streams, releases, moments, CSV I/O.

Monte-Carlo expectations (moment checks, aggregate variance, covariance)
were computed once under the pinned seeds and frozen here with their
standard-error tolerances.  The batched child streams are checked
against NumPy's own SeedSequence, PCG64 and Generator, and the release
file against the standard library's ``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inputdp import (
    Dataset,
    Example,
    LossConstants,
    NoiseCalibration,
    PrivacyBudget,
    QuadraticForm,
    Release,
    RngStream,
    gaussian_release,
    linear_regression_loss,
    perturb_dataset,
    perturb_example,
    read_perturbed_csv,
    write_perturbed_csv,
)

BUDGET = PrivacyBudget(epsilon=1.0, delta=0.01)


def make_calibration(n, dim, quad_var, linear_var):
    return NoiseCalibration(
        n=n,
        budget=BUDGET,
        constants=LossConstants(lipschitz=1.0, smoothness=1.0, radius=1.0, dim=dim),
        fail_prob=0.005,
        delta_linear=0.005,
        tail_ratio=0.1,
        linear_noise_var=linear_var,
        quad_noise_var=quad_var,
    )


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


def numpy_child_generator(seed, path, i):
    """Child i's generator built from NumPy alone (the oracle)."""
    seq = np.random.SeedSequence(seed, spawn_key=tuple(path) + (i,))
    return np.random.Generator(np.random.PCG64(seq))


# Seeds below 2^32, at or above 2^32 (two words) and at or above 2^64
# (three words); path entries up to 2^70 (several words each).
SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**80)
)
PATHS = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)), max_size=4)


class TestBatchedChildStreams:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, path=PATHS, start=st.integers(0, 2**32 - 8), count=st.integers(0, 8))
    def test_state_words_match_seed_sequence(self, seed, path, start, count):
        words = RngStream(seed, path=tuple(path)).child_state_words(start, start + count)
        assert words.dtype == np.uint64 and words.shape == (count, 4)
        for j in range(count):
            seq = np.random.SeedSequence(seed, spawn_key=tuple(path) + (start + j,))
            assert np.array_equal(words[j], seq.generate_state(4, np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, path=PATHS, n=st.integers(0, 12), k=st.integers(0, 9))
    def test_child_normals_match_numpy_generators(self, seed, path, n, k):
        rows = RngStream(seed, path=tuple(path)).child_normals(n, k)
        assert rows.shape == (n, k)
        for i in range(n):
            assert np.array_equal(rows[i], numpy_child_generator(seed, path, i).standard_normal(k))

    def test_child_normals_over_1e5_keys(self):
        # Crosses the batching chunk boundaries many times over.
        seed, path, n, k = 2**40 + 7, (2, 1, 128, 0), 100_000, 3
        rows = RngStream(seed, path=path).child_normals(n, k)
        for i in range(n):
            assert np.array_equal(rows[i], numpy_child_generator(seed, path, i).standard_normal(k))

    def test_one_call_equals_child_generators_two_calls(self):
        stream = RngStream(12345678901234, path=(1, 2**33, 4))
        rows = stream.child_normals(20, 10)
        for i in range(20):
            gen = stream.child(i).generator()
            assert np.array_equal(rows[i, :5], gen.standard_normal(5))
            assert np.array_equal(rows[i, 5:], gen.standard_normal(5))

    def test_last_one_word_keys(self):
        start = 2**32 - 3
        words = RngStream(5, path=(3,)).child_state_words(start, 2**32)
        for j in range(3):
            seq = np.random.SeedSequence(5, spawn_key=(3, start + j))
            assert np.array_equal(words[j], seq.generate_state(4, np.uint64))

    def test_keys_of_two_words_rejected(self):
        # Child indices >= 2^32 take two spawn-key words; the batched hash
        # covers one, so such ranges are refused before any work.
        stream = RngStream(0)
        with pytest.raises(ValueError, match="2\\^32"):
            stream.child_state_words(2**32, 2**32 + 1)
        with pytest.raises(ValueError, match="2\\^32"):
            stream.child_normals(2**32 + 1, 0)
        with pytest.raises(ValueError, match="start <= stop"):
            stream.child_state_words(5, 4)
        with pytest.raises(ValueError, match="0 <= n"):
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


class TestPerturbExample:
    def test_zero_variance_is_identity(self):
        cal = make_calibration(4, 3, 0.0, 0.0)
        form = QuadraticForm(q=np.array([0.1, 0.2, 0.3]), p=np.array([0.4, 0.5, 0.6]), s=0.7)
        out = perturb_example(form, cal, RngStream(0))
        assert len(out) == 1
        assert np.array_equal(out.Q[0], form.q)
        assert np.array_equal(out.P[0], form.p)
        assert out.S[0] == form.s

    def test_recorded_noise_reconstructs_release(self):
        cal = make_calibration(9, 2, 2.0, 3.0)
        form = QuadraticForm(q=np.array([0.1, -0.2]), p=np.array([0.3, 0.4]), s=1.0)
        out, u, r = perturb_example(form, cal, RngStream(5, path=(8,)), record_noise=True)
        assert np.array_equal(out.Q[0], form.q + u)
        assert np.array_equal(out.P[0], form.p - r)
        assert out.S[0] == form.s

    def test_deterministic_given_stream(self):
        cal = make_calibration(9, 2, 2.0, 3.0)
        form = QuadraticForm(q=np.zeros(2), p=np.zeros(2), s=0.0)
        a = perturb_example(form, cal, RngStream(5, path=(8,)))
        b = perturb_example(form, cal, RngStream(5, path=(8,)))
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.P, b.P)

    def test_dimension_mismatch_rejected(self):
        cal = make_calibration(9, 3, 1.0, 1.0)
        form = QuadraticForm(q=np.zeros(2), p=np.zeros(2), s=0.0)
        with pytest.raises(ValueError, match="dimension"):
            perturb_example(form, cal, RngStream(0))

    def test_moments_match_per_coordinate_scale(self):
        # 1e5 single-contributor draws at n=100, quad variance 2: the
        # released q deviates with per-coordinate variance 2/100 = 0.02.
        # Contributor i's quadratic noise is the first 3 of its 6 normals,
        # so all 1e5 releases come from one batched draw; a few rows are
        # checked against perturb_example itself.
        cal = make_calibration(100, 3, 2.0, 1.0)
        form = QuadraticForm(q=np.array([0.1, 0.2, 0.3]), p=np.zeros(3), s=0.0)
        root = RngStream(7, path=(50,))
        scale = cal.quad_noise_sd / math.sqrt(cal.n)
        released_q = form.q + root.child_normals(100_000, 6)[:, :3] * scale
        for i in (0, 1, 4_096, 99_999):
            single = perturb_example(form, cal, root.child(i))
            assert np.array_equal(released_q[i], single.Q[0])
        draws = released_q - form.q
        max_mean = np.abs(draws.mean(axis=0)).max()
        assert max_mean == pytest.approx(0.0011842876241235662, rel=1e-9)
        assert max_mean <= 4.0 * math.sqrt(0.02 / 100_000)
        variances = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(variances / 0.02 - 1.0) <= 0.05)


class TestPerturbDataset:
    def test_matches_per_example_substreams(self):
        n, d = 6, 2
        spec = linear_regression_loss(dim=d, radius=1.0)
        cal = make_calibration(n, d, 1.5, 2.5)
        gen = np.random.default_rng(17)
        x = gen.normal(size=(n, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True) * 2.0
        ds = Dataset(features=x, labels=gen.uniform(-1, 1, size=n))
        root = RngStream(21, path=(3,))
        released = perturb_dataset(ds, spec, cal, root)
        assert len(released) == n
        for i in range(n):
            single = perturb_example(spec.encoder(ds[i]), cal, root.child(i))
            assert np.array_equal(released.Q[i], single.Q[0])
            assert np.array_equal(released.P[i], single.P[0])
            assert released.S[i] == single.S[0]

    def test_size_mismatch_rejected(self):
        spec = linear_regression_loss(dim=2, radius=1.0)
        cal = make_calibration(5, 2, 1.0, 1.0)
        ds = Dataset(features=np.zeros((4, 2)), labels=np.zeros(4))
        with pytest.raises(ValueError, match="does not match calibration n"):
            perturb_dataset(ds, spec, cal, RngStream(0))

    def test_aggregate_variance_and_independence(self):
        # Column sums of the linear noise must have the full calibrated
        # variance (3.0 per coordinate), and distinct contributors'
        # draws must be uncorrelated.  1e4 repetitions at n=8, d=2.
        n, d = 8, 2
        spec = linear_regression_loss(dim=d, radius=1.0)
        cal = NoiseCalibration(
            n=n,
            budget=BUDGET,
            constants=spec.constants,
            fail_prob=0.005,
            delta_linear=0.005,
            tail_ratio=0.1,
            linear_noise_var=3.0,
            quad_noise_var=1.0,
        )
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
        assert variances == pytest.approx([2.92197234, 3.01970825], rel=1e-7)
        assert np.all(np.abs(variances / 3.0 - 1.0) <= 0.05)
        cov = float(np.cov(first, second, ddof=1)[0, 1])
        assert cov == pytest.approx(0.0012191992393091313, rel=1e-9)
        assert abs(cov) <= 4.0 * (cal.quad_noise_var / n) / math.sqrt(reps)


class TestGaussianRelease:
    def test_noise_scale_is_the_calibrated_sd(self):
        # reconstruct the exact draws from the same stream: the release
        # must be x + z * sd with sd = (1+1e-6) sqrt(2 ln(1.25/delta)) B/eps
        stream = RngStream(5, path=(99,))
        x = np.array([0.5, -0.25, 0.0, 1.0])
        z = stream.generator().standard_normal(4)
        out = gaussian_release(x, 1.0, PrivacyBudget(0.5, 0.01), stream)
        assert np.array_equal(out, x + z * 6.2150291352073985)

    def test_deterministic_given_stream(self):
        x = np.zeros(3)
        a = gaussian_release(x, 2.0, PrivacyBudget(0.3, 0.05), RngStream(1, path=(2,)))
        b = gaussian_release(x, 2.0, PrivacyBudget(0.3, 0.05), RngStream(1, path=(2,)))
        assert np.array_equal(a, b)

    def test_refuses_epsilon_at_or_above_one(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            gaussian_release(np.zeros(2), 1.0, PrivacyBudget(1.0, 0.01), RngStream(0))

    def test_rejects_bad_diameter_and_shape(self):
        with pytest.raises(ValueError, match="diameter"):
            gaussian_release(np.zeros(2), 0.0, PrivacyBudget(0.5, 0.01), RngStream(0))
        with pytest.raises(ValueError, match="1-D"):
            gaussian_release(np.zeros((2, 2)), 1.0, PrivacyBudget(0.5, 0.01), RngStream(0))


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

    def test_read_rejects_malformed_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty file"):
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
        with pytest.raises(ValueError, match="no data rows"):
            read_perturbed_csv(header_only)
