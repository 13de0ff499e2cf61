"""Domain types: datasets, ball projection, domain validation, and the
CSV reader, checked against the ``csv.reader`` + ``float`` reference in
tests/_oracles.py."""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inputdp
from inputdp import (
    Dataset,
    LossConstants,
    ModelVector,
    PrivacyBudget,
    Release,
    load_csv,
    read_perturbed_csv,
    write_perturbed_csv,
)
from inputdp import core
from tests._oracles import read_csv_reference


class TestProjectToBall:
    def test_outside_point_lands_on_sphere(self):
        projected = inputdp.project_to_ball(np.array([3.0, 4.0]), 1.0)
        assert projected.w == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_inside_point_unchanged_exactly(self):
        w = np.array([0.1, 0.2])
        projected = inputdp.project_to_ball(w, 1.0)
        assert np.array_equal(projected.w, np.array([0.1, 0.2]))

    def test_norm_scaled_to_radius(self):
        gen = np.random.default_rng(1)
        w = gen.standard_normal(6)
        w *= 7.3 / np.linalg.norm(w)
        projected = inputdp.project_to_ball(w, 2.0)
        assert np.linalg.norm(projected.w) == pytest.approx(2.0, abs=1e-12)

    def test_idempotent(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            w = gen.standard_normal(4) * 3.0
            once = inputdp.project_to_ball(w, 1.5).w
            twice = inputdp.project_to_ball(once, 1.5).w
            assert np.array_equal(once, twice)

    def test_never_increases_norm(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            w = gen.standard_normal(5) * gen.uniform(0, 4)
            projected = inputdp.project_to_ball(w, 1.0)
            assert np.linalg.norm(projected.w) <= min(1.0, np.linalg.norm(w)) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 100.0),
        radius=st.floats(1e-3, 1e3),
    )
    def test_radius_holds_in_every_summation_order(self, dim, seed, scale, radius):
        w = np.random.default_rng(seed).standard_normal(dim)
        w *= scale * radius / np.linalg.norm(w)
        once = inputdp.project_to_ball(w, radius).w
        left_to_right = 0.0
        for value in once.tolist():
            left_to_right += value * value
        assert math.sqrt(left_to_right) <= radius
        assert math.sqrt(math.fsum(v * v for v in once.tolist())) <= radius
        assert float(np.linalg.norm(once)) <= radius
        assert np.array_equal(inputdp.project_to_ball(once, radius).w, once)

    @pytest.mark.parametrize(
        "w, expected",
        [([1e200, 0.0], [1.0, 0.0]), ([3e200, -4e200], [0.6, -0.8]),
         ([1e308, 1e308], [math.sqrt(0.5), math.sqrt(0.5)])],
    )
    def test_overflowing_norm_keeps_direction(self, w, expected):
        # The squares overflow to inf, so dividing by the plain norm would
        # send these points to 0 rather than onto the sphere.
        projected = inputdp.project_to_ball(np.array(w), 1.0).w
        assert projected == pytest.approx(expected, abs=1e-15)
        assert float(np.linalg.norm(projected)) <= 1.0


class TestModelVector:
    def test_projects_at_construction(self):
        mv = ModelVector(w=np.array([2.0, 0.0]), radius=1.0)
        assert mv.w == pytest.approx([1.0, 0.0])

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ModelVector(w=np.array([0.0]), radius=0.0)

    @pytest.mark.parametrize("radius", [1e300, 1e155, 9.49e153, math.inf, math.nan])
    def test_rejects_radius_whose_square_overflows(self, radius):
        # Past about 9.48e153 the squares of a point on the sphere can
        # overflow, and the summation-order check would send [1e200, 0]
        # or [1e160, 1e160] to the zero vector.
        for w in ([1e200, 0.0], [1e160, 1e160]):
            with pytest.raises(ValueError, match="finite"):
                inputdp.project_to_ball(np.array(w), radius)

    @pytest.mark.parametrize("radius", [9.48e153, 1e150])
    def test_largest_radii_keep_the_sphere(self, radius):
        for w in ([1e200, 0.0], [1e160, 1e160], [radius / math.sqrt(3)] * 3):
            once = inputdp.project_to_ball(np.array(w), radius).w
            assert math.sqrt(math.fsum(v * v for v in once.tolist())) <= radius
            assert float(np.linalg.norm(once)) == pytest.approx(radius, rel=1e-12)


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), labels=np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.array([[np.nan, 0.0]]), labels=np.zeros(1))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=np.zeros((1, 1)), labels=np.array([np.inf]))

    def test_validate_dataset_all_zero_is_clean(self):
        ds = Dataset(features=np.zeros((5, 3)), labels=np.zeros(5))
        assert inputdp.validate_dataset(ds) == []

    def test_validate_dataset_flags_feature_norm(self):
        features = np.zeros((3, 2))
        features[1] = [1.5, 0.0]
        ds = Dataset(features=features, labels=np.zeros(3))
        violations = inputdp.validate_dataset(ds)
        assert len(violations) == 1
        v = violations[0]
        assert (v.index, v.kind) == (1, "feature_norm")
        assert v.value == pytest.approx(1.5)

    def test_validate_dataset_flags_label_bound(self):
        ds = Dataset(features=np.zeros((2, 2)), labels=np.array([0.0, -1.25]))
        violations = inputdp.validate_dataset(ds)
        assert [(v.index, v.kind) for v in violations] == [(1, "label_bound")]

    def test_violations_sorted_by_index_then_kind(self):
        features = np.zeros((4, 2))
        features[3] = [2.0, 0.0]
        features[0] = [1.1, 0.0]
        ds = Dataset(features=features, labels=np.array([0.0, 3.0, 0.0, 2.0]))
        keys = [(v.index, v.kind) for v in inputdp.validate_dataset(ds)]
        assert keys == sorted(keys)

    def test_subset_and_indexing(self):
        features = np.arange(12, dtype=float).reshape(6, 2) / 20.0
        ds = Dataset(features=features, labels=np.linspace(-1, 1, 6))
        sub = ds.subset(np.array([4, 1]))
        assert np.array_equal(sub.features[0], features[4])
        assert len(sub) == 2

    def test_arrays_read_only(self):
        ds = Dataset(features=np.zeros((2, 2)), labels=np.zeros(2))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestScalarTypes:
    def test_budget_accepts_large_epsilon(self):
        PrivacyBudget(epsilon=8.0, delta=0.01)

    def test_budget_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=0.01)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=1.0)

    def test_loss_constants_validation(self):
        LossConstants(lipschitz=2.0, smoothness=1.0, radius=1.0, dim=3)
        with pytest.raises(ValueError):
            LossConstants(lipschitz=0.0, smoothness=1.0, radius=1.0, dim=3)
        with pytest.raises(ValueError):
            LossConstants(lipschitz=1.0, smoothness=1.0, radius=1.0, dim=0)


def read_outcome(read, path):
    """What ``read`` makes of ``path``: the header and the array's shape
    and bytes, or the type and message of what it raises."""
    try:
        header, table = read(path)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc).__name__, str(exc)
    return header, table.shape, table.tobytes()


def no_fallback():
    """Fail if the ``csv.reader`` loop is entered."""
    return mock.patch.object(
        core, "_read_csv_rows", side_effect=AssertionError("fell back to the csv.reader loop")
    )


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)


class TestReadCsvTable:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.lists(st.lists(FINITE_FLOATS, min_size=k, max_size=k),
                               min_size=1, max_size=8)
        ),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_repr_tables_match_the_reference_bit_for_bit(
        self, tmp_path_factory, rows, line_end, final_newline
    ):
        header = [f"c{j}" for j in range(len(rows[0]))]
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
        text = line_end.join(lines) + (line_end if final_newline else "")
        path = tmp_path_factory.mktemp("repr") / "table.csv"
        path.write_bytes(text.encode())
        with no_fallback():
            observed = read_outcome(core._read_csv_table, path)
        assert observed == read_outcome(read_csv_reference, path)
        assert observed[2] == np.array(rows, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "text, accepted",
        [
            ("a,b\n1,2\n\n3,4\n", False),  # blank line in the middle
            ("a,b\n1,2\n\n", False),  # trailing blank line
            ("a,b\n1,2\n  \n", False),  # whitespace-only line
            ("a,b\r\n1,2\r\n\r\n", False),  # trailing blank CRLF line
            ('a,b\n"1.5",2\n', True),  # quoted field
            ('a,b\n"1\n",2\n', True),  # quoted line break inside a field
            ('"a,b",c\n1,2\n', True),  # quoted header field
            ("a,b\n1_0,2\n", True),  # float() takes underscores
            ("a,b\n1,#2\n", False),  # no comment character
            ("a,b\n", False),  # header only
            ("", False),  # empty file
            ("\n1\n", False),  # blank header
            ("a,b\n1,2\n1,2,3\n", False),  # ragged
            ("a,b\n1,2\n3\n", False),  # ragged, short
            ("a,b\n1,2,3\n4,5,6\n", False),  # every row wider than the header
            ("a,b\n1,oops\n", False),  # non-numeric
            ("a,b\n1,,2\n", False),  # empty field
            ("a,b\n0x10,2\n", False),  # hex
            ("a,b\n1d5,2\n", False),  # Fortran exponent
            ("a,b\n1\x1c,2\n", False),  # NumPy strips U+001C, float() does not
            ("a,b\n1,2\x1f\n", False),
            ("a,b\n 1.5 ,\t2\x0b\n", True),  # whitespace float() strips
            ("a,b\n\u30001,2\u2028\n", True),  # Unicode spaces float() strips
            ("a,b\n\u0661,2\n", True),  # Arabic-Indic digit one
            ("a,b\r1,2\r3,4\r", True),  # CR line ends
            ("a,b\n1,2", True),  # no final newline
            ("a,b\n1,2\nnan,3\n", False),  # non-finite
            ("a,b\n1e999,2\n", False),  # overflows to inf
            ("a,b\n1\x00,2\n", False),  # NUL
            ("a\n" + "0" * 131072 + "1\n", False),  # over csv.field_size_limit()
        ],
    )
    def test_edge_files_match_the_reference(self, tmp_path, text, accepted):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        observed = read_outcome(core._read_csv_table, path)
        assert observed == read_outcome(read_csv_reference, path)
        assert (len(observed) == 3) == accepted

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"a\nb",c\n1,2\n1,x\n', ":4: non-numeric value"),  # header spans lines 1-2
            ('"a\nb",c\n1,2\n1,nan\n', ":4: non-finite value"),
            ('a,b\n"1\n",2\n1,x\n', ":4: non-numeric value"),  # body row spans lines 2-3
            ('a,b\n"1\n",2\n1,nan\n', ":4: non-finite value"),
            ('a,b\n1,2\n"1\n",x\n', ":3: non-numeric value"),  # a row's first line
        ],
    )
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "lines.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}{message}")):
            core._read_csv_table(path)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01.,-+e \t\r\n\"_#xinf\x0b\x1c\u3000\u0661", max_size=40))
    def test_any_text_matches_the_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "text.csv"
        path.write_bytes(text.encode())
        assert read_outcome(core._read_csv_table, path) == read_outcome(read_csv_reference, path)

    def test_benchmark_style_files_never_fall_back(self, tmp_path):
        gen = np.random.default_rng(5)
        released = Release(
            Q=gen.normal(size=(300, 4)), P=gen.normal(size=(300, 4)), S=gen.normal(size=300)
        )
        released_path = tmp_path / "released.csv"
        write_perturbed_csv(released_path, released)
        table = np.column_stack([gen.normal(size=(300, 5)) * [1e-3, 1.0, 1e3, 1e-300, 1e300],
                                 gen.normal(size=300)])
        raw_path = tmp_path / "raw.csv"
        raw_path.write_text(
            "x0,x1,x2,x3,x4,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        )
        with no_fallback():
            back = read_perturbed_csv(released_path)
            dataset, _ = load_csv(raw_path, "y", scale=False)
        assert np.array_equal(back.Q, released.Q) and np.array_equal(back.P, released.P)
        assert np.array_equal(back.S, released.S)
        assert np.array_equal(dataset.features, table[:, :5])
        assert np.array_equal(dataset.labels, table[:, 5])

        # The same hook does see a file only the csv.reader loop accepts.
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('a,y\n"1.5",2\n')
        with mock.patch.object(core, "_read_csv_rows", wraps=core._read_csv_rows) as loop:
            load_csv(quoted, "y", scale=False)
        loop.assert_called_once_with(quoted)
