"""Experiment harness: synthetic data, CSV loading, configuration, the
deterministic experiment driver, and report serialization.

The golden report files under tests/data/ were emitted by a pinned run
of this harness and assert byte-stability of the whole pipeline
(including across worker counts).  Monte-Carlo trend values are frozen
from pinned-seed runs; trend *shapes* (excess risk decreasing in n,
paired mechanisms converging) are asserted as inequalities.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from inputdp import (
    ExperimentConfig,
    RngStream,
    calibrate,
    emit_report,
    generate_synthetic,
    learn_non_private,
    load_csv,
    local_dp_level,
    make_loss,
    predict,
    recommend_reg_cap,
    report_csv_text,
    report_json_text,
    run_experiment,
)
from inputdp.harness import MECHANISMS
from tests.conftest import FLAGSHIP_N_GRID

DATA_DIR = Path(__file__).parent / "data"

#: Config whose report is pinned byte-for-byte in tests/data/.
GOLDEN_CONFIG = ExperimentConfig(
    task="linear_regression",
    mechanisms=("non_private", "input", "objective", "output"),
    n_grid=(64, 256),
    trials=3,
    epsilon=0.8,
    delta=0.01,
    dim=3,
    seed=11,
)


@pytest.fixture(scope="module")
def golden_report():
    return run_experiment(GOLDEN_CONFIG, workers=1)


class TestGenerateSynthetic:
    def test_deterministic_per_stream(self):
        a = generate_synthetic(50, 4, 0.1, RngStream(9, path=(1, 2)))
        b = generate_synthetic(50, 4, 0.1, RngStream(9, path=(1, 2)))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_streams_differ(self):
        a = generate_synthetic(50, 4, 0.1, RngStream(9, path=(1,)))
        b = generate_synthetic(50, 4, 0.1, RngStream(9, path=(2,)))
        assert not np.array_equal(a.features, b.features)

    def test_bounded_domain(self):
        ds = generate_synthetic(500, 6, 0.3, RngStream(4), radius=1.0)
        norms = np.linalg.norm(ds.features, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        assert np.all(np.abs(ds.labels) <= 1.0)

    def test_classification_labels_are_signs(self):
        ds = generate_synthetic(200, 3, 0.1, RngStream(6), task="logistic")
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_synthetic(0, 3, 0.1, RngStream(1))
        with pytest.raises(ValueError, match="unknown task"):
            generate_synthetic(10, 3, 0.1, RngStream(1), task="poisson")

    def test_noiseless_labels_are_recoverable(self):
        # With zero label noise the hidden model (norm 1/2, strictly
        # inside the unit ball) is the unconstrained least-squares
        # optimum, so the exact solve drives train RMSE to roundoff.  The
        # exact value is pinned from this library.
        ds = generate_synthetic(10_000, 5, 0.0, RngStream(3, path=(1,)))
        spec = make_loss("linear_regression", 1.0, 5)
        fit = learn_non_private(ds, spec, 0.0)
        rmse = float(np.sqrt(np.mean((ds.features @ fit.w - ds.labels) ** 2)))
        assert rmse < 1e-15
        assert rmse == pytest.approx(9.410138282237764e-17, rel=1e-9)


class TestLoadCsv:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b,y\n1.0,2.0,3.0\n-1.0,0.5,1.0\n0.0,-2.5,-4.0\n")
        return path

    def test_unscaled_passthrough(self, csv_path):
        ds, info = load_csv(csv_path, "y", scale=False)
        assert np.array_equal(ds.features, [[1.0, 2.0], [-1.0, 0.5], [0.0, -2.5]])
        assert np.array_equal(ds.labels, [3.0, 1.0, -4.0])
        assert info == {"feature_names": ["a", "b"], "target_column": "y"}

    def test_scaling_reaches_the_domain_boundary(self, csv_path):
        ds, info = load_csv(csv_path, "y", scale=True)
        norms = np.linalg.norm(ds.features, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(ds.labels).max() == pytest.approx(1.0, abs=1e-12)
        # The recorded parameters undo the transform exactly.
        raw = ds.features * info["feature_scale"] + np.asarray(info["feature_center"])
        expected = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, -2.5]])
        assert raw == pytest.approx(expected, abs=1e-12)
        labels = ds.labels * info["label_scale"] + info["label_center"]
        assert labels == pytest.approx([3.0, 1.0, -4.0], abs=1e-12)

    def test_label_threshold_binarizes_raw_target(self, csv_path):
        ds, info = load_csv(csv_path, "y", scale=True, label_threshold=1.0)
        assert np.array_equal(ds.labels, [1.0, -1.0, -1.0])
        assert info["label_threshold"] == 1.0
        assert "label_center" not in info

    def test_target_column_in_the_middle(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,y,b\n1.0,3.0,2.0\n-1.0,1.0,0.5\n")
        ds, info = load_csv(path, "y", scale=False)
        assert info["feature_names"] == ["a", "b"]
        assert np.array_equal(ds.features, [[1.0, 2.0], [-1.0, 0.5]])
        assert np.array_equal(ds.labels, [3.0, 1.0])

    def test_error_messages(self, tmp_path, csv_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("a,b,y\n")
        with pytest.raises(ValueError, match="need a header row and at least one data row"):
            load_csv(empty, "y")
        with pytest.raises(ValueError, match="no column named 'z'"):
            load_csv(csv_path, "z")
        only = tmp_path / "only.csv"
        only.write_text("y\n1.0\n")
        with pytest.raises(ValueError, match="no feature columns besides the target"):
            load_csv(only, "y")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="expected 3 fields, got 2"):
            load_csv(ragged, "y")
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,y\n1.0,oops,3.0\n")
        with pytest.raises(ValueError, match="non-numeric value"):
            load_csv(bad, "y")

    def test_nan_target_is_refused_under_a_label_threshold(self, tmp_path):
        # A NaN compares false with the threshold, so it would become label -1.
        path = tmp_path / "nan.csv"
        path.write_text("a,y\n0.1,1\n0.2,nan\n0.3,0\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: non-finite value$"):
            load_csv(path, "y", scale=False, label_threshold=0.5)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.mechanisms == ("non_private", "input", "objective", "output")
        assert config.metric_name == "rmse"
        assert config.budget.epsilon == 1.0

    def test_classification_metric_name(self):
        config = ExperimentConfig(task="logistic")
        assert config.metric_name == "accuracy"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"task": "poisson"}, "unknown task"),
            ({"mechanisms": ("input", "magic")}, "unknown mechanisms"),
            ({"mechanisms": ("input", "input")}, "duplicate mechanisms"),
            ({"n_grid": (128, 64)}, "strictly increasing"),
            ({"n_grid": (64, 64)}, "strictly increasing"),
            ({"n_grid": ()}, "non-empty positive"),
            ({"n_grid": (0, 4)}, "non-empty positive"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"dim": 2.5}, "dim must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"radius": 0.0}, "radius must be > 0"),
            ({"output_reg": 0.0}, "output_reg must be > 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"data": "parquet"}, "data must be 'synthetic' or 'csv'"),
            ({"data": "csv"}, "csv data source requires csv_path and target_column"),
            ({"dim": 0}, "dim must be >= 1"),
            ({"noise_sd": -0.1}, "noise_sd must be >= 0"),
            ({"test_fraction": 0.0}, r"test_fraction must lie in \(0, 1\)"),
            ({"test_fraction": 1.0}, r"test_fraction must lie in \(0, 1\)"),
            ({"epsilon": 0.0}, "epsilon must be > 0"),
            ({"delta": 1.5}, r"delta must lie in \(0, 1\)"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    def test_dict_round_trip(self):
        config = ExperimentConfig(n_grid=(32, 64), trials=2, seed=9)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"foo": 1})

    def test_from_dict_rejects_the_removed_slack_field(self):
        # The calibration slack is a library constant, so a config that
        # still carries it is refused rather than silently ignored.
        payload = ExperimentConfig().to_dict()
        assert "slack" not in payload
        with pytest.raises(ValueError, match=r"unknown config fields: \['slack'\]"):
            ExperimentConfig.from_dict({**payload, "slack": 1.0001})

    @pytest.mark.parametrize("field, value", [("alpha", 1.0), ("w_norm_estimate", None)])
    def test_from_dict_rejects_the_removed_budget_fields(self, field, value):
        # A run has one budget and one default ridge cap, so a config
        # that still carries the epsilon split or the w-norm hint is
        # refused rather than silently ignored.
        payload = ExperimentConfig().to_dict()
        assert field not in payload
        with pytest.raises(ValueError, match=rf"unknown config fields: \['{field}'\]"):
            ExperimentConfig.from_dict({**payload, field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_grid", [100.5, 400.9], r"n_grid entries must be integers, got \[100.5, 400.9\]"),
            ("n_grid", [64, 128.0], r"n_grid entries must be integers, got \[128.0\]"),
            ("trials", 2.5, "trials must be an integer, got 2.5"),
            ("trials", True, "trials must be an integer, got True"),
            ("seed", "3", "seed must be an integer, got '3'"),
            ("pool_size", 100.5, "pool_size must be an integer, got 100.5"),
        ],
    )
    def test_from_dict_refuses_values_that_are_not_integers(self, field, value, message):
        # A config read from JSON may carry floats; none is truncated.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({field: value})

    @pytest.mark.parametrize(
        "field, value", [("n_grid", "64"), ("mechanisms", "input"), ("n_grid", "")]
    )
    def test_from_dict_refuses_a_string_for_a_list(self, field, value):
        # A string is iterable, so tuple() would split it into characters.
        message = rf"^{field} must be a list, got the string '{value}'$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({field: value})


class TestRunExperiment:
    def test_non_private_cell_matches_a_direct_fit(self):
        # Replay pool generation and the (n, trial) split by hand and
        # check the reported cell carries exactly the direct fit's
        # numbers.
        config = ExperimentConfig(
            mechanisms=("non_private",), n_grid=(32,), trials=1, dim=3, seed=5
        )
        pool_size = math.ceil(1.25 * 32)
        pool = generate_synthetic(
            pool_size, config.dim, config.noise_sd, RngStream(5).child(0)
        )
        perm = RngStream(5).child(1, 32, 0).generator().permutation(pool_size)
        test_count = max(1, round(config.test_fraction * pool_size))
        test_set = pool.subset(perm[:test_count])
        train_set = pool.subset(perm[test_count : test_count + 32])
        spec = make_loss(config.task, config.radius, config.dim)
        direct = learn_non_private(train_set, spec, reg_coeff=0.0)
        expected = float(
            np.sqrt(np.mean((predict(spec, test_set.features, direct) - test_set.labels) ** 2))
        )

        cell = run_experiment(config).cell("non_private", 32)
        assert cell.trials == 1
        assert cell.excess_risk_mean == 0.0
        assert cell.excess_risk_sd == 0.0
        assert cell.metric_mean == expected
        assert cell.metric_sd == 0.0

    def test_same_seed_reports_are_byte_identical(self, golden_report):
        again = run_experiment(GOLDEN_CONFIG, workers=1)
        assert report_json_text(again) == report_json_text(golden_report)
        assert report_csv_text(again) == report_csv_text(golden_report)

    def test_worker_count_does_not_change_the_report(self, golden_report):
        parallel = run_experiment(GOLDEN_CONFIG, workers=2)
        assert report_json_text(parallel) == report_json_text(golden_report)

    def test_infeasible_n_is_reported_and_skipped(self):
        config = ExperimentConfig(
            mechanisms=("non_private", "input"),
            n_grid=(8, 64),
            trials=2,
            dim=3,
            seed=2,
        )
        report = run_experiment(config)
        assert report.calibrations["8"] == {"infeasible": True, "min_feasible_n": 27}
        with pytest.raises(KeyError):
            report.cell("input", 8)
        # Other mechanisms still ran at the infeasible n, and the input
        # mechanism still ran at the feasible one.
        assert report.cell("non_private", 8).trials == 2
        assert report.cell("input", 64).trials == 2
        assert set(report.local_privacy) == {"64"}

    def test_local_privacy_echo_matches_library(self, golden_report):
        budget = GOLDEN_CONFIG.budget
        spec = make_loss("linear_regression", 1.0, GOLDEN_CONFIG.dim)
        for n in GOLDEN_CONFIG.n_grid:
            cal = calibrate(budget, n, spec.constants)
            level = local_dp_level(cal, spec.bound_q, spec.bound_p)
            echoed = golden_report.local_privacy[str(n)]
            assert echoed["epsilon_constants_convention"] == level.epsilon_constants_convention
            assert echoed["epsilon_declared_bounds"] == level.epsilon_declared_bounds
            assert echoed["delta"] == level.delta
            assert echoed["noise_constant"] == level.noise_constant

    def test_default_reg_cap_is_the_recommended_cap(self):
        # reg_cap=None leaves the cap to the learners, whose default is
        # recommend_reg_cap(constants, budget) for both private solves.
        config = ExperimentConfig(
            mechanisms=("input", "objective"), n_grid=(64, 128), trials=2, dim=3, seed=6
        )
        spec = make_loss(config.task, config.radius, config.dim)
        explicit = ExperimentConfig.from_dict(
            {**config.to_dict(), "reg_cap": recommend_reg_cap(spec.constants, config.budget)}
        )
        default_report = run_experiment(config)
        explicit_report = run_experiment(explicit)
        assert default_report.cells == explicit_report.cells
        assert default_report.calibrations == explicit_report.calibrations

    def test_empty_mechanism_list_yields_header_only_csv(self):
        config = ExperimentConfig(mechanisms=(), n_grid=(16,), trials=1, dim=2)
        report = run_experiment(config)
        assert report.cells == ()
        assert report_csv_text(report) == "mechanism,n,metric,mean,sd,trials\n"

    def test_csv_data_source(self, tmp_path):
        gen = np.random.default_rng(123)
        features = gen.normal(size=(40, 3))
        labels = features @ np.array([0.5, -0.2, 0.1]) + 0.05 * gen.normal(size=40)
        lines = ["f1,f2,f3,y"]
        lines += [
            ",".join(repr(float(v)) for v in (*x, y)) for x, y in zip(features, labels)
        ]
        path = tmp_path / "pool.csv"
        path.write_text("\n".join(lines) + "\n")

        config = ExperimentConfig(
            data="csv",
            csv_path=str(path),
            target_column="y",
            mechanisms=("non_private", "output"),
            n_grid=(16,),
            trials=2,
            seed=3,
        )
        report = run_experiment(config)
        assert report.scale_info is not None
        assert report.scale_info["feature_names"] == ["f1", "f2", "f3"]
        assert report.scale_info["feature_scale"] > 0.0
        cell = report.cell("output", 16)
        assert cell.trials == 2
        assert np.isfinite(cell.metric_mean)

    def test_a_cell_factors_each_gram_matrix_once(self, tmp_path, eigh_calls):
        # One eigendecomposition for the clean training set (shared by
        # non_private, objective and output) and one for the release.
        gen = np.random.default_rng(7)
        table = gen.normal(size=(40, 4))
        path = tmp_path / "pool.csv"
        path.write_text(
            "f1,f2,f3,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        )
        config = ExperimentConfig(
            data="csv", csv_path=str(path), target_column="y", n_grid=(32,), trials=1, seed=3
        )
        report = run_experiment(config)
        assert {c.mechanism for c in report.cells} == set(MECHANISMS)
        assert len(eigh_calls) == 2

    @pytest.mark.parametrize("pool_size", [0, -5])
    @pytest.mark.parametrize(
        "source", [{}, {"data": "csv", "csv_path": "x.csv", "target_column": "y"}],
        ids=["synthetic", "csv"],
    )
    def test_pool_size_must_be_positive(self, source, pool_size):
        with pytest.raises(ValueError, match=f"pool_size must be >= 1, got {pool_size}"):
            ExperimentConfig(pool_size=pool_size, **source)

    def test_pool_size_errors(self, tmp_path):
        with pytest.raises(ValueError, match="exceeds available training examples"):
            run_experiment(
                ExperimentConfig(
                    mechanisms=("non_private",), n_grid=(64,), trials=1, dim=2, pool_size=50
                )
            )
        path = tmp_path / "tiny.csv"
        path.write_text("a,y\n1.0,0.5\n0.2,0.1\n0.1,0.9\n")
        with pytest.raises(ValueError, match="pool_size 10 exceeds CSV rows 3"):
            run_experiment(
                ExperimentConfig(
                    data="csv",
                    csv_path=str(path),
                    target_column="y",
                    mechanisms=("non_private",),
                    n_grid=(2,),
                    trials=1,
                    pool_size=10,
                )
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(ExperimentConfig(), workers=0)

    def test_cell_lookup_raises_for_missing_cells(self, golden_report):
        with pytest.raises(KeyError):
            golden_report.cell("input", 999)

    def test_objective_excess_risk_decays_with_n(self):
        # Frozen from a pinned-seed run: the paired-noise objective
        # baseline's mean excess risk on a 3-point grid.
        config = ExperimentConfig(
            task="linear_regression",
            mechanisms=("objective",),
            n_grid=(1024, 4096, 16384),
            trials=200,
            epsilon=1.0,
            delta=0.01,
            dim=5,
            seed=7,
        )
        report = run_experiment(config, workers=4)
        means = [report.cell("objective", n).excess_risk_mean for n in config.n_grid]
        assert means == pytest.approx(
            [0.005957521908869985, 0.00042614678463202523, 2.9720975264048983e-05],
            rel=1e-9,
        )
        assert means[0] > means[1] > means[2]


class TestReportSerialization:
    def test_golden_json_byte_match(self, golden_report):
        assert report_json_text(golden_report) == (DATA_DIR / "golden_report.json").read_text()

    def test_golden_csv_byte_match(self, golden_report):
        assert report_csv_text(golden_report) == (DATA_DIR / "golden_report.csv").read_text()

    def test_csv_carries_exactly_the_json_numbers(self, golden_report):
        payload = json.loads(report_json_text(golden_report))
        by_key = {(c["mechanism"], c["n"]): c for c in payload["cells"]}
        rows = report_csv_text(golden_report).splitlines()[1:]
        assert len(rows) == 2 * len(by_key)
        for row in rows:
            mechanism, n, metric, mean, sd, trials = row.split(",")
            cell = by_key[(mechanism, int(n))]
            field = "excess_risk" if metric == "excess_risk" else "metric"
            assert float(mean) == cell[f"{field}_mean"]
            assert float(sd) == cell[f"{field}_sd"]
            assert int(trials) == cell["trials"]

    def test_json_text_is_sorted_and_newline_terminated(self, golden_report):
        text = report_json_text(golden_report)
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_emit_report(self, golden_report, tmp_path):
        out = tmp_path / "report.csv"
        text = emit_report(golden_report, out, fmt="csv")
        assert out.read_text() == text == report_csv_text(golden_report)
        assert emit_report(golden_report, None) == report_json_text(golden_report)
        with pytest.raises(ValueError, match="format must be 'json' or 'csv'"):
            emit_report(golden_report, None, fmt="yaml")


class TestFlagshipTrends:
    """Shape invariants of the flagship comparison (shared session run)."""

    def test_private_excess_risk_trends_downward(self, flagship_run):
        report, _elapsed = flagship_run
        for mechanism in ("input", "objective"):
            means = [
                report.cell(mechanism, n).excess_risk_mean for n in FLAGSHIP_N_GRID
            ]
            assert all(m > 0.0 and np.isfinite(m) for m in means)
            inversions = sum(a < b for a, b in zip(means, means[1:]))
            assert inversions <= 1, (mechanism, means)
            assert means[-1] < means[0] / 10.0, (mechanism, means)

    def test_non_private_baseline_has_zero_excess(self, flagship_run):
        report, _elapsed = flagship_run
        for n in FLAGSHIP_N_GRID:
            assert report.cell("non_private", n).excess_risk_mean == 0.0

    def test_paired_mechanisms_converge_at_large_n(self, flagship_run):
        # Input and objective perturbation add the same-scale linear
        # tilt (paired draws), so their excess risks approach each other
        # as n grows.
        report, _elapsed = flagship_run
        gap = lambda n: abs(
            report.cell("input", n).excess_risk_mean
            - report.cell("objective", n).excess_risk_mean
        )
        scale = lambda n: max(
            report.cell("input", n).excess_risk_mean,
            report.cell("objective", n).excess_risk_mean,
        )
        assert gap(FLAGSHIP_N_GRID[-1]) <= 0.25 * scale(FLAGSHIP_N_GRID[-1])
