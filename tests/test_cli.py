"""Command-line interface: every subcommand drives the library end to
end, so each test replays the same calls through the public API and
checks the CLI's output matches byte-for-byte."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputdp
from inputdp import (
    ExperimentConfig,
    PrivacyBudget,
    RngStream,
    calibrate,
    learn_input_perturbed,
    load_csv,
    load_model,
    local_dp_level,
    make_loss,
    perturb_dataset,
    read_perturbed_csv,
    recommend_reg_cap,
    report_csv_text,
    report_json_text,
    run_experiment,
)
from inputdp.cli import main


@pytest.fixture()
def raw_csv(tmp_path):
    gen = np.random.default_rng(321)
    features = gen.normal(size=(40, 3))
    labels = features @ np.array([0.4, -0.3, 0.2]) + 0.05 * gen.normal(size=40)
    lines = ["f1,f2,f3,y"]
    lines += [",".join(repr(float(v)) for v in (*x, y)) for x, y in zip(features, labels)]
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCalibrateCommand:
    def test_payload_matches_library(self, capsys):
        rc = main(
            ["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "500", "--dim", "4"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)

        budget = PrivacyBudget(epsilon=0.5, delta=0.01)
        spec = make_loss("linear_regression", 1.0, 4)
        cal = calibrate(budget, 500, spec.constants)
        level = local_dp_level(cal, spec.bound_q, spec.bound_p)
        assert payload["calibration"] == cal.to_dict()
        assert payload["ridge_floor"] == cal.ridge_floor
        assert payload["recommended_reg_cap"] == recommend_reg_cap(spec.constants, budget)
        assert payload["local_privacy"] == {
            "epsilon_constants_convention": level.epsilon_constants_convention,
            "epsilon_declared_bounds": level.epsilon_declared_bounds,
            "delta": level.delta,
            "noise_constant": level.noise_constant,
        }

    def test_epsilon_help_states_what_the_budget_enforces(self, capsys):
        # PrivacyBudget takes any finite epsilon > 0, and so does the CLI.
        with pytest.raises(SystemExit) as excinfo:
            main(["calibrate", "--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--epsilon EPSILON privacy epsilon, > 0" in help_text
        assert main(
            ["calibrate", "--epsilon", "2", "--delta", "0.01", "--n", "100", "--dim", "2"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["calibration"]["epsilon"] == 2.0

    @pytest.mark.parametrize("task, radius", [("linear_regression", "-1"), ("logistic", "-2")])
    def test_bad_radius_is_named(self, capsys, task, radius):
        # Both radii give lipschitz = 0 (radius + 1 and radius/4 + 1/2); the
        # error names the value the user set.
        rc = main(["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "100",
                   "--dim", "2", "--task", task, f"--radius={radius}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "inputdp calibrate: error: radius must be positive and finite"
        )

    @pytest.mark.parametrize("radius, epsilon", [("1e150", "1e-10"), ("1e300", "0.8")])
    def test_refuses_infinite_noise_variance(self, capsys, radius, epsilon):
        # The variance would be inf, which json.dumps writes as the
        # non-JSON token Infinity; the calibration refuses it instead.
        rc = main(["calibrate", "--epsilon", epsilon, "--delta", "0.01", "--n", "100",
                   "--dim", "3", "--radius", radius])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inputdp calibrate: error: ")
        assert "linear_noise_var is inf" in captured.err

    def test_infeasible_calibration_ends_without_a_traceback(self, capsys):
        rc = main(["calibrate", "--epsilon", "1", "--delta", "0.01", "--n", "5", "--dim", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inputdp calibrate: error: ")
        assert len(captured.err.splitlines()) == 1

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "cal.json"
        rc = main(
            ["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "100",
             "--dim", "2", "--out", str(out)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        text = out.read_text()
        assert text.endswith("\n")
        assert "calibration" in json.loads(text)


class TestPerturbLearnPipeline:
    def test_csv_pipeline_matches_library_calls(self, raw_csv, tmp_path, capsys):
        released_path = tmp_path / "released.csv"
        rc = main(
            ["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
             "--target", "y", "--seed", "5", "--out", str(released_path)]
        )
        assert rc == 0
        assert f"wrote 40 released rows to {released_path}" in capsys.readouterr().out

        dataset, _ = load_csv(raw_csv, "y", scale=True)
        spec = make_loss("linear_regression", 1.0, 3)
        budget = PrivacyBudget(epsilon=0.8, delta=0.01)
        cal = calibrate(budget, 40, spec.constants)
        expected = perturb_dataset(dataset, spec, cal, RngStream(5, path=(3,)))
        released = read_perturbed_csv(released_path)
        assert len(released) == 40
        assert np.array_equal(released.Q, expected.Q)
        assert np.array_equal(released.P, expected.P)
        assert np.array_equal(released.S, expected.S)

        model_path = tmp_path / "model.json"
        rc = main(
            ["learn", "--epsilon", "0.8", "--delta", "0.01", "--in", str(released_path),
             "--out", str(model_path)]
        )
        assert rc == 0
        assert f"wrote model (dim 3) to {model_path}" in capsys.readouterr().out

        model, payload = load_model(model_path)
        assert payload["mechanism"] == "input"
        assert "seed" not in payload
        assert payload["calibration"] == cal.to_dict()
        direct = learn_input_perturbed(
            released, cal, reg_cap=recommend_reg_cap(spec.constants, budget)
        )
        assert np.array_equal(model.w, direct.w)

    def test_learn_honors_explicit_reg_cap(self, raw_csv, tmp_path, capsys):
        released_path = tmp_path / "released.csv"
        main(
            ["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
             "--target", "y", "--out", str(released_path)]
        )
        model_path = tmp_path / "model.json"
        rc = main(
            ["learn", "--epsilon", "0.8", "--delta", "0.01", "--in", str(released_path),
             "--reg-cap", "9.5", "--out", str(model_path)]
        )
        assert rc == 0
        capsys.readouterr()
        model, _ = load_model(model_path)
        spec = make_loss("linear_regression", 1.0, 3)
        budget = PrivacyBudget(epsilon=0.8, delta=0.01)
        released = read_perturbed_csv(released_path)
        cal = calibrate(budget, len(released), spec.constants)
        direct = learn_input_perturbed(released, cal, reg_cap=9.5)
        assert np.array_equal(model.w, direct.w)

    def test_learn_never_reads_the_s_column(self, raw_csv, tmp_path, capsys):
        released_path = tmp_path / "released.csv"
        main(
            ["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
             "--target", "y", "--out", str(released_path)]
        )
        lines = released_path.read_text().splitlines()
        zeroed_path = tmp_path / "zeroed.csv"
        zeroed_path.write_text(
            "\n".join([lines[0]] + [row.rsplit(",", 1)[0] + ",0.0" for row in lines[1:]]) + "\n"
        )
        assert not np.array_equal(
            read_perturbed_csv(zeroed_path).S, read_perturbed_csv(released_path).S
        )
        models = []
        for path in (released_path, zeroed_path):
            model_path = tmp_path / f"model_{path.stem}.json"
            rc = main(
                ["learn", "--epsilon", "0.8", "--delta", "0.01", "--in", str(path),
                 "--out", str(model_path)]
            )
            assert rc == 0
            models.append(model_path.read_bytes())
        capsys.readouterr()
        assert models[0] == models[1]


    def test_seedless_runs_draw_fresh_noise(self, raw_csv, tmp_path, capsys):
        # Without --seed the noise is keyed by a secret seed: two runs
        # differ, and seed 0's noise does not strip either release.
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            rc = main(["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
                       "--target", "y", "--out", str(path)])
            assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        first, second = (read_perturbed_csv(path) for path in paths)
        assert not np.array_equal(first.Q, second.Q)
        assert not np.array_equal(first.P, second.P)

        dataset, _ = load_csv(raw_csv, "y", scale=True)
        spec = make_loss("linear_regression", 1.0, 3)
        cal = calibrate(PrivacyBudget(epsilon=0.8, delta=0.01), 40, spec.constants)
        _, record = perturb_dataset(
            dataset, spec, cal, RngStream(0, path=(3,)), record_noise=True
        )
        q_clean, p_clean, _ = spec.encode_dataset(dataset)
        for released in (first, second):
            assert not np.allclose(released.Q - record.quad_noise, q_clean, rtol=0.0, atol=1e-6)
            assert not np.allclose(released.P + record.linear_noise, p_clean, rtol=0.0, atol=1e-6)

    def test_fixed_seed_is_reproducible_and_warned_about(self, raw_csv, tmp_path, capsys):
        outputs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            rc = main(["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
                       "--target", "y", "--seed", "7", "--out", str(path)])
            assert rc == 0
            captured = capsys.readouterr()
            assert "--seed" not in captured.out
            assert captured.err == (
                "inputdp perturb: warning: anyone who knows --seed can recompute the noise "
                "and remove it\n"
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_help_says_it_exposes_the_noise(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["perturb", "--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "anyone who knows the seed can remove the noise" in help_text

    def test_missing_input_ends_without_a_traceback(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        rc = main(["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(missing),
                   "--target", "y", "--out", str(tmp_path / "released.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inputdp perturb: error: ")
        assert str(missing) in captured.err

    def test_non_finite_values_are_named_by_line(self, raw_csv, tmp_path, capsys):
        lines = raw_csv.read_text().splitlines()
        raw_nan = tmp_path / "raw_nan.csv"
        raw_nan.write_text("\n".join(lines[:3] + ["nan,0.1,0.2,0.3"] + lines[4:]) + "\n")
        rc = main(["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_nan),
                   "--target", "y", "--out", str(tmp_path / "unused.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"inputdp perturb: error: {raw_nan}:4: non-finite value\n"

        released_path = tmp_path / "released.csv"
        main(["perturb", "--epsilon", "0.8", "--delta", "0.01", "--in", str(raw_csv),
              "--target", "y", "--out", str(released_path)])
        rows = released_path.read_text().splitlines()
        rows[5] = "inf" + rows[5][rows[5].index(","):]
        released_inf = tmp_path / "released_inf.csv"
        released_inf.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        rc = main(["learn", "--epsilon", "0.8", "--delta", "0.01", "--in", str(released_inf),
                   "--out", str(tmp_path / "model.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"inputdp learn: error: {released_inf}:6: non-finite value\n"
        )


class TestExperimentCommand:
    def test_flag_overrides_and_stdout_json(self, capsys):
        rc = main(
            ["experiment", "--seed", "11", "--epsilon", "0.8", "--trials", "2",
             "--mechanisms", "non_private,input", "--n-grid", "64"]
        )
        assert rc == 0
        config = ExperimentConfig(
            mechanisms=("non_private", "input"),
            n_grid=(64,),
            trials=2,
            epsilon=0.8,
            seed=11,
        )
        assert capsys.readouterr().out == report_json_text(run_experiment(config))

    def test_config_file_with_override_and_csv_out(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "task": "linear_regression",
                    "mechanisms": ["non_private"],
                    "n_grid": [32],
                    "trials": 1,
                    "dim": 3,
                    "seed": 4,
                }
            )
        )
        out = tmp_path / "report.csv"
        rc = main(
            ["experiment", "--config", str(config_path), "--trials", "2",
             "--format", "csv", "--out", str(out), "--workers", "2"]
        )
        assert rc == 0
        assert f"wrote csv report to {out}" in capsys.readouterr().out
        config = ExperimentConfig(
            mechanisms=("non_private",), n_grid=(32,), trials=2, dim=3, seed=4
        )
        assert out.read_text() == report_csv_text(run_experiment(config))


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys, tmp_path):
        out = tmp_path / "checks.json"
        rc = main(["verify", "--seed", "0", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "16/16 checks passed"
        assert len(lines) == 17
        assert all(line.startswith("PASS ") for line in lines[:-1])
        records = json.loads(out.read_text())
        assert len(records) == 16
        for record in records:
            assert set(record) == {"check", "params", "statistic", "bound", "direction", "pass"}
            assert record["pass"] is True


class TestArgumentParsing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "100"],
            ["frobnicate"],
            ["experiment", "--format", "yaml"],
            [],
            # The calibration slack is a constant and learn draws nothing,
            # so these flags are gone.
            ["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "100", "--dim", "2",
             "--slack", "1.5"],
            ["perturb", "--epsilon", "0.5", "--delta", "0.01", "--in", "raw.csv", "--target",
             "y", "--out", "released.csv", "--slack", "1.5"],
            ["learn", "--epsilon", "0.5", "--delta", "0.01", "--in", "released.csv", "--out",
             "model.json", "--seed", "5"],
            # A run has one budget, so there is no epsilon split to set.
            ["calibrate", "--epsilon", "0.5", "--delta", "0.01", "--n", "100", "--dim", "2",
             "--alpha", "1.0"],
            ["perturb", "--epsilon", "0.5", "--delta", "0.01", "--in", "raw.csv", "--target",
             "y", "--out", "released.csv", "--alpha", "1.0"],
            ["learn", "--epsilon", "0.5", "--delta", "0.01", "--in", "released.csv", "--out",
             "model.json", "--alpha", "1.0"],
            ["experiment", "--alpha", "1.0"],
        ],
    )
    def test_bad_invocations_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "n_grid, bad", [("100.5", "'100.5'"), ("64, 2e3", "'2e3'"), ("64,x,128", "'x'")]
    )
    def test_bad_n_grid_is_named(self, n_grid, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--n-grid", n_grid])
        assert excinfo.value.code == 2
        assert f"argument --n-grid: invalid int value: {bad}" in capsys.readouterr().err

    def test_installed_entry_point(self, tmp_path):
        """The CLI runs as its own process, importing this inputdp."""
        env = {**os.environ, "PYTHONPATH": str(Path(inputdp.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "inputdp", "calibrate", "--epsilon", "0.5",
             "--delta", "0.01", "--n", "100", "--dim", "2"],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        payload = json.loads(result.stdout)
        assert payload["calibration"]["n"] == 100

    def test_script_entry_point_targets_main(self):
        """The ``inputdp`` script that an install generates calls this main."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["inputdp"]
        assert target == "inputdp.cli:main"
        module_name, attr = target.split(":")
        assert getattr(importlib.import_module(module_name), attr) is main
