"""Differentially private learning of quadratic losses by randomizing
each contributor's sufficient statistics before aggregation.

The pipeline: a loss family factors each example into quadratic-form
statistics (``loss``); contributors add calibrated Gaussian noise to
their own statistics (``calibration``, ``perturb``); the server
aggregates the releases and solves a ball-constrained ridge problem
(``solver``); numerical verification tools check the probabilistic
claims end to end (``analysis``); and a deterministic experiment harness
compares the mechanism against objective/output-perturbation baselines
(``harness``, ``cli``).
"""

from .calibration import (
    CalibrationInfeasibleError,
    LocalPrivacyLevel,
    NoiseCalibration,
    NoiseRidgeBounds,
    calibrate,
    explicit_ridge,
    linear_noise_variance,
    local_dp_asymptote,
    local_dp_level,
    min_feasible_n,
    noise_ridge_bounds,
    quad_noise_threshold,
    recommend_reg_cap,
    ridge_floor,
)
from .core import (
    Dataset,
    DomainViolation,
    LossConstants,
    ModelVector,
    PrivacyBudget,
    project_to_ball,
    validate_dataset,
)
from .loss import (
    LossSpec,
    empirical_objective,
    linear_regression_loss,
    logistic_quadratic_loss,
    make_loss,
    predict,
)
from .perturb import (
    NoiseRecord,
    Release,
    RngStream,
    perturb_dataset,
    read_perturbed_csv,
    write_perturbed_csv,
)
from .solver import (
    QuadraticProgram,
    SolverResult,
    assemble_plain,
    assemble_released,
    learn_input_perturbed,
    learn_non_private,
    learn_objective_perturbed,
    learn_output_perturbed,
    load_model,
    minimize_ball_constrained,
    save_model,
)
from .analysis import (
    CoverageReport,
    dp_verifier_gaussian_1d,
    noise_free_gap,
    noise_ridge_coverage,
    reconstruct_objective_identity,
    run_check_suite,
    sample_noise_ridge,
    tail_check_chi_square,
    tail_check_gaussian,
    worst_case_quad_stats,
)
from .harness import (
    CellSummary,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    generate_synthetic,
    load_csv,
    report_csv_text,
    report_json_text,
    run_experiment,
)

__version__ = "0.1.0"
