"""Per-layer metrics computed from one traced job's spans.

Each metric names the wrapped functions it is measured at.  If any of
them no longer exists in the library, the metric is reported as absent
rather than as zero.  Times are self times (a span's duration minus its
children's) unless stated otherwise.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import LAYERS, span_times

LEARNERS = (
    "solver.learn_non_private",
    "solver.learn_input_perturbed",
    "solver.learn_objective_perturbed",
    "solver.learn_output_perturbed",
)
ENCODE = "loss.LossSpec.encode_dataset"
PERTURB = "perturb.perturb_dataset"
GENERATOR = "perturb.RngStream.generator"
WRITE = "perturb.write_perturbed_csv"
READ = "perturb.read_perturbed_csv"
SOLVE = "solver.minimize_ball_constrained"
PROGRAM = "solver.QuadraticProgram.__post_init__"
SUITE = "analysis.run_check_suite"
DATASET = "core.Dataset.__post_init__"


class JobSpans:
    """Totals over the spans of one job, keyed by span name."""

    def __init__(self, spans: list[list], offset: int, wall: float, workload):
        self_time, layer_time = span_times(spans, offset)
        self.wall = wall
        self.workload = workload
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self.busy = defaultdict(float)
        self.layer_calls = defaultdict(int)
        self.probes = defaultdict(list)
        self.top_s = 0.0
        for span, own, layer in zip(spans, self_time, layer_time):
            name = span[0]
            self.calls[name] += 1
            self.self_s[name] += own
            self.layer_s[name] += layer
            self.busy[name.split(".", 1)[0]] += own
            self.layer_calls[name.split(".", 1)[0]] += 1
            if span[5] is not None:
                self.probes[name].append(span[5])
            if span[3] < 0:
                self.top_s += span[2] - span[1]

    def self_of(self, *names: str) -> float:
        return sum(self.self_s[n] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _file_rows(paths) -> int:
    rows = 0
    for path in paths:
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def _iterations(j: JobSpans) -> list[int]:
    return [it for it, _ in j.probes[SOLVE] if it is not None]


# (name, unit, better, functions it is measured at, value from JobSpans)
METRICS = [
    ("harness.cells", "count", "higher", (), lambda j: j.workload.cells),
    ("harness.self_s", "s", "lower", ("harness.run_experiment",), lambda j: j.self_of("harness.run_experiment")),
    ("harness.load_csv_s", "s", "lower", ("harness.load_csv",), lambda j: j.self_of("harness.load_csv")),
    ("calibration.calls", "count", "lower", (), lambda j: j.layer_calls["calibration"]),
    ("loss.encode_calls", "count", "lower", (ENCODE,), lambda j: j.calls[ENCODE]),
    ("loss.encode_rows", "count", "lower", (ENCODE,), lambda j: sum(j.probes[ENCODE])),
    ("loss.encode_s", "s", "lower", (ENCODE,), lambda j: j.self_of(ENCODE)),
    ("loss.encode_rows_per_train_row", "ratio", "lower", (ENCODE,),
     lambda j: _ratio(sum(j.probes[ENCODE]), j.workload.train_rows)),
    ("loss.objective_s", "s", "lower", ("loss.empirical_objective",), lambda j: j.self_of("loss.empirical_objective")),
    ("loss.predict_s", "s", "lower", ("loss.predict",), lambda j: j.self_of("loss.predict")),
    ("perturb.contributors", "count", "higher", (PERTURB,), lambda j: sum(j.probes[PERTURB])),
    # The release path's own time: everything under perturb_dataset
    # except the encode span (per-contributor generators included).
    ("perturb.release_s", "s", "lower", (PERTURB,), lambda j: j.layer_s[PERTURB]),
    ("perturb.us_per_contributor", "us", "lower", (PERTURB,),
     lambda j: 1e6 * _ratio(j.layer_s[PERTURB], sum(j.probes[PERTURB]))),
    ("perturb.generators", "count", "lower", (GENERATOR,), lambda j: j.calls[GENERATOR]),
    ("perturb.generators_per_contributor", "ratio", "lower", (GENERATOR, PERTURB),
     lambda j: _ratio(j.calls[GENERATOR], sum(j.probes[PERTURB]))),
    ("perturb.csv_write_s", "s", "lower", (WRITE,), lambda j: j.self_of(WRITE)),
    ("perturb.csv_write_bytes", "B", "lower", (WRITE,), lambda j: _file_bytes(j.probes[WRITE])),
    ("perturb.csv_read_s", "s", "lower", (READ,), lambda j: j.self_of(READ)),
    ("perturb.csv_read_rows", "count", "higher", (READ,), lambda j: _file_rows(j.probes[READ])),
    ("solver.solves", "count", "lower", (SOLVE,), lambda j: j.calls[SOLVE]),
    ("solver.iterations", "count", "lower", (SOLVE,), lambda j: sum(_iterations(j))),
    ("solver.iterations_max", "count", "lower", (SOLVE,), lambda j: max(_iterations(j), default=0)),
    ("solver.solve_s", "s", "lower", (SOLVE,), lambda j: j.self_of(SOLVE)),
    ("solver.nonconverged", "count", "lower", (SOLVE,),
     lambda j: sum(1 for _, converged in j.probes[SOLVE] if converged is False)),
    ("solver.programs", "count", "lower", (PROGRAM,), lambda j: j.calls[PROGRAM]),
    ("solver.programs_per_solve", "ratio", "lower", (PROGRAM, SOLVE),
     lambda j: _ratio(j.calls[PROGRAM], j.calls[SOLVE])),
    ("solver.program_s", "s", "lower", (PROGRAM,), lambda j: j.self_of(PROGRAM)),
    ("solver.assemble_s", "s", "lower", ("solver.assemble_plain", "solver.assemble_released"),
     lambda j: j.self_of("solver.assemble_plain", "solver.assemble_released")),
    ("solver.learner_self_s", "s", "lower", LEARNERS, lambda j: j.self_of(*LEARNERS)),
    ("analysis.checks", "count", "higher", (SUITE,), lambda j: sum(n for n, _ in j.probes[SUITE])),
    ("analysis.checks_failed", "count", "lower", (SUITE,), lambda j: sum(f for _, f in j.probes[SUITE])),
    ("analysis.coverage_s", "s", "lower", ("analysis.noise_ridge_coverage", "analysis.sample_noise_ridge"),
     lambda j: j.self_of("analysis.noise_ridge_coverage", "analysis.sample_noise_ridge")),
    ("analysis.tail_s", "s", "lower", ("analysis.tail_check_chi_square", "analysis.tail_check_gaussian"),
     lambda j: j.self_of("analysis.tail_check_chi_square", "analysis.tail_check_gaussian")),
    ("analysis.dp_verifier_s", "s", "lower", ("analysis.dp_verifier_gaussian_1d",),
     lambda j: j.self_of("analysis.dp_verifier_gaussian_1d")),
    ("analysis.identity_s", "s", "lower", ("analysis.reconstruct_objective_identity",),
     lambda j: j.self_of("analysis.reconstruct_objective_identity")),
    ("analysis.gap_s", "s", "lower", ("analysis.noise_free_gap",), lambda j: j.self_of("analysis.noise_free_gap")),
    ("analysis.suite_self_s", "s", "lower", (SUITE,), lambda j: j.self_of(SUITE)),
    ("cli.self_s", "s", "lower", ("cli.main",), lambda j: j.self_of("cli.main")),
    ("cli.save_model_s", "s", "lower", ("solver.save_model",), lambda j: j.self_of("solver.save_model")),
    ("core.datasets", "count", "lower", (DATASET,), lambda j: j.calls[DATASET]),
    ("core.dataset_s", "s", "lower", (DATASET,), lambda j: j.self_of(DATASET)),
    ("core.validate_s", "s", "lower", ("core.validate_dataset",), lambda j: j.self_of("core.validate_dataset")),
] + [
    # Each layer's busy time: the self time of every span it defines.
    (f"{layer}.busy_s", "s", "lower", (), lambda j, layer=layer: j.busy[layer])
    for layer in LAYERS
] + [
    # Share of the traced job's wall time inside any layer span.
    ("trace.coverage", "ratio", "higher", (), lambda j: j.top_s / j.wall),
]

# Traced job wall time over untraced, minus one; computed by the runner.
OVERHEAD = ("trace.overhead", "ratio", "lower")


def job_metrics(j: JobSpans, wrapped: set[str]) -> dict[str, float]:
    """Every metric whose functions all still exist, for one job."""
    return {
        name: value(j)
        for name, _unit, _better, needs, value in METRICS
        if all(fn in wrapped for fn in needs)
    }


def absent(wrapped: set[str]) -> list[str]:
    """Metrics that cannot be measured because a function is gone."""
    return [name for name, _u, _b, needs, _v in METRICS if not all(fn in wrapped for fn in needs)]


def units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in METRICS} | {OVERHEAD[0]: OVERHEAD[1]}
