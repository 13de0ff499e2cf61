"""The benchmark's contract with the library, checked on one traced job.

``perfbench/run.py --trace 1`` measures its per-layer metrics at named
library functions, and a metric whose function has gone is dropped from
the result.  So a change that renames or removes one of those functions,
or that makes a metric non-finite, breaks the benchmark's result line
without failing a job.  One test runs one traced job of every workload
and checks what the runner would report, and one checks on traced
csv_ill and flagship jobs that a cell encodes its training set at most
twice.  Two more run the runner itself, on a short traced flagship run
and a one-job untraced verify run, and parse its last stdout line, the
result line, as strict JSON.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputdp
import inputdp.cli  # noqa: F401  (workloads call inputdp.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = [
    m["name"]
    for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
]


def _traced_job(name: str, workdir) -> tuple[object, Tracer, dict]:
    """Run one job of a workload at seed 0 under the tracer; returns the
    workload, the tracer and the job's per-layer metrics."""
    workload = WORKLOADS[name](inputdp, 0, str(workdir))
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        workload.job()
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    spans = layers.JobSpans(tracer.spans, 0, wall, workload)
    return workload, tracer, layers.job_metrics(spans, tracer.wrapped)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_job_reports_every_per_layer_metric(name, tmp_path):
    workload, tracer, metrics = _traced_job(name, tmp_path)
    assert workload.check(workload.output(), first=True) == []
    assert layers.absent(tracer.wrapped) == []
    assert {k: v for k, v in metrics.items() if not math.isfinite(v)} == {}
    # trace.overhead compares traced with untraced jobs; the runner adds it.
    assert set(PER_LAYER) - set(metrics) == {layers.OVERHEAD[0]}


@pytest.mark.parametrize("name", ["csv_ill", "flagship"])
def test_a_cell_encodes_its_training_set_at_most_twice(name, tmp_path):
    # Once for the clean learners and the objectives, which share one
    # encoding, and once inside the contributor release.
    _, tracer, metrics = _traced_job(name, tmp_path)
    assert layers.absent(tracer.wrapped) == []
    assert 0 < metrics["loss.encode_rows_per_train_row"] <= 2


def _reject_non_finite(constant: str):
    raise ValueError(f"result line holds the non-JSON constant {constant}")


def _result_line(workload: str, seconds: str, trace: str) -> dict:
    """Run perfbench/run.py and parse its last stdout line as strict JSON."""
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=PERFBENCH.parent,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1], parse_constant=_reject_non_finite)
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    return result


def test_traced_flagship_run_ends_with_its_result_line():
    result = _result_line("flagship", "1", "1")
    assert set(PER_LAYER) <= set(result["metrics"])


def test_untraced_verify_run_ends_with_its_result_line():
    # The untraced run is the one whose end-to-end metrics are compared.
    result = _result_line("verify", "0", "0")
    assert set(result["metrics"]) == {"setup_s", "job_s", "peak_rss_mb"}
