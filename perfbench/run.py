"""Pipeline benchmark for inputdp.

Runs one workload as a closed loop: a single client in one process
issues jobs back to back (``workers = 1``) for about ``--seconds``
seconds, checks every job's output, and prints each metric by name with
its unit and sample count.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced jobs and reports the per-layer metrics
of the traced ones, the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>.csv``.  Run it from the repository root; it
imports the package from ``src/`` and builds nothing.  The exit code is 0
only when every job succeeded and passed its checks.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: with a single client the
# benchmark measures the program, not how the scheduler shares cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import layers
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import inputdp, inputdp.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup() -> list[float]:
    """Import time of the package in fresh processes, after one unmeasured
    import that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def machine_facts(dp) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(dp, "kernel_backend", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}",
        "kernel_backend": backend() if backend else "absent",
    }


class Job(NamedTuple):
    traced: bool
    wall: float
    phases: dict
    spans: tuple[int, int]  # this job's slice of the tracer's spans
    ok: bool


def run_jobs(workload, seconds: float, tracer) -> list[Job]:
    """Closed loop until the next job would end past ``seconds``.

    With a tracer, even-numbered jobs run untraced and odd ones traced;
    every job's output must equal the first (untraced) job's bytes.
    """
    jobs: list[Job] = []
    reference = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.job = len(jobs)
            tracer.install()
        problems = []
        t0 = time.perf_counter()
        try:
            phases = workload.job()
        except Exception as exc:  # a failed job is counted, and the loop goes on
            phases = {}
            problems.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        if traced:
            tracer.remove()
        if not problems:
            try:
                output = workload.output()
                problems += workload.check(output, first=reference is None)
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            else:
                if reference is None:
                    reference = output
                elif output != reference:
                    problems.append("output bytes differ from the first job's")
        for problem in problems:
            print(f"job {len(jobs)} ({'traced' if traced else 'untraced'}): {problem}", file=sys.stderr)
        last_span = len(tracer.spans) if traced else 0
        jobs.append(Job(traced, wall, phases, (first_span, last_span), not problems))
        elapsed = time.perf_counter() - start
        typical = statistics.median(j.wall for j in jobs)
        if len(jobs) >= (2 if tracer else 1) and elapsed + typical > seconds:
            return jobs


def end_to_end(workload, jobs: list[Job], setup: list[float]) -> tuple[dict, list]:
    """The end-to-end metrics, and the workload's own named metrics."""
    ok = [j for j in jobs if j.ok]
    walls = [j.wall for j in ok or jobs]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "job_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    if not ok:
        return metrics, []
    phases = {key: [j.phases[key] for j in ok] for key in ok[0].phases}
    return metrics, workload.summary(walls, phases)


def per_layer(workload, jobs: list[Job], tracer: Tracer) -> tuple[dict, list]:
    """Median per-layer metrics over the traced jobs, and absent ones."""
    traced = [j for j in jobs if j.traced]
    per_job = []
    for j in traced:
        lo, hi = j.spans
        spans = layers.JobSpans(tracer.spans[lo:hi], lo, j.wall, workload)
        per_job.append(layers.job_metrics(spans, tracer.wrapped))
    units = layers.units()
    metrics = {
        name: (statistics.median(values[name] for values in per_job), units[name], len(per_job))
        for name in per_job[0]
    }
    untraced_wall = statistics.median(j.wall for j in jobs if not j.traced)
    overhead = statistics.median(j.wall for j in traced) / untraced_wall - 1.0
    metrics["trace.overhead"] = (overhead, units["trace.overhead"], len(traced))
    return metrics, layers.absent(tracer.wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "inputdp" / "__init__.py").is_file():
        print(f"error: no inputdp package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import inputdp as dp
    import inputdp.cli  # noqa: F401  (cli is not imported by the package)

    facts = machine_facts(dp)
    setup = [] if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](dp, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        jobs = run_jobs(workload, args.seconds, tracer)
        if tracer is None:
            metrics, extra = end_to_end(workload, jobs, setup)
            absent = []
        else:
            metrics, absent = per_layer(workload, jobs, tracer)
            tracer.write(OUT / f"trace-{args.workload}.csv")
            extra = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for j in jobs if not j.ok)
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs, "
          f"wall s {[round(j.wall, 4) for j in jobs]}")
    for name, value, unit, count in [(n, *m) for n, m in metrics.items()] + extra:
        print(f"{name} = {value:.6g} {unit} (n={count})")
    print(f"error_rate = {failed / len(jobs):.6g} failed/attempted (n={len(jobs)})")
    for name in absent:
        print(f"{name} = absent (a function it is measured at no longer exists)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
