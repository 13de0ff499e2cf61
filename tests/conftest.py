"""Shared fixtures.

The flagship experiment (d = 14, eps = 1, delta = 0.01, five n values up
to 2^15, 50 trials) is the slowest fixture: about 1.4 s with 4 workers on
a 2-core host.  One session-scoped run is shared by the acceptance tests
that read its slope / RMSE rows and by the harness trend-invariant tests.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import inputdp


FLAGSHIP_N_GRID = (2**7, 2**9, 2**11, 2**13, 2**15)


@pytest.fixture(scope="session")
def flagship_run():
    config = inputdp.ExperimentConfig(
        task="linear_regression",
        mechanisms=("non_private", "input", "objective"),
        n_grid=FLAGSHIP_N_GRID,
        trials=50,
        epsilon=1.0,
        delta=0.01,
        dim=14,
        seed=20260815,
    )
    started = time.monotonic()
    report = inputdp.run_experiment(config, workers=4)
    elapsed = time.monotonic() - started
    return report, elapsed


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices passed to ``np.linalg.eigh`` while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
